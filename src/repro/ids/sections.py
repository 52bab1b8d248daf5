"""Verme identifier structure: type-alternating ring sections.

Verme (paper §4.3, Figure 2) splits a node id into three fields::

    [ high random bits | type bits | low random bits ]
      \\-- section number --/         \\-- position --/

The low ``section_bits`` are random and define the *length* of a
section; the middle ``type_bits`` encode the node's platform type; the
high bits are random.  High bits concatenated with the type bits form
the *section number*, so consecutive section numbers always differ in
their type field: neighbouring sections never share a type.  With the
paper's simplifying assumption of two types (one type bit) the sections
strictly alternate A, B, A, B, ... around the ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .draws import getrandbits_fields
from .idspace import IdSpace


@dataclass(frozen=True)
class VermeIdLayout:
    """Field layout of Verme identifiers within an :class:`IdSpace`.

    ``section_bits`` is the number of low random bits (section length is
    ``2**section_bits``); ``type_bits`` is the width of the type field
    (the paper's two-type assumption corresponds to the default of 1).
    """

    space: IdSpace
    section_bits: int
    type_bits: int = 1

    def __post_init__(self) -> None:
        if self.section_bits < 1:
            raise ValueError("section_bits must be >= 1")
        if self.type_bits < 1:
            raise ValueError("type_bits must be >= 1")
        if self.section_bits + self.type_bits >= self.space.bits:
            raise ValueError(
                "section_bits + type_bits must leave room for high bits "
                f"({self.section_bits}+{self.type_bits} >= {self.space.bits})"
            )

    # -- derived geometry ---------------------------------------------------

    @property
    def high_bits(self) -> int:
        return self.space.bits - self.type_bits - self.section_bits

    @property
    def section_length(self) -> int:
        """Number of identifiers per section."""
        return 1 << self.section_bits

    @property
    def num_types(self) -> int:
        return 1 << self.type_bits

    @property
    def num_sections(self) -> int:
        """Total sections around the ring (all types)."""
        return 1 << (self.high_bits + self.type_bits)

    @property
    def sections_per_type(self) -> int:
        return self.num_sections // self.num_types

    @classmethod
    def for_sections(
        cls, space: IdSpace, num_sections: int, type_bits: int = 1
    ) -> "VermeIdLayout":
        """Build the layout with exactly ``num_sections`` total sections.

        This mirrors the paper's configuration style ("the Verme overlay
        was configured with 128 sections" / "4096 sections").
        """
        if num_sections & (num_sections - 1):
            raise ValueError("num_sections must be a power of two")
        index_bits = num_sections.bit_length() - 1
        if index_bits < type_bits + 1:
            raise ValueError("num_sections too small for the type field")
        return cls(space, space.bits - index_bits, type_bits)

    # -- id (de)composition -------------------------------------------------

    def make_id(self, high: int, node_type: int, low: int) -> int:
        """Compose an id from its three fields."""
        if not 0 <= high < (1 << self.high_bits):
            raise ValueError(f"high field {high} out of range")
        if not 0 <= node_type < self.num_types:
            raise ValueError(f"type field {node_type} out of range")
        if not 0 <= low < self.section_length:
            raise ValueError(f"low field {low} out of range")
        return (high << (self.type_bits + self.section_bits)) | (
            node_type << self.section_bits
        ) | low

    def split(self, ident: int) -> Tuple[int, int, int]:
        """Decompose an id into ``(high, type, low)``."""
        self.space.validate(ident)
        low = ident & (self.section_length - 1)
        node_type = (ident >> self.section_bits) & (self.num_types - 1)
        high = ident >> (self.section_bits + self.type_bits)
        return high, node_type, low

    def type_of(self, ident: int) -> int:
        """The type field of an identifier (node id or key)."""
        return (ident >> self.section_bits) & (self.num_types - 1)

    def types_of(self, ids: np.ndarray) -> np.ndarray:
        """Array :meth:`type_of` over ``uint64`` ids."""
        return (ids >> np.uint64(self.section_bits)) & np.uint64(self.num_types - 1)

    def section_index(self, ident: int) -> int:
        """Global section number (high bits concatenated with type bits)."""
        return self.space.validate(ident) >> self.section_bits

    def offset_in_section(self, ident: int) -> int:
        return ident & (self.section_length - 1)

    # -- section geometry ---------------------------------------------------

    def section_start(self, index: int) -> int:
        if not 0 <= index < self.num_sections:
            raise ValueError(f"section index {index} out of range")
        return index << self.section_bits

    def section_bounds(self, index: int) -> Tuple[int, int]:
        """Inclusive ``(first_id, last_id)`` of section ``index``."""
        start = self.section_start(index)
        return start, start + self.section_length - 1

    def type_of_section(self, index: int) -> int:
        if not 0 <= index < self.num_sections:
            raise ValueError(f"section index {index} out of range")
        return index & (self.num_types - 1)

    def sections_of_type(self, node_type: int) -> Iterator[int]:
        """All section indices whose type field equals ``node_type``."""
        if not 0 <= node_type < self.num_types:
            raise ValueError(f"type {node_type} out of range")
        for high in range(1 << self.high_bits):
            yield (high << self.type_bits) | node_type

    # -- navigation ---------------------------------------------------------

    def advance_sections(self, ident: int, count: int = 1) -> int:
        """Same position, ``count`` sections clockwise (wraps the ring)."""
        return self.space.wrap(ident + count * self.section_length)

    def opposite_type_position(self, ident: int) -> int:
        """Same in-section position in the *next* section.

        With two types the next section is of the opposite type; this is
        the displacement Verme applies to finger targets (§4.4) and VerDi
        applies to the second replica group (§5.2).
        """
        return self.advance_sections(ident, 1)

    def same_type(self, a: int, b: int) -> bool:
        return self.type_of(a) == self.type_of(b)

    def same_section(self, a: int, b: int) -> bool:
        return self.section_index(a) == self.section_index(b)

    # -- id generation ------------------------------------------------------

    # Scalar form over plain ints beside an array form over ``uint64``
    # ids (rings of at most 64 bits), drawing the same RNG stream.

    def random_id(self, rng: random.Random, node_type: int) -> int:
        """A fresh id for a node of ``node_type`` (high and low random)."""
        high = rng.getrandbits(self.high_bits)
        low = rng.getrandbits(self.section_bits)
        return self.make_id(high, node_type, low)

    def random_ids(self, rng: random.Random, types: Sequence[int]) -> np.ndarray:
        """Array :meth:`random_id`: one id per entry of ``types``, equal
        to ``[self.random_id(rng, t) for t in types]``."""
        if self.space.bits > 64:
            raise ValueError("array ids need a ring of at most 64 bits")
        types = np.asarray(types, dtype=np.uint64)
        if len(types) and int(types.max()) >= self.num_types:
            raise ValueError(f"type field {int(types.max())} out of range")
        high, low = getrandbits_fields(
            rng, (self.high_bits, self.section_bits), len(types)
        )
        high <<= np.uint64(self.type_bits + self.section_bits)
        high |= types << np.uint64(self.section_bits)
        high |= low
        return high

    def random_key(self, rng: random.Random) -> int:
        """A uniformly random key (keys are not type-structured)."""
        return rng.getrandbits(self.space.bits)
