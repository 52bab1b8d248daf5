"""Batched id draws, bit-identical to the scalar ``random.Random`` calls.

CPython's Mersenne Twister answers ``getrandbits(32 * W)`` with exactly
the next W 32-bit outputs, packed little-endian, and leaves the
generator where W single draws would.  Each scalar draw is a fixed
function of the words it consumes:

* ``getrandbits(k)``, 0 < k <= 32: one word ``w``, then ``w >> (32 - k)``;
* ``getrandbits(k)``, 32 < k <= 64: two words, ``w0 | (w1 >> (64 - k)) << 32``;
* ``random()``: two words, ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.

So a batch of N draws is one ``getrandbits`` call plus numpy shifts:
the same values, in the same order, with the same final RNG state.

:func:`unique_id` holds the one id-rejection loop of the code base.
Per-node callers (object factories, live-engine rows, churn respawns)
call it directly; :func:`unique_ids` draws a whole population as one
batch and replays it through that loop only on a collision.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Sequence, Set, Tuple, Union

import numpy as np

from .idspace import IdSpace

if TYPE_CHECKING:
    from .sections import VermeIdLayout


def random_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne-Twister outputs of ``rng``, as
    a ``uint32`` array, consumed exactly as ``count`` single draws."""
    if count <= 0:
        return np.empty(0, dtype=np.uint32)
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


def getrandbits_fields(
    rng: random.Random, widths: Sequence[int], count: int
) -> Tuple[np.ndarray, ...]:
    """Array form of ``count`` rounds of ``[rng.getrandbits(k) for k in
    widths]``: one ``uint64`` array per width (each at most 64 bits)."""
    if any(not 0 <= k <= 64 for k in widths):
        raise ValueError(f"field widths must be in [0, 64], got {widths}")
    spans = [(k + 31) // 32 for k in widths]  # words per field
    words = random_words(rng, count * sum(spans)).reshape(count, sum(spans))
    fields = []
    col = 0
    for k, span in zip(widths, spans):
        if span == 0:  # getrandbits(0) is 0 and consumes nothing
            fields.append(np.zeros(count, dtype=np.uint64))
            continue
        first = words[:, col].astype(np.uint64)
        if span == 1:
            fields.append(first >> np.uint64(32 - k))
        else:
            second = words[:, col + 1].astype(np.uint64) >> np.uint64(64 - k)
            fields.append(first | (second << np.uint64(32)))
        col += span
    return tuple(fields)


def getrandbits_array(rng: random.Random, bits: int, count: int) -> np.ndarray:
    """Array form of ``[rng.getrandbits(bits) for _ in range(count)]``."""
    return getrandbits_fields(rng, (bits,), count)[0]


def random_array(rng: random.Random, count: int) -> np.ndarray:
    """Array form of ``[rng.random() for _ in range(count)]``."""
    words = random_words(rng, 2 * count).reshape(count, 2)
    a = (words[:, 0] >> 5).astype(np.float64)
    b = (words[:, 1] >> 6).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def unique_id(
    rng: random.Random,
    source: IdSpace | VermeIdLayout,
    node_type: int,
    used: Set[int],
) -> int:
    """One fresh id not yet in ``used`` (and now added to it): draw, and
    redraw while the candidate is taken.  ``source`` is an
    :class:`IdSpace` (uniform, untyped Chord ids; ``node_type`` is
    ignored) or a Verme layout (an id of ``node_type``)."""
    if isinstance(source, IdSpace):
        draw = partial(rng.getrandbits, source.bits)
    else:
        draw = partial(source.random_id, rng, node_type)
    candidate = draw()
    while candidate in used:
        candidate = draw()
    used.add(candidate)
    return candidate


def unique_ids(
    rng: random.Random,
    source: IdSpace | VermeIdLayout,
    types: Union[int, Sequence[int]],
) -> np.ndarray:
    """Distinct fresh ids, exactly as repeated :func:`unique_id` calls
    on one fresh ``used`` set would draw them (same values, same final
    RNG state).

    ``types`` is the id count for an :class:`IdSpace` source, or one
    node type per id, in draw order, for a Verme layout.  Returns the
    ids in draw order as an array: ``uint64`` on rings of at most 64
    bits, Python ints (``dtype=object``) on wider ones.

    Verify or replay: the whole batch is drawn at once and kept when it
    holds no repeat; otherwise the RNG state is restored and the scalar
    loop replays the draws one by one.  (At 64 bits a 100k batch
    collides with probability below 1e-9.)
    """
    untyped = isinstance(source, IdSpace)
    space = source if untyped else source.space
    count = types if untyped else len(types)
    if count > 1 and space.bits <= 64:
        state = rng.getstate()
        if untyped:
            ids = getrandbits_array(rng, space.bits, count)
        else:
            ids = source.random_ids(rng, types)
        ordered = np.sort(ids)
        if not (ordered[1:] == ordered[:-1]).any():
            return ids
        rng.setstate(state)
    used: Set[int] = set()
    node_types = [0] * count if untyped else np.asarray(types).tolist()
    out = [unique_id(rng, source, t, used) for t in node_types]
    return np.array(out, dtype=np.uint64 if space.bits <= 64 else object)
