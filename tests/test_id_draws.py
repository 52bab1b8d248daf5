"""Batched id draws (repro.ids.draws) against their scalar oracles.

Every array draw must equal the scalar ``random.Random`` calls it
replaces, value for value, and leave the generator in the same state;
the worm populations built from them must equal the per-id reference
builders kept below, down to the RNG state after the build.
"""

import random

import numpy as np
import pytest

from repro.ids import IdSpace, NodeType, VermeIdLayout
from repro.ids.draws import (
    getrandbits_array,
    getrandbits_fields,
    random_array,
    random_words,
    unique_id,
    unique_ids,
)
from repro.overlay import StaticOverlay
from repro.worm.scenarios import (
    SCENARIOS,
    WormScenarioConfig,
    build_chord_population,
    build_verme_population,
)


def _pair(seed=7):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("bits", [0, 1, 6, 11, 32, 33, 52, 57, 64])
def test_getrandbits_array_equals_scalar_draws(bits):
    batch, scalar = _pair()
    got = getrandbits_array(batch, bits, 3001).tolist()
    assert got == [scalar.getrandbits(bits) for _ in range(3001)]
    assert batch.getstate() == scalar.getstate()


def test_random_array_equals_scalar_draws():
    batch, scalar = _pair()
    assert random_array(batch, 3001).tolist() == [scalar.random() for _ in range(3001)]
    assert batch.getstate() == scalar.getstate()


def test_fields_interleave_like_scalar_rounds():
    batch, scalar = _pair()
    widths = (51, 12, 0, 32)
    fields = getrandbits_fields(batch, widths, 500)
    rounds = [[scalar.getrandbits(k) for k in widths] for _ in range(500)]
    assert [list(row) for row in zip(*(f.tolist() for f in fields))] == rounds
    assert batch.getstate() == scalar.getstate()


def test_zero_count_draws_nothing():
    batch, scalar = _pair()
    assert random_words(batch, 0).size == 0
    assert random_array(batch, 0).size == 0
    assert batch.getstate() == scalar.getstate()


def test_field_wider_than_64_bits_rejected():
    with pytest.raises(ValueError):
        getrandbits_fields(random.Random(1), (65,), 3)


def test_random_ids_equal_random_id():
    layout = VermeIdLayout.for_sections(IdSpace(64), 4096, type_bits=2)
    types = [i % layout.num_types for i in range(2001)]
    batch, scalar = _pair()
    got = layout.random_ids(batch, types).tolist()
    assert got == [layout.random_id(scalar, t) for t in types]
    assert batch.getstate() == scalar.getstate()
    with pytest.raises(ValueError):
        layout.random_ids(random.Random(1), [layout.num_types])


def test_types_of_equals_type_of():
    layout = VermeIdLayout.for_sections(IdSpace(64), 256, type_bits=3)
    ids = layout.random_ids(random.Random(2), [i % 8 for i in range(100)])
    assert layout.types_of(ids).tolist() == [layout.type_of(i) for i in ids.tolist()]


# -- unique_ids: verify or replay ----------------------------------------


def _scalar_unique(rng, source, types, used=None):
    """The sequential rejection loop every caller used to restate."""
    used = set() if used is None else used
    if isinstance(source, IdSpace):
        draw = [lambda: rng.getrandbits(source.bits)] * types
    else:
        draw = [lambda t=t: source.random_id(rng, t) for t in types]
    out = []
    for gen in draw:
        candidate = gen()
        while candidate in used:
            candidate = gen()
        used.add(candidate)
        out.append(candidate)
    return out


@pytest.mark.parametrize("bits", [33, 64, 160])
@pytest.mark.parametrize("count", [0, 1, 2, 500])
def test_unique_ids_equal_scalar_loop(bits, count):
    space = IdSpace(bits)
    batch, scalar = _pair(count)
    got = unique_ids(batch, space, count)
    assert got.tolist() == _scalar_unique(scalar, space, count)
    assert batch.getstate() == scalar.getstate()
    assert all(type(i) is int for i in got.tolist())


def test_forced_collisions_replay_the_scalar_loop():
    """3000 draws from a 12-bit space collide for certain: the batch is
    rejected and the replay must match the scalar loop exactly."""
    space = IdSpace(12)
    batch, scalar = _pair(3)
    got = unique_ids(batch, space, 3000)
    want = _scalar_unique(scalar, space, 3000)
    assert got.tolist() == want
    assert len(set(want)) == 3000
    assert batch.getstate() == scalar.getstate()


def test_typed_collisions_replay_the_scalar_loop():
    layout = VermeIdLayout.for_sections(IdSpace(14), 16)
    types = [i % 2 for i in range(1500)]
    batch, scalar = _pair(4)
    assert unique_ids(batch, layout, types).tolist() == _scalar_unique(
        scalar, layout, types
    )
    assert batch.getstate() == scalar.getstate()


def test_unique_id_is_the_scalar_loop():
    layout = VermeIdLayout.for_sections(IdSpace(10), 8)
    batch, scalar = _pair(6)
    used_batch, used_scalar = set(), set()
    got = [unique_id(batch, layout, i % 2, used_batch) for i in range(300)]
    assert got == _scalar_unique(scalar, layout, [i % 2 for i in range(300)], used_scalar)
    assert used_batch == used_scalar


# -- from_ids -----------------------------------------------------------------


@pytest.mark.parametrize("bits", [16, 64, 160])
def test_from_ids_sorts_lists_and_arrays_alike(bits):
    space = IdSpace(bits)
    ids = _scalar_unique(random.Random(8), space, 200)
    overlay = StaticOverlay.from_ids(space, ids)
    assert overlay.ids == sorted(ids)
    assert all(type(i) is int for i in overlay.ids)
    if bits <= 64:
        from_array = StaticOverlay.from_ids(space, np.array(ids, dtype=np.uint64))
        assert from_array.ids == sorted(ids)
        assert from_array._ids_numpy().tolist() == sorted(ids)


@pytest.mark.parametrize("bits", [16, 64, 160])
def test_from_ids_rejects_duplicates(bits):
    space = IdSpace(bits)
    with pytest.raises(ValueError):
        StaticOverlay.from_ids(space, [3, 9, 3])
    if bits <= 64:
        with pytest.raises(ValueError):
            StaticOverlay.from_ids(space, np.array([3, 9, 3], dtype=np.uint64))
    with pytest.raises(ValueError):
        StaticOverlay.from_ids(space, [])


# -- the worm populations against their per-id reference builders ------------


def _reference_verme(config, rng, with_impersonator):
    """The per-id Verme population builder, as it was before batching."""
    layout = VermeIdLayout.for_sections(IdSpace(config.id_bits), config.num_sections)
    used = set()
    half = config.num_nodes // 2
    ids = _scalar_unique(rng, layout, [NodeType.A] * half, used)
    ids += _scalar_unique(rng, layout, [NodeType.B] * (config.num_nodes - half), used)
    imp_id = None
    if with_impersonator:
        claimed = config.victim_type.opposite
        imp_id = _scalar_unique(rng, layout, [claimed], used)[0]
        ids.append(imp_id)
    ids.sort()
    node_types = [layout.type_of(nid) for nid in ids]
    vulnerable = [
        t == int(config.victim_type)
        and (config.immune_fraction <= 0.0 or rng.random() >= config.immune_fraction)
        for t in node_types
    ]
    imp_index = None
    if imp_id is not None:
        imp_index = ids.index(imp_id)
        vulnerable[imp_index] = False
    return ids, vulnerable, node_types, imp_index


def _reference_chord(config, rng):
    """The per-id Chord population builder, as it was before batching."""
    space = IdSpace(config.id_bits)
    ids = sorted(_scalar_unique(rng, space, config.num_nodes))
    node_types = [
        int(config.victim_type) if rng.random() < 0.5 else int(config.victim_type.opposite)
        for _ in range(len(ids))
    ]
    vulnerable = [
        t == int(config.victim_type)
        and (config.immune_fraction <= 0.0 or rng.random() >= config.immune_fraction)
        for t in node_types
    ]
    return ids, vulnerable, node_types, None


CONFIGS = [
    WormScenarioConfig(num_nodes=5000, num_sections=256, seed=3),
    WormScenarioConfig(num_nodes=5000, num_sections=256, seed=4, immune_fraction=0.3),
    WormScenarioConfig(num_nodes=301, num_sections=16, seed=5, id_bits=160),
]


@pytest.mark.parametrize("config", CONFIGS, ids=["64bit", "immune", "160bit"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_populations_equal_the_per_id_reference(scenario, config):
    batch, scalar = _pair(config.seed)
    if scenario == "chord":
        pop = build_chord_population(config, batch)
        want = _reference_chord(config, scalar)
    else:
        with_imp = scenario not in ("chord", "verme")
        pop = build_verme_population(config, batch, with_impersonator=with_imp)
        want = _reference_verme(config, scalar, with_imp)
    got = (pop.overlay.ids, pop.vulnerable, pop.node_types, pop.impersonator_index)
    assert got == want
    assert all(type(v) is bool for v in pop.vulnerable)
    assert batch.getstate() == scalar.getstate()
