"""The shared routing rules against references written from definitions.

Every function of :mod:`repro.chord.rules` is checked here against a
brute-force restatement built only from :mod:`repro.ids.idspace`'s
interval predicates, :class:`~repro.ids.sections.VermeIdLayout`, the
static overlay's scalar oracles and :mod:`repro.invariants` — never
from either engine.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.columnar import ColumnarEngine
from repro.chord.config import OverlayConfig
from repro.chord.lookup import LookupPurpose
from repro.chord.rules import (
    entries_for_key,
    finger_entry_allowed,
    first_maintained_finger,
    merge_neighbors,
    purpose_error,
    rejoin_contact,
    remove_finger_ref,
    remove_ref,
    route_candidates,
    route_next,
    stabilize_candidates,
)
from repro.ids import IdSpace, VermeIdLayout
from repro.invariants.predicates import containment_violations
from repro.net.latency import MatrixLatency
from repro.net.network import Network
from repro.overlay import StaticOverlay, VermeStaticOverlay
from repro.sim import RngRegistry, Simulator
from repro.verme.fingers import is_verme_finger_target, verme_finger_target

# -- route_next -------------------------------------------------------------------


def _reference_route(space, layout, own, key, succs, preds, fingers, exclude):
    """``(decision, branch)`` from the definitions: ownership by the
    half-open intervals (Verme: only inside the key's section, else the
    corner rule / hand-back), then a linear closest-preceding scan."""
    if not succs:
        return (True, True, None), "no-successor"
    succ = succs[0]
    if space.in_half_open(key, own, succ[0]):
        if layout is None or layout.same_section(succ[0], key):
            return (True, False, None), "successor-owns"
        return (True, True, None), "corner"
    if preds and space.in_half_open(key, preds[0][0], own):
        if layout is None or layout.same_section(own, key):
            return (True, True, None), "self-owns"
        if preds[0][1] not in exclude:
            return (False, False, preds[0]), "hand-back"
    best = None
    for e in list(fingers) + list(succs):  # strict '>': first seen wins ties
        if e[1] in exclude or not space.in_open(e[0], own, key):
            continue
        if best is None or space.distance(own, e[0]) > space.distance(own, best[0]):
            best = e
    if best is not None:
        return (False, False, best), "closest-preceding"
    if succ[1] not in exclude:
        return (False, False, succ), "last-resort"
    return (False, False, None), "no-route"


def _routing_case(rng, verme):
    """A sparse ring and one node's tables, in any state the protocol
    can leave them: neighbour lists sorted and self-free, fingers in any
    order (self included), random exclusions; refs are the ids."""
    bits = rng.choice([8, 12, 16])
    space = IdSpace(bits)
    layout = None
    if verme:
        type_bits = rng.choice([1, 2])
        layout = VermeIdLayout(space, rng.randint(1, bits - type_bits - 1), type_bits)
    ids = rng.sample(range(space.size), rng.randint(2, 24))
    own = ids[0]
    others = ids[1:]
    succs = sorted(
        rng.sample(others, rng.randint(0, min(6, len(others)))),
        key=lambda x: space.distance(own, x),
    )
    preds = sorted(
        rng.sample(others, rng.randint(0, min(4, len(others)))),
        key=lambda x: space.distance(x, own),
    )
    fingers = rng.sample(ids, rng.randint(0, len(ids)))
    exclude = set(rng.sample(others, rng.randint(0, min(3, len(others)))))
    key = rng.choice(
        [rng.randrange(space.size), own, rng.choice(ids), space.wrap(rng.choice(ids) + 1)]
    )
    def as_entries(xs):
        return [(x, x) for x in xs]

    return (
        space, layout, own, key,
        as_entries(succs), as_entries(preds), as_entries(fingers), exclude,
    )


def _check_route(case):
    space, layout, own, key, succs, preds, fingers, exclude = case
    keys, infos = route_candidates(own, fingers, succs, space.mask)
    got = route_next(
        own, key, succs, preds, keys, infos, exclude, space.mask,
        layout.section_bits if layout is not None else None,
    )
    expected, branch = _reference_route(
        space, layout, own, key, succs, preds, fingers, exclude
    )
    assert got == expected, branch
    return branch


@pytest.mark.parametrize("verme", [False, True])
@given(rng=st.randoms(use_true_random=False))
def test_route_next_matches_linear_closest_preceding_scan(verme, rng):
    _check_route(_routing_case(rng, verme))


@pytest.mark.parametrize("verme", [False, True])
def test_route_next_every_branch_fires(verme):
    """The reference agreement above means little unless each branch is
    reached: in particular Verme's corner rule and hand-back.  (The
    last-resort step to an unexcluded first successor cannot fire on a
    sorted, self-free successor list: that successor is then always a
    scan candidate.)"""
    branches = Counter(
        _check_route(_routing_case(random.Random(seed), verme)) for seed in range(3000)
    )
    expected = {
        "no-successor", "successor-owns", "self-owns", "closest-preceding", "no-route",
    }
    if verme:
        expected |= {"corner", "hand-back"}
    assert set(branches) == expected, branches


# -- neighbour lists ----------------------------------------------------------------


@st.composite
def _neighbor_case(draw):
    bits = draw(st.sampled_from([6, 16, 64]))
    space = IdSpace(bits)
    own = draw(st.integers(0, space.mask))
    entry = st.tuples(st.integers(0, space.mask), st.integers(0, 3))
    limit = draw(st.integers(1, 6))
    clockwise = draw(st.booleans())

    def distance(x):
        return space.distance(own, x) if clockwise else space.distance(x, own)

    # A held list satisfies the list invariant: self-free, one entry per
    # id, sorted by distance, cut to the limit.
    held = {}
    for e in draw(st.lists(entry, max_size=8)):
        if e[0] != own:
            held[e[0]] = e
    cur = sorted(held.values(), key=lambda e: distance(e[0]))[:limit]
    cands = draw(st.lists(st.one_of(entry, st.sampled_from(cur or [(own, 0)])), max_size=8))
    return space, own, cur, cands, limit, clockwise, distance


@given(_neighbor_case())
def test_merge_neighbors_is_sort_dedup_truncate(case):
    space, own, cur, cands, limit, clockwise, distance = case
    latest = {}
    for e in cur + cands:  # a later candidate is a fresher incarnation
        latest[e[0]] = e
    latest.pop(own, None)
    merged = sorted(latest.values(), key=lambda e: distance(e[0]))[:limit]
    got = merge_neighbors(cur, cands, own, space.mask, limit, clockwise)
    assert got == (None if merged == cur else merged)


@given(_neighbor_case(), st.integers(0, 3))
def test_remove_ref_filters_by_reference(case, ref):
    cur = case[2]
    kept = [e for e in cur if e[1] != ref]
    assert remove_ref(cur, ref) == (kept if kept != cur else None)


@given(
    st.dictionaries(
        st.integers(0, 63), st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 3)),
        max_size=8,
    ),
    st.integers(0, 3),
)
def test_remove_finger_ref_filters_by_reference_keeping_finger_order(fingers, ref):
    kept = [(k, e) for k, e in fingers.items() if e[1] != ref]
    got = remove_finger_ref(fingers, ref)
    if len(kept) == len(fingers):
        assert got is None
    else:
        assert list(got.items()) == kept


@given(
    st.lists(st.integers(0, 5), max_size=6),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(0, 40),
)
def test_rejoin_contact_round_robins_fingers_then_new_cache_refs(fingers, cached, turn):
    """Every finger ref (repeats included), then each cached ref the
    first time it appears and only if no finger has it; ``turn`` picks
    among them cyclically."""
    fresh = [r for i, r in enumerate(cached) if r not in fingers and r not in cached[:i]]
    contacts = fingers + fresh
    expected = contacts[turn % len(contacts)] if contacts else None
    assert rejoin_contact(iter(fingers), cached, turn) == expected


@given(
    st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
    st.lists(st.integers(0, 2**16 - 1), max_size=4),
    st.one_of(st.none(), st.integers(0, 2**16 - 1)),
)
def test_stabilize_candidates_admit_the_predecessor_inside_the_gap(own, succ, more, pred):
    space = IdSpace(16)
    s = (succ, "s")
    p = None if pred is None else (pred, "p")
    succ_list = [(x, "l") for x in more]
    admitted = p is not None and space.in_open(p[0], own, succ)
    expected = [s] + succ_list + ([p] if admitted else [])
    assert stabilize_candidates(own, s, succ_list, p, space.mask) == expected


# -- fingers ---------------------------------------------------------------------------


@given(st.sampled_from([1, 8, 64, 160]), st.data())
def test_first_maintained_finger_is_the_first_power_of_two_past_the_successor(bits, data):
    space = IdSpace(bits)
    own = data.draw(st.integers(0, space.mask))
    succ = data.draw(st.integers(0, space.mask))
    span = space.distance(own, succ)
    first = min(k for k in range(bits + 1) if k == bits or (1 << k) > span)
    assert first_maintained_finger(own, succ, space.mask) == first


@st.composite
def _layout_pair(draw):
    bits = draw(st.integers(4, 64))
    type_bits = draw(st.integers(1, min(3, bits - 2)))
    layout = VermeIdLayout(
        IdSpace(bits), draw(st.integers(1, bits - type_bits - 1)), type_bits
    )
    own = draw(st.integers(0, layout.space.mask))
    eid = draw(
        st.one_of(
            st.integers(0, layout.space.mask),
            st.just(own),
            # Same section, and same position one or two sections on.
            st.integers(0, layout.section_length - 1).map(
                lambda low: (own & ~(layout.section_length - 1)) | low
            ),
            st.sampled_from([1, 2, layout.num_types]).map(
                lambda n: layout.advance_sections(own, n)
            ),
        )
    )
    return layout, own, eid


@given(_layout_pair())
def test_finger_entry_allowed_matches_the_containment_invariant(case):
    layout, own, eid = case
    violates = bool(containment_violations(layout, own, [], [], [eid]))
    assert finger_entry_allowed(
        own, eid, layout.section_bits, layout.num_types - 1
    ) == (eid != own and not violates)
    assert finger_entry_allowed(own, eid, None, 0) == (eid != own)


@given(_layout_pair(), st.sampled_from(list(LookupPurpose)), st.data())
def test_purpose_error_is_the_section_4_5_legitimacy_check(case, purpose, data):
    """Joins look up the certified id, finger lookups one of its
    finger targets (every ``verme_finger_target`` over ``k``), and DHT
    lookups are whatever the installed verifier says."""
    layout, cert_id, other = case
    key = data.draw(
        st.one_of(
            st.just(other), st.just(cert_id),
            st.integers(0, layout.space.bits - 1).map(
                lambda k: verme_finger_target(layout, cert_id, k)
            ),
        )
    )
    targets = {verme_finger_target(layout, cert_id, k) for k in range(layout.space.bits)}

    def is_finger_target(c, k):
        return is_verme_finger_target(layout, c, k)

    calls = []

    def verify(*args):
        calls.append(args)
        return "refused by the layer"

    got = purpose_error(purpose, cert_id, key, is_finger_target, verify, "a", 1)
    if purpose is LookupPurpose.JOIN:
        assert got == (None if key == cert_id else "join lookup for a foreign id")
    elif purpose is LookupPurpose.FINGER:
        assert got == (
            None if key in targets else "key is not a finger target of the certified id"
        )
    else:
        assert got == "refused by the layer" and calls == [("a", 1)]
        assert purpose_error(purpose, cert_id, key, is_finger_target, None) is None
    if purpose is not LookupPurpose.DHT:
        assert not calls


# -- entries_for_key on converged rings --------------------------------------------


def _converged_tables(overlay, num_succ, num_pred):
    n = len(overlay)
    return [
        (
            overlay.successor_list(i, num_succ),
            overlay.predecessor_list(i, num_pred),
            list(overlay.finger_table(i).values()),
        )
        for i in range(n)
    ]


def _walk(overlay, tables, start, key, shift):
    """Route ``key`` from node ``start`` over converged tables; returns
    the terminating index and its ``owner_self``."""
    i = start
    mask = overlay.space.mask
    for _ in range(4 * overlay.space.bits):
        succs, preds, fingers = tables[i]
        keys, infos = route_candidates(overlay.ids[i], fingers, succs, mask)
        done, owner_self, nxt = route_next(
            overlay.ids[i], key, succs, preds, keys, infos, frozenset(), mask, shift
        )
        if done:
            return i, owner_self
        i = nxt.address.host_slot  # lazy infos: address = sorted index
    raise AssertionError("lookup did not terminate")


def _check_replica_group(overlay, layout, key, start, limit):
    """A lookup from any node but the key's successor terminates at the
    key's predecessor.  What it returns is the static overlay's replica
    group: all of it when the predecessor owns the key (Verme's corner
    rule), else its clockwise prefix — the owner and the in-section
    nodes after it, as far as the predecessor's successor list reaches.
    Returns ``owner_self``, or None for a ring so small that a neighbour
    list wraps round the ring back into the key's section (where the
    rule's filter and the static group's walk part ways)."""
    tables = _converged_tables(overlay, limit, limit)
    shift = layout.section_bits if layout is not None else None
    term, owner_self = _walk(overlay, tables, start, key, shift)
    assert term == overlay.predecessor_index(key)
    succs, preds, _fingers = tables[term]
    if layout is not None:
        for lst in (succs, preds):
            inside = [layout.same_section(e.node_id, key) for e in lst]
            if inside != sorted(inside, reverse=True):
                return None
    got = entries_for_key(overlay.infos[term], key, owner_self, succs, preds, limit, shift)
    group = overlay.replica_group(key, limit)
    assert got == group[: len(got)]
    if owner_self:
        assert layout is not None
        assert got == group
    return owner_self


def _sparse_overlay(rng, verme, n):
    space = IdSpace(16)
    ids = rng.sample(range(space.size), n)
    if verme:
        layout = VermeIdLayout.for_sections(space, 64)
        return VermeStaticOverlay.from_ids(layout, ids), layout
    return StaticOverlay.from_ids(space, ids), None


@pytest.mark.parametrize("verme", [False, True])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_entries_for_key_is_the_static_replica_group(verme, seed, n):
    rng = random.Random(seed)
    overlay, layout = _sparse_overlay(rng, verme, n)
    for _ in range(20):
        key = rng.randrange(overlay.space.size)
        start = rng.randrange(n)
        if start != overlay.successor_index(key):
            _check_replica_group(overlay, layout, key, start, limit=4)


def test_entries_for_key_corner_rule_fires():
    """Both branches of the replica-group check are reached."""
    rng = random.Random(5)
    overlay, layout = _sparse_overlay(rng, True, 24)
    outcomes = Counter(
        _check_replica_group(
            overlay, layout, key, (overlay.successor_index(key) + 1) % 24, limit=4
        )
        for key in range(0, overlay.space.size, 97)
    )
    assert outcomes[True] and outcomes[False], outcomes


# -- the columnar bootstrap reads its fingers off the static overlay ---------------


@pytest.mark.parametrize("bits, verme", [(64, False), (64, True), (160, False), (160, True)])
def test_columnar_bootstrap_fingers_match_the_static_overlay(bits, verme):
    """Both bootstrap paths (numpy at <= 64 bits, the overlay's scalar
    form beyond) install the converged finger tables, in ascending k."""
    config = OverlayConfig(space=IdSpace(bits))
    layout = VermeIdLayout.for_sections(config.space, 16) if verme else None
    sim = Simulator()
    network = Network(sim, MatrixLatency([[0.0] * 40] * 40))
    engine = ColumnarEngine(sim, network, config, layout)
    engine.build(40, RngRegistry(3))
    overlay = (
        VermeStaticOverlay.from_ids(layout, engine.node_id)
        if verme
        else StaticOverlay.from_ids(config.space, engine.node_id)
    )
    for row, own in enumerate(engine.node_id):
        expected = overlay.finger_table(overlay.index_of(own))
        got = engine.fingers[row]
        assert list(got) == list(expected)
        assert [e[0] for e in got.values()] == [e.node_id for e in expected.values()]
        assert engine.fver[row] == len(got)
