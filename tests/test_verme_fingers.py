"""Property tests for Verme finger-target placement (paper §4.4)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ids import IdSpace, VermeIdLayout
from repro.verme import is_verme_finger_target, verme_finger_target

SPACE = IdSpace(16)
LAYOUT = VermeIdLayout.for_sections(SPACE, 32)  # sections of length 2048

ids = st.integers(min_value=0, max_value=SPACE.size - 1)
fingers = st.integers(min_value=0, max_value=SPACE.bits - 1)


@given(ids, fingers)
def test_target_lands_in_own_section_or_opposite_type(node_id, k):
    """THE finger invariant: a target is either inside the node's own
    island or in a section of the opposite type — never in a distinct
    same-type section."""
    target = verme_finger_target(LAYOUT, node_id, k)
    same_section = LAYOUT.same_section(target, node_id)
    same_type = LAYOUT.type_of(target) == LAYOUT.type_of(node_id)
    assert same_section or not same_type


@given(ids, fingers)
def test_target_displacement_at_most_one_section(node_id, k):
    """The adjustment only ever adds a single section length."""
    raw = SPACE.wrap(node_id + (1 << k))
    target = verme_finger_target(LAYOUT, node_id, k)
    assert target in (raw, LAYOUT.advance_sections(raw, 1))


@given(ids, fingers)
def test_offset_in_section_preserved(node_id, k):
    raw = SPACE.wrap(node_id + (1 << k))
    target = verme_finger_target(LAYOUT, node_id, k)
    assert LAYOUT.offset_in_section(target) == LAYOUT.offset_in_section(raw)


@given(ids, fingers)
def test_nearby_targets_unshifted(node_id, k):
    """Targets in the node's own section or the subsequent one keep the
    plain Chord distance (the paper's "except for nearby nodes")."""
    raw = SPACE.wrap(node_id + (1 << k))
    own = LAYOUT.section_index(node_id)
    if LAYOUT.section_index(raw) in (own, (own + 1) % LAYOUT.num_sections):
        assert verme_finger_target(LAYOUT, node_id, k) == raw


@given(ids, fingers)
def test_every_target_is_recognized_as_legitimate(node_id, k):
    """The §4.5 verification must accept every genuine finger target."""
    target = verme_finger_target(LAYOUT, node_id, k)
    assert is_verme_finger_target(LAYOUT, node_id, target)


@given(ids)
def test_random_keys_mostly_rejected_as_finger_targets(node_id):
    """A crawling worm cannot pass off arbitrary keys as finger
    refreshes: only the ~bits genuine targets verify."""
    legitimate = {
        verme_finger_target(LAYOUT, node_id, k) for k in range(SPACE.bits)
    }
    rejected = 0
    for probe in range(0, SPACE.size, SPACE.size // 64):
        if probe not in legitimate and not is_verme_finger_target(
            LAYOUT, node_id, probe
        ):
            rejected += 1
    assert rejected >= 55  # nearly all arbitrary probes fail verification


def test_small_fingers_stay_in_section():
    node_id = LAYOUT.make_id(3, 0, 0)
    target = verme_finger_target(LAYOUT, node_id, 1)  # distance 2
    assert LAYOUT.same_section(target, node_id)


def test_far_finger_into_same_type_section_is_displaced():
    node_id = LAYOUT.make_id(0, 0, 0)
    # Distance of exactly 2 sections lands in a same-type section...
    k = LAYOUT.section_bits + 1
    raw = SPACE.wrap(node_id + (1 << k))
    assert LAYOUT.type_of(raw) == LAYOUT.type_of(node_id)
    target = verme_finger_target(LAYOUT, node_id, k)
    # ...so it must be displaced into the next (opposite-type) section.
    assert target == LAYOUT.advance_sections(raw, 1)
    assert LAYOUT.type_of(target) != LAYOUT.type_of(node_id)


def test_far_finger_into_opposite_type_section_unshifted():
    node_id = LAYOUT.make_id(0, 0, 0)
    k = LAYOUT.section_bits  # exactly one section ahead: opposite type
    raw = SPACE.wrap(node_id + (1 << k))
    assert LAYOUT.type_of(raw) != LAYOUT.type_of(node_id)
    assert verme_finger_target(LAYOUT, node_id, k) == raw


# -- O(1) verification vs the definition ------------------------------------------


def _is_target_by_definition(layout, node_id, key):
    return any(
        verme_finger_target(layout, node_id, k) == key
        for k in range(layout.space.bits)
    )


@st.composite
def _layout_id_key(draw):
    """Random layouts (including multi-bit type fields), ids, and keys
    biased to the interesting neighbourhood: exact targets (displaced
    and wrapped ones included), raw ``id + 2**k`` sums that were
    displaced away, and their off-by-one / off-by-a-section cousins."""
    bits = draw(st.integers(min_value=6, max_value=64))
    type_bits = draw(st.integers(min_value=1, max_value=min(3, bits - 3)))
    section_bits = draw(st.integers(min_value=1, max_value=bits - type_bits - 1))
    layout = VermeIdLayout(IdSpace(bits), section_bits, type_bits)
    size = layout.space.size
    node_id = draw(
        st.one_of(
            st.integers(min_value=0, max_value=size - 1),
            st.integers(min_value=1, max_value=8).map(lambda d: size - d),  # wrap
        )
    )
    k = draw(st.integers(min_value=0, max_value=bits - 1))
    base = draw(
        st.sampled_from(
            [verme_finger_target(layout, node_id, k), node_id + (1 << k)]
        )
    )
    nudge = draw(
        st.sampled_from(
            [0, 0, 1, -1, layout.section_length, -layout.section_length]
        )
    )
    key = draw(
        st.one_of(
            st.just(layout.space.wrap(base + nudge)),
            st.integers(min_value=0, max_value=size - 1),
        )
    )
    return layout, node_id, key


@given(_layout_id_key())
def test_is_finger_target_matches_brute_force(case):
    layout, node_id, key = case
    assert is_verme_finger_target(layout, node_id, key) == _is_target_by_definition(
        layout, node_id, key
    )
