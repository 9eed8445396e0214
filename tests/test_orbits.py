import random

import pytest
from hypothesis import given, settings, strategies as st

from paramod import cli, orbits, paramodular
from paramod.lattice import Character, character_table, make_lattice
from paramod.orbits import (
    LabeledSet,
    Permutation,
    characters2_set,
    component_report,
    group_closure,
    orbit,
    orbits_all,
    pairs48_set,
    permutation_of,
    psi_set,
    standard_orbit_report,
    standard_set,
)
from paramod.paramodular import (
    act,
    act_pair,
    gen_J,
    gen_b,
    gen_d,
    mat_mul,
    member,
    special_generators,
)

LAT = make_lattice(2)
TABLE = character_table(LAT)
GEN_LIST = special_generators()
GENS = [g for _, g in GEN_LIST]


def mul(a, b):
    """Group product: the member whose matrix is a's times b's."""
    return member(mat_mul(a.entries, b.entries), a.d)


def test_orbit_of_trivial():
    words, truncated = orbit(TABLE.chi[0], GENS, act)
    assert words == {TABLE.chi[0]: ()}
    assert not truncated


def test_orbit_of_chi1():
    got = list(orbit(TABLE.chi[1], GENS, act)[0])
    assert set(got) == set(TABLE.chi[1:])
    assert len(got) == 3


def test_orbit_of_psi1():
    got = orbit(TABLE.psi[0], GENS, act)[0]
    assert set(got) == set(TABLE.psi)


def test_orbits_all_sizes():
    part = orbits_all(characters2_set(TABLE), GENS, act)
    assert part.sizes() == [1, 3, 12]


def test_orbits_all_no_generators():
    part = orbits_all(characters2_set(TABLE), [], act)
    assert part.sizes() == [1] * 16


def test_pairs48_single_orbit():
    part = orbits_all(pairs48_set(TABLE), GENS, act_pair)
    assert part.sizes() == [48]


def test_witness_words_replay():
    lset = characters2_set(TABLE)
    part = orbits_all(lset, GENS, act)
    for block in part.blocks:
        rep = lset.elements[block[0]]
        for i in block:
            state = rep
            for gi in part.generator_words[i]:
                state = act(GENS[gi], state)
            assert state == lset.elements[i]


def test_blocks_are_stable():
    lset = characters2_set(TABLE)
    part = orbits_all(lset, GENS, act)
    for block in part.blocks:
        states = {lset.elements[i] for i in block}
        for s in states:
            for g in GENS:
                assert act(g, s) in states


def test_blocks_partition_indices():
    part = orbits_all(characters2_set(TABLE), GENS, act)
    flat = sorted(i for block in part.blocks for i in block)
    assert flat == list(range(16))


EXPECTED_CYCLES = {
    "b(1,0,0)": "(psi2 psi8)(psi5 psi11)(psi6 psi12)",
    "b(0,1,0)": "(psi1 psi7)(psi2 psi8)(psi4 psi10)(psi6 psi12)",
    "b(0,0,1)": "(psi1 psi4)(psi2 psi6)(psi7 psi10)(psi8 psi12)",
    "d(1,0,1,1)": "(psi3 psi9)(psi4 psi10)(psi5 psi11)(psi6 psi12)",
    "d(1,1,0,1)": "(psi1 psi2)(psi4 psi6)(psi7 psi8)(psi10 psi12)",
    "J": "(psi1 psi3)(psi2 psi9)(psi5 psi7)(psi6 psi10)(psi8 psi11)",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CYCLES))
def test_permutation_goldens(name):
    pset = psi_set(TABLE)
    m = dict(GEN_LIST)[name]
    perm = permutation_of(m, pset)
    assert perm.cycle_string(pset.labels) == EXPECTED_CYCLES[name]


def test_permutation_of_unstable_set_names_escapee():
    small = LabeledSet((TABLE.psi[0],), ("psi1",))
    with pytest.raises(ValueError, match="psi1"):
        permutation_of(gen_J(), small)


def test_permutation_composition_compatibility():
    pset = psi_set(TABLE)
    rng = random.Random(3)
    for _ in range(10):
        m1, m2 = rng.choice(GENS), rng.choice(GENS)
        left = permutation_of(mul(m1, m2), pset)
        right = permutation_of(m1, pset).compose(permutation_of(m2, pset))
        assert left == right


def test_compose_equals_validated_permutation():
    with pytest.raises(ValueError, match="bijection"):
        Permutation((0, 0))
    perms = [permutation_of(m, psi_set(TABLE)) for _, m in GEN_LIST]
    rng = random.Random(5)
    for _ in range(20):
        p, q = rng.choice(perms), rng.choice(perms)
        composed = p.compose(q)
        validated = Permutation(tuple(p.images[q.images[i]] for i in range(12)))
        assert composed == validated
        assert hash(composed) == hash(validated)
        assert not composed < validated and not validated < composed


def test_cycle_form_reconstructs_images():
    pset = psi_set(TABLE)
    for _, m in GEN_LIST:
        perm = permutation_of(m, pset)
        images = list(range(12))
        for cyc in perm.cycles():
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        assert tuple(images) == perm.images


def test_closure_transitive():
    pset = psi_set(TABLE)
    perms = [permutation_of(m, pset) for _, m in GEN_LIST]
    report = group_closure(perms, 12)
    assert report.transitive
    assert not report.truncated
    # order frozen from full enumeration of the generated group
    assert report.order == 576


def test_closure_identity_only():
    report = group_closure([Permutation.identity(12)], 12)
    assert not report.transitive
    assert report.orbit_sizes == (1,) * 12
    assert report.order == 1


def test_closure_b_generators_only():
    # brute-force closure of the three triangular generators alone; the
    # partition of the 12 complement characters was recorded from that run
    pset = psi_set(TABLE)
    perms = [permutation_of(dict(GEN_LIST)[n], pset)
             for n in ("b(1,0,0)", "b(0,1,0)", "b(0,0,1)")]
    report = group_closure(perms, 12)
    assert not report.transitive
    assert report.orbit_sizes == (1, 1, 2, 4, 4)


def test_closure_lagrange():
    pset = psi_set(TABLE)
    perms = [permutation_of(m, pset) for _, m in GEN_LIST]
    report = group_closure(perms, 12)
    for size in report.orbit_sizes:
        assert report.order % size == 0


def test_closure_cap_truncates():
    pset = psi_set(TABLE)
    perms = [permutation_of(m, pset) for _, m in GEN_LIST]
    report = group_closure(perms, 12, cap=10)
    assert report.truncated
    assert report.transitive  # point orbits do not need the closure


def test_closure_cap_below_generator_count():
    # the enumeration starts from the identity alone, so even a cap smaller
    # than the number of generators truncates at cap + 1 elements
    pset = psi_set(TABLE)
    perms = [permutation_of(m, pset) for _, m in GEN_LIST]
    report = group_closure(perms, 12, cap=3)
    assert report.truncated
    assert report.order == 4


def test_closure_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        group_closure([Permutation.identity(5)], 12)


@pytest.mark.parametrize("degree,sizes", [(0, ()), (1, (1,))])
@pytest.mark.parametrize("with_identity", [False, True])
def test_closure_below_two_points(degree, sizes, with_identity):
    perms = [Permutation.identity(degree)] if with_identity else []
    for cap in (1, 3, 10**6):
        report = group_closure(perms, degree, cap=cap)
        assert (report.order, report.truncated, report.orbit_sizes) == (1, False, sizes)
        assert report.transitive == (degree == 1)


def _reference_group(perms, degree):
    """All elements of the generated group, by left products g∘s with compose."""
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        new = {g.compose(s) for s in frontier for g in perms} - elements
        elements |= new
        frontier = list(new)
    return elements


@settings(deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.permutations(range(n)), max_size=4))),
       st.integers(1, 6000))
def test_closure_matches_left_product_reference(degree_and_images, cap):
    degree, images = degree_and_images
    perms = [Permutation(tuple(p)) for p in images]
    group = _reference_group(perms, degree)
    report = group_closure(perms, degree, cap=cap)
    assert report.order == min(len(group), cap + 1)
    assert report.truncated == (len(group) > cap)
    point_orbits = {frozenset(g.images[i] for g in group) for i in range(degree)}
    assert report.orbit_sizes == tuple(sorted(map(len, point_orbits)))
    assert report.transitive == (len(point_orbits) == 1)


def test_partition_robust_under_extra_members():
    rng = random.Random(4)
    lset = characters2_set(TABLE)
    for _ in range(10):
        extra = []
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(GENS)
            for _ in range(rng.randint(0, 3)):
                m = mul(m, rng.choice(GENS))
            extra.append(m)
        extra.append(gen_b(rng.randrange(6), rng.randrange(6), rng.randrange(6)))
        d12 = rng.randrange(3)
        extra.append(gen_d(1, d12, 0, 1))
        part = orbits_all(lset, GENS + extra, act)
        assert part.sizes() == [1, 3, 12]


def test_orbit_determinism():
    a = standard_orbit_report("characters2")
    b = standard_orbit_report("characters2")
    assert a == b


def test_standard_orbit_report_pairs():
    report = standard_orbit_report("pairs48")
    assert report["transitive"]
    assert report["orbit_sizes"] == [48]


def test_standard_orbit_report_unknown_set():
    with pytest.raises(ValueError, match="unknown set"):
        standard_orbit_report("nope")


def test_component_report_degrees():
    report = component_report()
    degrees = [c["cover_degree"]
               for c in report["marked_2torsion_space"]["components"]]
    assert degrees == [12, 3]
    pair_comp = report["marked_root_pair_space"]["components"][0]
    assert pair_comp["cover_degree"] == 48
    assert pair_comp["factorization"] == "3 * 16"


def test_standard_set_built_once():
    assert standard_set("pairs48") is standard_set("pairs48")
    lset, perms, part = standard_set("characters2")
    assert len(lset.elements) == 16 and len(perms) == 6
    assert part == orbits_all(lset, GENS, act)


@given(st.sampled_from(["characters2", "psi12", "pairs48"]), st.data())
def test_tables_replay_the_action(name, data):
    lset, perms, _ = standard_set(name)
    action = act_pair if name == "pairs48" else act
    i = data.draw(st.integers(0, len(lset.elements) - 1))
    state = lset.elements[i]
    for gi in data.draw(st.lists(st.integers(0, len(GENS) - 1), max_size=12)):
        i = perms[gi].images[i]
        state = action(GENS[gi], state)
        assert lset.elements[i] == state


def test_second_moduli_call_applies_no_generator(monkeypatch):
    calls = {"act": 0, "act_pair": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (paramodular, orbits):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    orbits.standard_set.cache_clear()
    assert cli.main(["moduli"]) == 0
    assert calls["act"] > 0 and calls["act_pair"] > 0
    before = dict(calls)
    assert cli.main(["moduli"]) == 0
    assert calls == before


def test_labeled_set_rejects_duplicates():
    c = Character(2, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        LabeledSet((c, c), ("a", "b"))
