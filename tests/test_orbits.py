import random

import pytest
from hypothesis import given, settings, strategies as st

import orbit_reference
from paramod import classifier, cli, orbits, paramodular
from paramod.lattice import Character, character_table, make_lattice
from paramod.orbits import (
    LabeledSet,
    Permutation,
    characters2_set,
    component_report,
    group_closure,
    orbit,
    orbits_all,
    pair_set,
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
    return member(mat_mul(a.entries, b.entries))


CHARS = characters2_set(TABLE)
# the six generators' image tables on the 16 characters, in GENS order
CHAR_TABLES = [permutation_of(g, CHARS).images for g in GENS]


def orbit_of(c):
    """orbit() on the index tables, from the index of c, with characters as keys."""
    got = orbit(CHARS.elements.index(c), CHAR_TABLES)
    return {CHARS.elements[i]: word for i, word in got.items()}


def test_orbit_of_trivial():
    assert orbit_of(TABLE.chi[0]) == {TABLE.chi[0]: ()}


def test_orbit_of_chi1():
    got = list(orbit_of(TABLE.chi[1]))
    assert set(got) == set(TABLE.chi[1:])
    assert len(got) == 3


def test_orbit_of_psi1():
    got = orbit_of(TABLE.psi[0])
    assert set(got) == set(TABLE.psi)
    # each witness word, applied left to right with act, reproduces its character
    for c, word in got.items():
        image = TABLE.psi[0]
        for gi in word:
            image = act(GENS[gi], image)
        assert image == c


def test_orbits_all_sizes():
    part = orbits_all(characters2_set(TABLE), GENS, act)
    assert part.sizes() == [1, 3, 12]


def test_orbits_all_no_generators():
    part = orbits_all(characters2_set(TABLE), [], act)
    assert part.sizes() == [1] * 16


def test_pairs48_single_orbit():
    part = orbits_all(pair_set(TABLE, TABLE.chi[1:]), GENS, act_pair)
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


@pytest.mark.parametrize("name,order,sizes,transitive", [
    ("characters2", 576, (1, 3, 12), False),
    ("psi12", 576, (12,), True),
    ("pairs48", 4608, (48,), True),
    ("torsion64", 4608, (1, 3, 12, 48), False),
])
def test_closure_of_standard_sets(name, order, sizes, transitive):
    lset, perms, _ = standard_set(name)
    degree = len(lset.elements)
    report = group_closure(perms, degree)
    assert report == (order, False, transitive, sizes)
    if degree <= 16:
        assert len(_reference_group(perms, degree)) == order


def test_closure_of_a_256_cycle():
    cycle = Permutation(tuple(range(1, 256)) + (0,))
    report = group_closure([cycle], 256)
    assert report == (256, False, True, (256,))


def _symmetric_group_generators(degree):
    transposition = Permutation((1, 0) + tuple(range(2, degree)))
    cycle = Permutation(tuple(range(1, degree)) + (0,))
    return [transposition, cycle]


@pytest.mark.parametrize("degree", [12, 256])
def test_closure_of_a_symmetric_group_stops_past_the_cap(degree):
    # S_12 has 479001600 elements and S_256 far more: the search must stop at
    # the first coset past the cap, not finish a subgroup step or the group
    report = group_closure(_symmetric_group_generators(degree), degree, cap=1000)
    assert report == (1001, True, True, (degree,))


@pytest.mark.parametrize("cap,order,truncated", [
    (575, 576, True), (576, 576, False), (577, 576, False)])
def test_closure_cap_at_the_order_of_psi12(cap, order, truncated):
    _, perms, _ = standard_set("psi12")
    report = group_closure(perms, 12, cap=cap)
    assert (report.order, report.truncated) == (order, truncated)


def test_closure_of_s8_past_the_cap():
    # S_8 has 40320 elements; the last subgroup step passes the cap mid-way
    report = group_closure(_symmetric_group_generators(8), 8, cap=5000)
    assert report == (5001, True, True, (8,))


@pytest.mark.parametrize("cap", [0, -1])
def test_closure_cap_below_one_reports_two(cap):
    # the identity is never counted against the cap, so the first element
    # past it makes two
    _, perms, _ = standard_set("psi12")
    report = group_closure(perms, 12, cap=cap)
    assert (report.order, report.truncated) == (2, True)


def test_closure_above_256_points_names_the_limit():
    # elements are byte strings, so an image must fit in one byte
    with pytest.raises(ValueError, match="degree 257 exceeds the 256 points"):
        group_closure([Permutation.identity(257)], 257)


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


@settings(deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.permutations(range(n)), min_size=2, max_size=4))),
       st.integers(1, 6000), st.data())
def test_closure_ignores_generator_order_and_redundant_generators(
        degree_and_images, cap, data):
    # reordering the generators or adding elements the group already holds
    # must not change the report; an element appended last takes the skip path
    degree, images = degree_and_images
    perms = [Permutation(tuple(p)) for p in images]
    group = _reference_group(perms, degree)
    want = (min(len(group), cap + 1), len(group) > cap)
    a, b = data.draw(st.lists(st.sampled_from(perms), min_size=2, max_size=2))
    variants = [
        data.draw(st.permutations(perms)),
        perms + [Permutation.identity(degree)],
        [Permutation.identity(degree)] + perms,
        perms + [data.draw(st.sampled_from(perms))],
        perms + [a.compose(b)],
        [a.compose(b)] + perms,
    ]
    base = group_closure(perms, degree, cap=cap)
    assert (base.order, base.truncated) == want
    for variant in variants:
        assert group_closure(variant, degree, cap=cap) == base


@settings(deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.permutations(range(n)).map(tuple), max_size=6))),
       st.data())
def test_orbit_matches_reference_on_points(degree_and_tables, data):
    # table[point] against the generator-first lookup of the reference: same
    # words, same insertion order
    degree, tables = degree_and_tables
    seed = data.draw(st.integers(0, degree - 1))
    want, _ = orbit_reference.orbit(seed, tables, lambda table, point: table[point])
    assert list(orbit(seed, tables).items()) == list(want.items())


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


def test_psi12_closure_is_built_once_and_matches_a_fresh_closure():
    orbits.psi12_closure.cache_clear()
    closure, cycles = orbits.psi12_closure()
    lset, perms, _ = standard_set("psi12")
    assert closure == group_closure(perms, len(lset.elements)) == (576, False, True, (12,))
    assert cycles == tuple(p.cycle_string(lset.labels) for p in perms)
    assert orbits.psi12_closure() is orbits.psi12_closure()
    assert orbits.psi12_closure.cache_info().misses == 1


@given(st.sampled_from(["characters2", "psi12", "pairs48", "torsion64"]), st.data())
def test_tables_replay_the_action(name, data):
    lset, perms, _ = standard_set(name)
    action = act if name in ("characters2", "psi12") else act_pair
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
    classifier.torsion_orbits.cache_clear()
    assert cli.main(["moduli"]) == 0
    assert calls["act"] > 0 and calls["act_pair"] > 0
    before = dict(calls)
    assert cli.main(["moduli"]) == 0
    assert calls == before


def test_labeled_set_rejects_duplicates():
    c = Character(2, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        LabeledSet((c, c), ("a", "b"))


def test_labeled_set_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="elements and labels must have equal length"):
        LabeledSet((Character(2, (0, 0, 0, 0)),), ("a", "b"))


def test_compose_rejects_a_degree_mismatch():
    # either order: the shorter side would raise IndexError, the longer one
    # would slice to a valid permutation of the wrong degree
    small, large = Permutation((1, 0)), Permutation((1, 0, 2))
    for p, q in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="degree mismatch"):
            p.compose(q)
