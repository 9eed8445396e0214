"""Acceptance gate: every headline number, exact, one criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to get a pass line per
criterion.  All comparisons are exact integer / exact string equality; there
are no tolerances anywhere.
"""

import random
from fractions import Fraction

from paramod.chern import (
    BlowupLineBundle,
    chi_abelian,
    chi_blowup_line,
    eagon_northcott_checks,
    ext_bundle,
    genus_blowup_divisor,
    sym2_adjoint,
    sym3_adjoint,
)
from paramod.classifier import SurfaceType, all_valid_pairs, surface_report
from paramod.doublecover import forest, invariants
from paramod.lattice import character_table, make_lattice
from paramod.orbits import (
    characters2_set,
    group_closure,
    orbits_all,
    pairs48_set,
    permutation_of,
    psi_set,
)
from paramod.paramodular import (
    act,
    act_pair,
    gen_J,
    gen_b,
    gen_d,
    identity,
    is_member,
    mat,
    mat_mul,
    member,
    special_generators,
    transpose,
)

TABLE = character_table(make_lattice(2))
GEN_LIST = special_generators()
GENS = [g for _, g in GEN_LIST]


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_orbit_decomposition():
    part = orbits_all(characters2_set(TABLE), GENS, act)
    assert part.sizes() == [1, 3, 12]
    _report(1, "orbit sizes on the 16 order-2 characters are exactly {1, 3, 12}")


def test_criterion_02_permutation_goldens():
    expected = {
        "b(1,0,0)": "(psi2 psi8)(psi5 psi11)(psi6 psi12)",
        "b(0,1,0)": "(psi1 psi7)(psi2 psi8)(psi4 psi10)(psi6 psi12)",
        "b(0,0,1)": "(psi1 psi4)(psi2 psi6)(psi7 psi10)(psi8 psi12)",
        "d(1,0,1,1)": "(psi3 psi9)(psi4 psi10)(psi5 psi11)(psi6 psi12)",
        "d(1,1,0,1)": "(psi1 psi2)(psi4 psi6)(psi7 psi8)(psi10 psi12)",
        "J": "(psi1 psi3)(psi2 psi9)(psi5 psi7)(psi6 psi10)(psi8 psi11)",
    }
    pset = psi_set(TABLE)
    for name, m in GEN_LIST:
        assert permutation_of(m, pset).cycle_string(pset.labels) == expected[name]
    _report(2, "all six cycle decompositions reproduced verbatim")


def test_criterion_03_transitivity():
    pset = psi_set(TABLE)
    perms = [permutation_of(m, pset) for m in GENS]
    report = group_closure(perms, 12)
    assert report.transitive
    assert not report.truncated
    _report(3, "the induced permutation group on 12 letters is transitive")


def test_criterion_04_pair_orbit():
    part = orbits_all(pairs48_set(TABLE), GENS, act_pair)
    assert part.sizes() == [48], (
        f"pair orbit sizes {part.sizes()}: the six standard generators no "
        "longer act transitively on the 48 pairs and the generator family "
        "must be augmented with further membership-passing matrices"
    )
    _report(4, "the (image character, order-4 root) pairs form one orbit of size 48")


def mul(a, b):
    """Group product: the member whose matrix is a's times b's."""
    return member(mat_mul(a.entries, b.entries))


def _random_member(rng):
    m = member(identity())
    for _ in range(rng.randint(0, 3)):
        m = mul(m, rng.choice(GENS))
    m = mul(m, gen_b(rng.randrange(4), rng.randrange(4), rng.randrange(4)))
    m = mul(m, gen_d(1, rng.randrange(3), 0, 1))
    return m


_STANDARD_J = mat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def _violates_standard_form(entries):
    return mat_mul(mat_mul(entries, _STANDARD_J), transpose(entries)) != _STANDARD_J


# entries the d=2 pattern restricts to 2Z, plus the lone half-integer cell
_EVEN_CELLS = [(0, 3), (1, 0), (1, 2), (1, 3), (2, 3)]
_PATTERN = [[1, 1, 1, 2], [2, 1, 2, 2], [1, 1, 1, 2], [1, Fraction(1, 2), 1, 1]]


def test_criterion_05_membership():
    for args in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (5, -2, 7)]:
        assert is_member(gen_b(*args).entries).ok
    for args in [(1, 0, 1, 1), (1, 1, 0, 1), (3, 1, 1, 1)]:
        assert is_member(gen_d(*args).entries).ok
    assert is_member(gen_J().entries).ok

    rng = random.Random(2024)
    pattern_fails = form_fails = 0
    while pattern_fails < 50:
        rows = [list(r) for r in _random_member(rng).entries]
        if rng.random() < 0.5:
            i, j = rng.choice(_EVEN_CELLS)
            rows[i][j] += rng.choice((1, -1, 3))
        else:
            i, j = rng.randrange(4), rng.randrange(4)
            rows[i][j] += Fraction(rng.choice((1, 2)), 3)
        cert = is_member(rows)
        assert not cert.ok
        assert not cert.pattern_ok
        assert cert.first_violation is not None
        pattern_fails += 1
    while form_fails < 50:
        rows = [list(r) for r in _random_member(rng).entries]
        i, j = rng.randrange(4), rng.randrange(4)
        rows[i][j] += _PATTERN[i][j] * rng.choice((2, 4, -2))
        if not _violates_standard_form(mat(rows)):
            continue  # the corruption happened to stay symplectic; resample
        cert = is_member(rows)
        assert not cert.ok
        assert cert.pattern_ok
        assert cert.n_integral
        assert not cert.symplectic_ok
        assert cert.first_violation is not None
        form_fails += 1
    _report(5, "generators pass; 100 corrupted matrices rejected with correct flags")


def test_criterion_06_chi_ledger():
    assert chi_abelian(ext_bundle()) == 1
    assert chi_abelian(sym2_adjoint()) == 0
    assert chi_abelian(sym3_adjoint()) == 2
    assert chi_blowup_line(BlowupLineBundle(-1, 2)) == 1
    assert chi_blowup_line(BlowupLineBundle(2, -4)) == -2
    assert genus_blowup_divisor(BlowupLineBundle(2, -4)) == 3
    _report(6, "chi values 1 / 0 / 2 / 1 / -2 and pencil genus 3, all exact")


def test_criterion_07_eagon_northcott():
    checks = eagon_northcott_checks()
    assert (checks[0]["chi_sub"], checks[0]["chi_quot"], checks[0]["chi_total"]) \
        == (1, -1, 0)
    assert (checks[1]["chi_sub"], checks[1]["chi_quot"], checks[1]["chi_total"]) \
        == (0, 2, 2)
    _report(7, "chi additivity holds exactly: 1 + (-1) = 0 and 0 + 2 = 2")


def test_criterion_08_double_cover_invariants():
    inv = invariants(4, forest([("p", 4)]))
    assert (inv.chi, inv.K2_resolved) == (1, 6)

    flat = invariants(4, forest([("a", 2), ("b", 2)]))
    assert (flat.chi, flat.K2_resolved) == (2, 8)
    assert flat.minimality_note != ""

    with_33 = invariants(4, forest([("x", 2), ("y", 4, "x")]))
    assert with_33.has_33_pair
    assert "K^2 = 7" in with_33.minimality_note
    _report(8, "resolution invariants (1,6), (2,8)+note, and the K^2 = 7 note")


def test_criterion_09_classification_table():
    counts = {}
    for _, root, t in all_valid_pairs():
        if root.is_trivial():
            continue
        counts[t] = counts.get(t, 0) + 1
    assert counts == {SurfaceType.Ia: 12, SurfaceType.Ib: 3, SurfaceType.II: 48}

    expected = {SurfaceType.Ia: (5, 4, 4), SurfaceType.Ib: (3, 4, 4),
                SurfaceType.II: (5, 3, 3)}
    for t, (genus, h1, dim) in expected.items():
        rep = surface_report(t)
        assert (rep["pg"], rep["q"], rep["K2"]) == (2, 2, 6)
        assert rep["pencil_genus"] == genus
        assert rep["h1_TS"] == h1
        assert rep["moduli"]["dimension"] == dim
    _report(9, "three types with counts 12/3/48, genera 5/3/5, h1 4/4/3, dims 4/4/3")


def test_criterion_10_orbit_invariance_of_classification():
    from paramod.classifier import classify
    violations = []
    for q, root, t in all_valid_pairs():
        for name, m in GEN_LIST:
            got = classify(act(m, q), act(m, root))
            if got is not t:
                violations.append((name, q.exponents, root.exponents, t, got))
    assert violations == []
    _report(10, "classify is constant along all 6 generators over all 64 pairs")


_GOLDEN_COMMANDS = [
    ["orbits", "--set", "characters2"],
    ["orbits", "--set", "psi12", "--closure"],
    ["orbits", "--set", "pairs48"],
    ["membership", "--matrix", "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"],
    ["act", "--gen", "J", "--char", "psi1"],
    ["classify", "--Q", "chi1", "--root", "0,0,1,0"],
    ["chern", "--bundle", "2,1,1"],
    ["chern", "--blowup", "2,-4"],
    ["moduli"],
    ["ledger"],
    ["--format", "text", "orbits", "--set", "characters2"],
]


def test_criterion_11_cli_determinism(matches_stored_stdout):
    commands = _GOLDEN_COMMANDS + [["invariants", "--forest", "tests/golden/forest_p4.json"]]
    for argv in commands:
        matches_stored_stdout(argv)
    _report(11, "every golden CLI command reproduces its stored stdout byte for byte")
