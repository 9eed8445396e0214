import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from paramod import chern, cli
from paramod.chern import (
    BlowupLineBundle,
    ChernDatum,
    chi_abelian,
    chi_blowup_line,
    curve_rr,
    dimension_ledger,
    dual,
    eagon_northcott_checks,
    ext_bundle,
    genus_blowup_divisor,
    ideal_point_chi_correction,
    sym2,
    sym2_adjoint,
    sym3,
    sym3_adjoint,
    tensor_line,
)
from paramod.errors import ConsistencyError


def test_chi_abelian_ext_bundle():
    assert chi_abelian(ext_bundle()) == 1


def test_chi_abelian_trivial():
    assert chi_abelian(ChernDatum(1, 0, 0)) == 0


def test_chi_abelian_square_of_polarization():
    assert chi_abelian(ChernDatum(1, 2, 0)) == 8


def test_chi_sym2_adjoint():
    assert chi_abelian(sym2_adjoint()) == 0


def test_chi_sym3_adjoint():
    assert chi_abelian(sym3_adjoint()) == 2


def test_adjoints_are_twisted_down_by_the_determinant():
    # det of the extension bundle is L, so S^k E (c1 = k(k+1)/2 L) twisted by
    # L^-1 has c1 = k(k+1)/2 - (k+1); chi alone cannot tell the twist by L^-1
    # from the one by L^-2, which is its dual
    assert (sym2_adjoint().rank, sym2_adjoint().c1) == (3, 0)
    assert (sym3_adjoint().rank, sym3_adjoint().c1) == (4, 2)


def test_dual_involution():
    v = ChernDatum(2, 3, -5)
    assert dual(dual(v)) == v
    assert dual(v).c1 == -3


def test_tensor_line():
    v = ChernDatum(2, 1, 1)
    assert tensor_line(v, 0) == v
    tw = tensor_line(v, 2)
    assert tw.rank == 2 and tw.c1 == 5


def test_sym_rank_precondition():
    with pytest.raises(ValueError):
        sym2(ChernDatum(3, 1, 0))
    with pytest.raises(ValueError):
        sym3(ChernDatum(1, 1, 0))


def test_rank_precondition():
    with pytest.raises(ValueError):
        ChernDatum(0, 0, 0)


def split_bundle(alpha, beta):
    """Split rank-2 bundle with line-bundle roots alpha*L and beta*L."""
    return ChernDatum(2, alpha + beta, 4 * alpha * beta)


def chern_of_roots(roots):
    """(rank, e1, e2 * L^2) for a split bundle with the given L-multiples."""
    e1 = sum(roots)
    e2 = sum(a * b for a, b in combinations(roots, 2))
    return ChernDatum(len(roots), e1, 4 * e2)


@pytest.mark.parametrize("alpha,beta", list(product(range(-2, 3), repeat=2)))
def test_sym2_splitting_oracle(alpha, beta):
    # identities are degree-2 polynomials in (alpha, beta), so this grid is
    # large enough to establish them for all Chern data
    got = sym2(split_bundle(alpha, beta))
    want = chern_of_roots([2 * alpha, alpha + beta, 2 * beta])
    assert got == want


@pytest.mark.parametrize("alpha,beta", list(product(range(-2, 3), repeat=2)))
def test_sym3_splitting_oracle(alpha, beta):
    got = sym3(split_bundle(alpha, beta))
    want = chern_of_roots([3 * alpha, 2 * alpha + beta, alpha + 2 * beta, 3 * beta])
    assert got == want


def test_splitting_oracle_random_points():
    rng = random.Random(5)
    for _ in range(10):
        alpha, beta = rng.randint(-9, 9), rng.randint(-9, 9)
        assert sym2(split_bundle(alpha, beta)) == chern_of_roots(
            [2 * alpha, alpha + beta, 2 * beta])
        assert sym3(split_bundle(alpha, beta)) == chern_of_roots(
            [3 * alpha, 2 * alpha + beta, alpha + 2 * beta, 3 * beta])


@pytest.mark.parametrize("alpha,beta,m", [(a, b, m) for a in (-1, 0, 2)
                                          for b in (-2, 1) for m in (-1, 0, 1, 3)])
def test_tensor_line_splitting_oracle(alpha, beta, m):
    got = tensor_line(split_bundle(alpha, beta), m)
    want = chern_of_roots([alpha + m, beta + m])
    assert got == want


def test_blowup_intersection_form():
    from paramod.chern import blowup_intersection
    l = BlowupLineBundle(1, 0)
    e = BlowupLineBundle(0, 1)
    assert blowup_intersection(l, l) == 4
    assert blowup_intersection(e, e) == -1
    assert blowup_intersection(l, e) == 0
    pencil = BlowupLineBundle(2, -4)
    assert blowup_intersection(pencil, pencil) == 0
    assert blowup_intersection(pencil, e) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99))
def test_riemann_roch_and_adjunction_halve_exactly(rank, a, c2, b):
    # L^2 = 4 is even, so each numerator is even and the halving loses nothing
    assert 2 * chi_abelian(ChernDatum(rank, a, c2)) == 4 * a * a - 2 * c2
    bl = BlowupLineBundle(a, b)
    d_sq, d_k = 4 * a * a - b * b, -b
    assert 2 * chi_blowup_line(bl) == d_sq - d_k
    assert 2 * (genus_blowup_divisor(bl) - 1) == d_sq + d_k


def test_chi_blowup_inverse_root():
    assert chi_blowup_line(BlowupLineBundle(-1, 2)) == 1


def test_chi_blowup_trivial():
    assert chi_blowup_line(BlowupLineBundle(0, 0)) == 0


def test_chi_blowup_pencil_class():
    assert chi_blowup_line(BlowupLineBundle(2, -4)) == -2


def test_genus_pencil_class():
    assert genus_blowup_divisor(BlowupLineBundle(2, -4)) == 3


def test_genus_polarization_pullback():
    assert genus_blowup_divisor(BlowupLineBundle(1, 0)) == 3


def test_genus_exceptional_curve():
    assert genus_blowup_divisor(BlowupLineBundle(0, 1)) == 0


def test_curve_rr():
    assert curve_rr(3, 0) == -2
    assert curve_rr(0, 0) == 1
    assert curve_rr(3, 4) == 2
    with pytest.raises(ValueError):
        curve_rr(-1, 0)


def test_ideal_corrections():
    assert ideal_point_chi_correction(2) == -3
    assert ideal_point_chi_correction(3) == -6
    assert ideal_point_chi_correction(4) == -10
    assert ideal_point_chi_correction(0) == 0
    with pytest.raises(ValueError, match="ideal power must be >= 0"):
        ideal_point_chi_correction(-1)


def test_eagon_northcott_first_sequence():
    f = ext_bundle()
    chi_sub = chi_abelian(dual(f))
    chi_quot = chi_abelian(ChernDatum(1, 1, 0)) + ideal_point_chi_correction(2)
    assert (chi_sub, chi_quot) == (1, -1)
    assert chi_sub + chi_quot == chi_abelian(sym2_adjoint()) == 0


def test_eagon_northcott_second_sequence():
    chi_sub = chi_abelian(sym2_adjoint())
    chi_quot = chi_abelian(ChernDatum(1, 2, 0)) + ideal_point_chi_correction(3)
    assert (chi_sub, chi_quot) == (0, 2)
    assert chi_sub + chi_quot == chi_abelian(sym3_adjoint()) == 2


def test_eagon_northcott_checks_pass():
    checks = eagon_northcott_checks()
    assert all(c["ok"] for c in checks)
    assert len(checks) == 2


def test_ledger_runs_clean():
    rows = dimension_ledger()
    assert len(rows) >= 14


def test_ledger_alternating_sums():
    for r in dimension_ledger():
        if r["kind"] == "surface" and None not in (r["h0"], r["h1"], r["h2"]):
            assert r["h0"] - r["h1"] + r["h2"] == r["chi"]
        if r["kind"] == "curve" and None not in (r["h0"], r["h1"]):
            assert r["h0"] - r["h1"] == r["chi"]


def _row(rows, obj, condition):
    matches = [r for r in rows if r["object"] == obj and r["condition"] == condition]
    assert len(matches) == 1, f"no unique row for {obj} [{condition}]"
    return matches[0]


def test_ledger_key_rows():
    rows = dimension_ledger()
    r = _row(rows, "ext_bundle", "any")
    assert (r["h0"], r["h1"], r["h2"], r["chi"]) == (1, 0, 0, 1)
    r = _row(rows, "sym2_adjoint (x) torsion", "torsion in image^x")
    assert (r["h0"], r["h1"], r["h2"], r["chi"]) == (1, 2, 1, 0)
    r = _row(rows, "sym3_adjoint (x) torsion", "any torsion twist")
    assert (r["h0"], r["h1"], r["h2"], r["chi"]) == (2, 0, 0, 2)


def test_ledger_quadruple_point_system():
    rows = dimension_ledger()
    assert _row(rows, "L^2 (x) torsion (x) I_o^4", "torsion trivial")["h0"] == 2
    assert _row(rows, "L^2 (x) torsion (x) I_o^4", "torsion in image^x")["h0"] == 1
    assert _row(rows, "L^2 (x) torsion (x) I_o^4", "torsion outside image")["h0"] == 0


def test_ledger_blowup_tangent_chain():
    rows = dimension_ledger()
    tb = _row(rows, "blow-up tangent", "any")
    assert (tb["h0"], tb["h1"], tb["h2"], tb["chi"]) == (0, 4, 2, -2)
    twist = _row(rows, "blow-up tangent (x) inverse root", "nontrivial square root")
    assert (twist["h0"], twist["h1"], twist["h2"], twist["chi"]) == (0, 0, 2, 2)
    pullback = _row(rows, "cover pullback of blow-up tangent", "finite double cover")
    assert (pullback["h0"], pullback["h1"], pullback["h2"]) == (0, 4, 4)
    assert pullback["chi"] == tb["chi"] + twist["chi"] == 0


def test_ledger_curve_rows():
    rows = dimension_ledger()
    r = _row(rows, "degree-0 torsion on a genus-3 pencil member", "torsion in image")
    assert (r["h0"], r["h1"], r["chi"]) == (1, 3, -2)


def test_checked_row_raises_on_mismatch():
    from paramod.chern import _checked_row
    with pytest.raises(ConsistencyError):
        _checked_row("bogus", "any", "surface", (1, 0, 0), 7)


def test_checked_row_curve_sums_h0_and_h1_only():
    from paramod.chern import _checked_row
    with pytest.raises(ConsistencyError, match=r"bogus \[any\]: h-vector \(0, 3, None\)"):
        _checked_row("bogus", "any", "curve", (0, 3, None), -2)
    # a curve's h2 slot is not part of its alternating sum
    assert _checked_row("bogus", "any", "curve", (1, 3, 5), -2)["chi"] == -2
    with pytest.raises(ConsistencyError):
        _checked_row("bogus", "any", "surface", (1, 3, 5), -2)


def test_additivity_failure_raises_and_ledger_exits_1(monkeypatch, capsys):
    # a wrong ideal-power correction leaves every fully stated ledger row intact
    # (the I_p^k rows leave h1 and h2 open) but breaks both additivity sequences
    monkeypatch.setattr(chern, "ideal_point_chi_correction", lambda k: 0)
    dimension_ledger()
    with pytest.raises(ConsistencyError, match="chi additivity failed"):
        eagon_northcott_checks()
    assert cli.main(["ledger"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal cross-check failure: chi additivity failed" in err
