"""Chern-class and Riemann-Roch arithmetic on the abelian surface and its blow-up.

Conventions: the Neron-Severi group of the abelian surface A is generated by
the polarization class L with L^2 = 4, so a first Chern class is an integer
multiple a*L and its self-intersection is 4*a^2.  Degree-0 twists carry no
Chern data.  On the blow-up B of A at one point, classes are a*L + b*E with
E the exceptional curve (E^2 = -1, K_B = E, chi(O_B) = 0).  The Riemann-Roch
and adjunction numerators 4a^2 - 2c2, 4a^2 - b(b - 1) and 4a^2 - b(b + 1) are
even for all integers, so every halving below is exact.

Euler characteristics are exact integers throughout; h-vectors that plain
Riemann-Roch cannot see (the torsion-membership splits) are stored as data in
the dimension ledger, which lists each object once with its chi and the
h-vector of each of its conditions, and verified against that chi.
"""

from __future__ import annotations

from typing import NamedTuple

from paramod.errors import ConsistencyError, InputError

L_SELF_INTERSECTION = 4


class _ChernDatumFields(NamedTuple):
    rank: int
    c1: int
    c2: int


class ChernDatum(_ChernDatumFields):
    """(rank, c1 = a*L, c2) of a sheaf on the abelian surface."""

    __slots__ = ()

    def __new__(cls, rank: int, c1: int, c2: int) -> "ChernDatum":
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        return super().__new__(cls, rank, c1, c2)


class BlowupLineBundle(NamedTuple):
    """Class a*L + b*E on the blow-up of the abelian surface at one point."""

    a: int
    b: int


def chi_abelian(v: ChernDatum) -> int:
    """chi by Riemann-Roch on the abelian surface: (c1^2 - 2c2)/2."""
    c1_sq = L_SELF_INTERSECTION * v.c1 * v.c1
    return (c1_sq - 2 * v.c2) // 2


def dual(v: ChernDatum) -> ChernDatum:
    return ChernDatum(v.rank, -v.c1, v.c2)


def tensor_line(v: ChernDatum, m: int) -> ChernDatum:
    """Twist by a line bundle of class m*L (m = 0 covers degree-0 twists)."""
    r = v.rank
    c1 = v.c1 + r * m
    c2 = (
        v.c2
        + (r - 1) * L_SELF_INTERSECTION * v.c1 * m
        + (r * (r - 1) // 2) * L_SELF_INTERSECTION * m * m
    )
    return ChernDatum(r, c1, c2)


def sym2(v: ChernDatum) -> ChernDatum:
    """Second symmetric power of a rank-2 bundle (roots 2x, x+y, 2y)."""
    if v.rank != 2:
        raise ValueError("sym2 requires rank 2")
    c1_sq = L_SELF_INTERSECTION * v.c1 * v.c1
    return ChernDatum(3, 3 * v.c1, 2 * c1_sq + 4 * v.c2)


def sym3(v: ChernDatum) -> ChernDatum:
    """Third symmetric power of a rank-2 bundle (roots 3x, 2x+y, x+2y, 3y)."""
    if v.rank != 2:
        raise ValueError("sym3 requires rank 2")
    c1_sq = L_SELF_INTERSECTION * v.c1 * v.c1
    return ChernDatum(4, 6 * v.c1, 11 * c1_sq + 10 * v.c2)


def ideal_point_chi_correction(k: int) -> int:
    """chi drop from twisting by the k-th power of a point's ideal sheaf."""
    if k < 0:
        raise ValueError("ideal power must be >= 0")
    return -(k * (k + 1) // 2)


def _chi_ideal(a: int, k: int) -> int:
    """chi(aL (x) I_p^k): a line bundle of class a*L times a point's ideal power."""
    return chi_abelian(ChernDatum(1, a, 0)) + ideal_point_chi_correction(k)


def ext_bundle() -> ChernDatum:
    """The rank-2 bundle extending L twisted by the origin's ideal by O_A."""
    return ChernDatum(2, 1, 1)


def sym2_adjoint() -> ChernDatum:
    """S^2 of the extension bundle, twisted down by its determinant."""
    return tensor_line(sym2(ext_bundle()), -1)


def sym3_adjoint() -> ChernDatum:
    """S^3 of the extension bundle, twisted down by its determinant."""
    return tensor_line(sym3(ext_bundle()), -1)


BLOWUP_CANONICAL = BlowupLineBundle(0, 1)


def blowup_intersection(x: BlowupLineBundle, y: BlowupLineBundle) -> int:
    """Intersection number on the blow-up: (a1*L + b1*E).(a2*L + b2*E)."""
    return L_SELF_INTERSECTION * x.a * y.a - x.b * y.b


def chi_blowup_line(bl: BlowupLineBundle) -> int:
    """chi(D) = (D^2 - D.K)/2 on the blow-up, where K = E and chi(O) = 0."""
    return (blowup_intersection(bl, bl) - blowup_intersection(bl, BLOWUP_CANONICAL)) // 2


def genus_blowup_divisor(bl: BlowupLineBundle) -> int:
    """Adjunction genus 1 + (D^2 + D.K)/2 of a smooth curve in the class."""
    return 1 + (blowup_intersection(bl, bl) + blowup_intersection(bl, BLOWUP_CANONICAL)) // 2


def curve_rr(g: int, deg: int) -> int:
    """chi of a degree-deg line bundle on a genus-g curve."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    return deg + 1 - g


def _checked_row(obj, condition, kind, h, chi) -> dict:
    # a curve has no h2; an entry left open (None) skips the check
    entries = h[:2] if kind == "curve" else h
    if None not in entries and sum(entries[::2]) - sum(entries[1::2]) != chi:
        raise ConsistencyError(f"{obj} [{condition}]: h-vector {h} does not sum to chi={chi}")
    return {"object": obj, "condition": condition, "kind": kind,
            "h0": h[0], "h1": h[1], "h2": h[2], "chi": chi}


def dimension_ledger() -> list[dict]:
    """Every cohomology dimension vector the classification relies on.

    Each row is one (object, condition) with its stated h-vector (h0, h1, h2)
    and the recomputed chi.  kind is 'surface' or 'curve'; a curve row has no
    h2 (None).  Entries that the ledger's sources leave open are None and
    excluded from the alternating-sum check.

    Each object's chi is recomputed once from the calculators in this module
    (plus short-exact-sequence replays for the blow-up tangent rows) and
    checked against the stated h-vector of each of its conditions; a mismatch
    is a hard ConsistencyError.
    """
    chi_lb_inv = chi_blowup_line(BlowupLineBundle(-1, 2))
    # tangent of the blow-up: 0 -> T_B -> pullback T_A -> O_E(-E) -> 0
    chi_tb = chi_abelian(ChernDatum(2, 0, 0)) - curve_rr(0, 1)
    # the same sequence twisted by the inverse cover root; the quotient
    # becomes O_E(E) (degree -1 on the exceptional line)
    chi_tb_twist = 2 * chi_lb_inv - curve_rr(0, -1)
    # (object, kind, chi, ((condition, h-vector), ...))
    ledger = (
        ("ext_bundle", "surface", chi_abelian(ext_bundle()),
         (("any", (1, 0, 0)),)),
        ("sym2_adjoint (x) torsion", "surface", chi_abelian(sym2_adjoint()),
         (("torsion not in image^x", (0, 0, 0)),
          ("torsion in image^x", (1, 2, 1)))),
        ("sym3_adjoint (x) torsion", "surface", chi_abelian(sym3_adjoint()),
         (("any torsion twist", (2, 0, 0)),)),
        ("L (x) torsion (x) I_p^2, p a base point", "surface", _chi_ideal(1, 2),
         (("twist ratio not in image^x", (0, None, None)),
          ("twist ratio in image^x", (1, None, None)))),
        ("L^2 (x) torsion (x) I_o^3", "surface", _chi_ideal(2, 3),
         (("torsion not in image^x", (2, None, None)),
          ("torsion in image^x", (3, None, None)))),
        ("L^2 (x) torsion (x) I_o^4", "surface", _chi_ideal(2, 4),
         (("torsion trivial", (2, None, None)),
          ("torsion in image^x", (1, None, None)),
          ("torsion outside image", (0, None, None)))),
        ("inverse cover root on blow-up", "surface", chi_lb_inv,
         (("nontrivial square root", (0, 0, 1)),)),
        ("blow-up tangent", "surface", chi_tb,
         (("any", (0, 4, 2)),)),
        ("blow-up tangent (x) inverse root", "surface", chi_tb_twist,
         (("nontrivial square root", (0, 0, 2)),)),
        ("cover pullback of blow-up tangent", "surface", chi_tb + chi_tb_twist,
         (("finite double cover", (0, 4, 4)),)),
        ("degree-0 torsion on a genus-3 pencil member", "curve", curve_rr(3, 0),
         (("torsion outside image", (0, 2, None)),
          ("torsion in image", (1, 3, None)))),
    )
    return [_checked_row(obj, condition, kind, h, chi)
            for obj, kind, chi, cases in ledger for condition, h in cases]


def eagon_northcott_checks() -> list[dict]:
    """chi additivity across the two symmetric-power exact sequences."""
    chi_s2 = chi_abelian(sym2_adjoint())
    checks = []
    for sequence, sub, quot, total in (
        ("dual ext_bundle -> sym2_adjoint (x) torsion -> L (x) torsion^3 (x) I_p^2",
         chi_abelian(dual(ext_bundle())), _chi_ideal(1, 2), chi_s2),
        ("sym2_adjoint -> sym3_adjoint -> L^2 (x) torsion (x) I_o^3",
         chi_s2, _chi_ideal(2, 3), chi_abelian(sym3_adjoint())),
    ):
        check = {"sequence": sequence, "chi_sub": sub, "chi_quot": quot,
                 "chi_total": total, "ok": sub + quot == total}
        if not check["ok"]:
            raise ConsistencyError(f"chi additivity failed: {check}")
        checks.append(check)
    return checks
