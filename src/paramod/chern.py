"""Chern-class and Riemann-Roch arithmetic on the abelian surface and its blow-up.

Conventions: the Neron-Severi group of the abelian surface A is generated by
the polarization class L with L^2 = 4, so a first Chern class is an integer
multiple a*L and its self-intersection is 4*a^2.  Degree-0 twists carry no
Chern data.  On the blow-up B of A at one point, classes are a*L + b*E with
E the exceptional curve (E^2 = -1, K_B = E, chi(O_B) = 0).

Euler characteristics are exact integers throughout; h-vectors that plain
Riemann-Roch cannot see (the torsion-membership splits) are stored as data in
the dimension ledger and verified against chi.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from paramod.errors import ConsistencyError

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
            raise ValueError(f"rank must be >= 1, got {rank}")
        return super().__new__(cls, rank, c1, c2)


class BlowupLineBundle(NamedTuple):
    """Class a*L + b*E on the blow-up of the abelian surface at one point."""

    a: int
    b: int


def chi_abelian(v: ChernDatum) -> int:
    """chi by Riemann-Roch on the abelian surface: (c1^2 - 2c2)/2."""
    c1_sq = L_SELF_INTERSECTION * v.c1 * v.c1
    num = c1_sq - 2 * v.c2
    if num % 2:
        raise ConsistencyError(f"odd Riemann-Roch numerator {num}")
    return num // 2


def dual(v: ChernDatum) -> ChernDatum:
    return ChernDatum(v.rank, -v.c1, v.c2)


def det(v: ChernDatum) -> ChernDatum:
    return ChernDatum(1, v.c1, 0)


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
    return 4 * x.a * y.a - x.b * y.b


def chi_blowup_line(bl: BlowupLineBundle) -> int:
    """chi(D) = (D^2 - D.K)/2 on the blow-up, where K = E and chi(O) = 0."""
    num = blowup_intersection(bl, bl) - blowup_intersection(bl, BLOWUP_CANONICAL)
    if num % 2:
        raise ConsistencyError(f"odd Riemann-Roch numerator {num}")
    return num // 2


def genus_blowup_divisor(bl: BlowupLineBundle) -> int:
    """Adjunction genus 1 + (D^2 + D.K)/2 of a smooth curve in the class."""
    num = blowup_intersection(bl, bl) + blowup_intersection(bl, BLOWUP_CANONICAL)
    if num % 2:
        raise ConsistencyError(f"odd adjunction numerator {num}")
    return 1 + num // 2


def curve_rr(g: int, deg: int) -> int:
    """chi of a degree-deg line bundle on a genus-g curve."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    return deg + 1 - g


class LedgerRow(NamedTuple):
    """One cohomology record: stated h-vector plus the recomputed chi.

    kind is 'surface' (h0, h1, h2) or 'curve' (h0, h1); entries that the
    ledger's sources leave open are None and excluded from the alternating-sum
    check.
    """

    obj: str
    condition: str
    kind: str
    h0: Optional[int]
    h1: Optional[int]
    h2: Optional[int]
    chi: int

    def to_json(self) -> dict:
        return {
            "object": self.obj,
            "condition": self.condition,
            "kind": self.kind,
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "chi": self.chi,
        }


def _checked_row(obj, condition, kind, h, chi) -> LedgerRow:
    h0, h1, h2 = h
    if kind == "surface" and None not in (h0, h1, h2) and h0 - h1 + h2 != chi:
        raise ConsistencyError(f"{obj} [{condition}]: h-vector {h} does not sum to chi={chi}")
    if kind == "curve" and None not in (h0, h1) and h0 - h1 != chi:
        raise ConsistencyError(f"{obj} [{condition}]: h-vector {h} does not sum to chi={chi}")
    return LedgerRow(obj, condition, kind, h0, h1, h2, chi)


def dimension_ledger() -> list[LedgerRow]:
    """Every cohomology dimension vector the classification relies on.

    Each row's chi is recomputed from the calculators in this module (plus
    short-exact-sequence replays for the blow-up tangent rows); a mismatch
    with the stated h-vector is a hard ConsistencyError.
    """
    rows = []
    f = ext_bundle()

    rows.append(_checked_row(
        "ext_bundle", "any", "surface", (1, 0, 0), chi_abelian(f)))

    chi_s2 = chi_abelian(sym2_adjoint())
    rows.append(_checked_row(
        "sym2_adjoint (x) torsion", "torsion not in image^x", "surface",
        (0, 0, 0), chi_s2))
    rows.append(_checked_row(
        "sym2_adjoint (x) torsion", "torsion in image^x", "surface",
        (1, 2, 1), chi_s2))

    chi_s3 = chi_abelian(sym3_adjoint())
    rows.append(_checked_row(
        "sym3_adjoint (x) torsion", "any torsion twist", "surface",
        (2, 0, 0), chi_s3))

    chi_nodal = chi_abelian(ChernDatum(1, 1, 0)) + ideal_point_chi_correction(2)
    rows.append(_checked_row(
        "L (x) torsion (x) I_p^2, p a base point", "twist ratio not in image^x",
        "surface", (0, None, None), chi_nodal))
    rows.append(_checked_row(
        "L (x) torsion (x) I_p^2, p a base point", "twist ratio in image^x",
        "surface", (1, None, None), chi_nodal))

    chi_triple = chi_abelian(ChernDatum(1, 2, 0)) + ideal_point_chi_correction(3)
    rows.append(_checked_row(
        "L^2 (x) torsion (x) I_o^3", "torsion not in image^x", "surface",
        (2, None, None), chi_triple))
    rows.append(_checked_row(
        "L^2 (x) torsion (x) I_o^3", "torsion in image^x", "surface",
        (3, None, None), chi_triple))

    chi_quad = chi_abelian(ChernDatum(1, 2, 0)) + ideal_point_chi_correction(4)
    rows.append(_checked_row(
        "L^2 (x) torsion (x) I_o^4", "torsion trivial", "surface",
        (2, None, None), chi_quad))
    rows.append(_checked_row(
        "L^2 (x) torsion (x) I_o^4", "torsion in image^x", "surface",
        (1, None, None), chi_quad))
    rows.append(_checked_row(
        "L^2 (x) torsion (x) I_o^4", "torsion outside image", "surface",
        (0, None, None), chi_quad))

    chi_lb_inv = chi_blowup_line(BlowupLineBundle(-1, 2))
    rows.append(_checked_row(
        "inverse cover root on blow-up", "nontrivial square root", "surface",
        (0, 0, 1), chi_lb_inv))

    # tangent of the blow-up: 0 -> T_B -> pullback T_A -> O_E(-E) -> 0
    chi_tb = chi_abelian(ChernDatum(2, 0, 0)) - curve_rr(0, 1)
    rows.append(_checked_row(
        "blow-up tangent", "any", "surface", (0, 4, 2), chi_tb))

    # the same sequence twisted by the inverse cover root; the quotient
    # becomes O_E(E) (degree -1 on the exceptional line)
    chi_tb_twist = 2 * chi_lb_inv - curve_rr(0, -1)
    rows.append(_checked_row(
        "blow-up tangent (x) inverse root", "nontrivial square root", "surface",
        (0, 0, 2), chi_tb_twist))

    rows.append(_checked_row(
        "cover pullback of blow-up tangent", "finite double cover", "surface",
        (0, 4, 4), chi_tb + chi_tb_twist))

    chi_curve = curve_rr(3, 0)
    rows.append(_checked_row(
        "degree-0 torsion on a genus-3 pencil member", "torsion outside image",
        "curve", (0, 2, None), chi_curve))
    rows.append(_checked_row(
        "degree-0 torsion on a genus-3 pencil member", "torsion in image",
        "curve", (1, 3, None), chi_curve))

    return rows


def eagon_northcott_checks() -> list[dict]:
    """chi additivity across the two symmetric-power exact sequences."""
    f = ext_bundle()
    checks = []

    left = chi_abelian(dual(f))
    right = chi_abelian(ChernDatum(1, 1, 0)) + ideal_point_chi_correction(2)
    total = chi_abelian(sym2_adjoint())
    checks.append({
        "sequence": "dual ext_bundle -> sym2_adjoint (x) torsion -> L (x) torsion^3 (x) I_p^2",
        "chi_sub": left, "chi_quot": right, "chi_total": total,
        "ok": left + right == total,
    })

    left = chi_abelian(sym2_adjoint())
    right = chi_abelian(ChernDatum(1, 2, 0)) + ideal_point_chi_correction(3)
    total = chi_abelian(sym3_adjoint())
    checks.append({
        "sequence": "sym2_adjoint -> sym3_adjoint -> L^2 (x) torsion (x) I_o^3",
        "chi_sub": left, "chi_quot": right, "chi_total": total,
        "ok": left + right == total,
    })

    for c in checks:
        if not c["ok"]:
            raise ConsistencyError(f"chi additivity failed: {c}")
    return checks
