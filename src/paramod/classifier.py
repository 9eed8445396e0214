"""Surface classification from a torsion datum (Q, Q^{1/2}).

A branch curve with the right quadruple point exists exactly when Q lies in
the image of phi2; the family of the resulting minimal surface (all with
p_g = q = 2, K^2 = 6 and degree-2 Albanese map) is decided by where the
square root sits:

    Q trivial,  root trivial            -> degenerate p_g = q = 3 surface
    Q trivial,  root outside the image  -> type Ia
    Q trivial,  root in the image^x     -> type Ib
    Q in image^x (root has order 4)     -> type II
    Q outside the image                 -> no surface (empty linear system)

The paper's stated facts about the three families are held once, in
:data:`FAMILIES`; the reports read them from there.  Everything else is
recomputed where possible: h^1 of the tangent sheaf from the normal-sheaf
contribution, each moduli dimension as that h^1 because the components are
generically smooth, and each pair count as the size of its type's one orbit
of valid torsion data.  :func:`torsion_orbits` builds that partition once per
process and checks it as it goes: each orbit has one type, no two orbits
share one, and each family's orbit size equals its stated cover degree.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from paramod.errors import ConsistencyError, InputError
from paramod.lattice import Character, character_table, make_lattice

ABELIAN_MODULI_DIM = 3


class SurfaceType(enum.Enum):
    Ia = "Ia"
    Ib = "Ib"
    II = "II"
    PG3 = "pg3"
    Invalid = "invalid"


class CanonicalSystem(NamedTuple):
    fixed_part: bool
    description: str


class BranchCase(NamedTuple):
    case: str
    description: str
    disconnected_on_blowup: bool


class Family(NamedTuple):
    """The paper's stated facts about one moduli family."""

    cover_degree: int
    pencil_genus: int
    phi_z: int
    canonical: CanonicalSystem
    R_relation: str
    branch: BranchCase
    n_beta_trivial: bool
    ample: str  # the surfaces of the family whose canonical class is ample


_NO_FIXED_PART = CanonicalSystem(
    False, "no fixed part; the general canonical curve is irreducible")
_IRREDUCIBLE_BRANCH = BranchCase(
    "(i)/(ii)",
    "irreducible branch curve with an ordinary quadruple point (possibly plus "
    "one ordinary double point); the type Ia/Ib split happens in the square "
    "root, not in the branch curve",
    False)
_GENERAL_SURFACE = "the general surface"

FAMILIES = {
    SurfaceType.Ia: Family(
        cover_degree=12, pencil_genus=5, phi_z=8, canonical=_NO_FIXED_PART,
        R_relation="2R in |Phi|", branch=_IRREDUCIBLE_BRANCH,
        n_beta_trivial=True, ample=_GENERAL_SURFACE),
    SurfaceType.Ib: Family(
        cover_degree=3, pencil_genus=3, phi_z=4,
        canonical=CanonicalSystem(
            True, "|K| = Z + |Phi|: fixed elliptic curve Z plus a "
                  "base-point-free genus-3 pencil"),
        R_relation="R in |Phi|", branch=_IRREDUCIBLE_BRANCH,
        n_beta_trivial=True, ample=_GENERAL_SURFACE),
    SurfaceType.II: Family(
        cover_degree=48, pencil_genus=5, phi_z=8, canonical=_NO_FIXED_PART,
        R_relation="R = R1 + R2 with 4R1, 4R2 in |Phi|",
        branch=BranchCase(
            "(iii)",
            "C = C1 + C2, each half irreducible and nodal at the quadruple "
            "point, with C1.C2 = 4; the branch curve on the blow-up is "
            "disconnected",
            True),
        n_beta_trivial=False, ample="every surface"),
}


def classify(q: Character, root: Character) -> SurfaceType:
    """Surface type of the torsion datum (q, root) with root^2 = q."""
    if q.n != 2 or root.n != 4:
        raise InputError("expected an order-2 character and an order-4 square root")
    if root.square() != q:
        raise InputError(
            f"root {root.exponents} squares to {root.square().exponents}, not {q.exponents}"
        )
    image = character_table(make_lattice(2)).chi
    if q not in image:
        return SurfaceType.Invalid
    if not q.is_trivial():
        return SurfaceType.II
    if root.is_trivial():
        return SurfaceType.PG3
    root2 = Character(2, tuple(e // 2 for e in root.exponents))
    return SurfaceType.Ib if root2 in image else SurfaceType.Ia


def invalid_reason() -> str:
    return ("no surface: the linear system of branch curves with a quadruple "
            "point is empty when the twist lies outside the polarization image")


def h1_tangent(n_beta_trivial: bool) -> int:
    """h^1 of the tangent sheaf: base 3 plus the normal-sheaf section count."""
    return ABELIAN_MODULI_DIM + (1 if n_beta_trivial else 0)


def surface_report(t: SurfaceType) -> dict:
    """Full invariant and moduli record for a surface of type Ia, Ib or II.

    The record is the JSON object `paramod classify` prints: "type" is the
    type's string value and "moduli" the component of the moduli space.
    """
    if t not in FAMILIES:
        raise ValueError(
            f"no surface report for {t.value}; the degenerate branch is served "
            "by degenerate_report()"
        )
    family = FAMILIES[t]
    h1 = h1_tangent(family.n_beta_trivial)
    return {
        "type": t.value, "pg": 2, "q": 2, "K2": 6, "chi": 1,
        "pencil_genus": family.pencil_genus,
        "phi_z": family.phi_z,
        "canonical_fixed_part": family.canonical.fixed_part,
        "canonical_description": family.canonical.description,
        "R_relation": family.R_relation,
        "branch_kind": family.branch.case,
        "N_beta": "trivial" if family.n_beta_trivial else "nontrivial-2-torsion",
        "h0_N_beta": 1 if family.n_beta_trivial else 0,
        "h1_TS": h1,
        "moduli": {"name": t.value, "dimension": h1, "cover_degree": family.cover_degree,
                   "connected": True, "irreducible": True, "generically_smooth": True},
        "K_ample": f"{family.ample} has ample canonical class",
    }


def degenerate_report() -> dict:
    """Stub record for the excluded trivial-trivial datum (p_g = q = 3)."""
    return {
        "type": SurfaceType.PG3.value,
        "pg": 3,
        "q": 3,
        "K2": 6,
        "note": "both the twist and its square root are trivial; the cover is "
                "the symmetric square of a genus-3 curve and falls outside the "
                "p_g = q = 2 moduli space",
    }


def branch_curve_kind(t: SurfaceType) -> dict:
    """Which reduced branch configuration the type forces."""
    if t not in FAMILIES:
        raise ValueError(f"no branch configuration for {t.value}")
    return FAMILIES[t].branch._asdict()


@functools.cache
def torsion_orbits() -> tuple[tuple[SurfaceType, tuple], ...]:
    """The orbits of the 64 valid torsion data, each with the one type its data have.

    Built and checked once per process: ConsistencyError names an orbit with
    two types or with an earlier orbit's type, then a family whose orbit size
    is not its cover degree.
    """
    from paramod.orbits import standard_set  # orbits imports this module
    lset, _, part = standard_set("torsion64")
    typed = {}
    for block in part.blocks:
        types = {classify(*lset.elements[i]) for i in block}
        if len(types) != 1 or types <= typed.keys():
            raise ConsistencyError(
                f"torsion-data orbit of {lset.labels[block[0]]} has types "
                f"{sorted(t.value for t in types)}, earlier orbits {[t.value for t in typed]}")
        typed[types.pop()] = tuple(lset.elements[i] for i in block)
    for t, family in FAMILIES.items():
        count = len(typed.get(t, ()))
        if count != family.cover_degree:
            raise ConsistencyError(
                f"type {t.value}: {count} torsion data but cover degree {family.cover_degree}")
    return tuple(typed.items())


def moduli_decomposition() -> dict:
    """The three-component moduli decomposition.

    Dimensions are h^1 of the tangent sheaf, one component per family; the
    pair counts are the orbit sizes of :func:`torsion_orbits`, whose
    partition and cover-degree check are built once per process.
    """
    counts = {t: len(data) for t, data in torsion_orbits()}
    components = [surface_report(t)["moduli"] for t in FAMILIES]
    return {
        "components": components,
        "component_count": len(components),
        "dimensions": [component["dimension"] for component in components],
        "pair_counts": {t.value: counts[t] for t in FAMILIES},
        "degenerate_pairs": counts.get(SurfaceType.PG3, 0),
        "ample_canonical": {t.value: family.ample.removeprefix("the ")
                            for t, family in FAMILIES.items()},
    }
