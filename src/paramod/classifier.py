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

Everything reported here is recomputed where possible (h^1 of the tangent
sheaf from the normal-sheaf contribution, each moduli dimension as that h^1
because the components are generically smooth, pair counts against cover
degrees).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from paramod.errors import ConsistencyError
from paramod.lattice import (
    Character,
    CharacterTable,
    character_table,
    im_phi2,
    make_lattice,
    square_roots,
)

ABELIAN_MODULI_DIM = 3


class SurfaceType(enum.Enum):
    Ia = "Ia"
    Ib = "Ib"
    II = "II"
    PG3 = "pg3"
    Invalid = "invalid"


@dataclass(frozen=True)
class ModuliComponent:
    name: str
    dimension: int
    cover_degree: int
    connected: bool
    irreducible: bool
    generically_smooth: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "cover_degree": self.cover_degree,
            "connected": self.connected,
            "irreducible": self.irreducible,
            "generically_smooth": self.generically_smooth,
        }


@dataclass(frozen=True)
class SurfaceReport:
    type: SurfaceType
    pg: int
    q: int
    K2: int
    chi: int
    pencil_genus: int
    phi_z: int
    canonical_fixed_part: bool
    canonical_description: str
    R_relation: str
    branch_kind: str
    N_beta: str
    h0_N_beta: int
    h1_TS: int
    moduli: ModuliComponent
    K_ample: str

    def to_json(self) -> dict:
        return {
            "type": self.type.value,
            "pg": self.pg,
            "q": self.q,
            "K2": self.K2,
            "chi": self.chi,
            "pencil_genus": self.pencil_genus,
            "phi_z": self.phi_z,
            "canonical_fixed_part": self.canonical_fixed_part,
            "canonical_description": self.canonical_description,
            "R_relation": self.R_relation,
            "branch_kind": self.branch_kind,
            "N_beta": self.N_beta,
            "h0_N_beta": self.h0_N_beta,
            "h1_TS": self.h1_TS,
            "moduli": self.moduli.to_json(),
            "K_ample": self.K_ample,
        }


_LATTICE = make_lattice(2)
_IMAGE = set(im_phi2(_LATTICE))
_TABLE = character_table(_LATTICE)


def classify(q: Character, root: Character) -> SurfaceType:
    """Surface type of the torsion datum (q, root) with root^2 = q."""
    if q.n != 2 or root.n != 4:
        raise ValueError("expected an order-2 character and an order-4 square root")
    if root.square() != q:
        raise ValueError(
            f"root {root.exponents} squares to {root.square().exponents}, not {q.exponents}"
        )
    if q not in _IMAGE:
        return SurfaceType.Invalid
    if not q.is_trivial():
        if all(e % 2 == 0 for e in root.exponents):
            raise ConsistencyError("square root of a nontrivial character must have order 4")
        return SurfaceType.II
    if root.is_trivial():
        return SurfaceType.PG3
    root2 = Character(2, tuple(e // 2 for e in root.exponents))
    return SurfaceType.Ib if root2 in _IMAGE else SurfaceType.Ia


def invalid_reason() -> str:
    return ("no surface: the linear system of branch curves with a quadruple "
            "point is empty when the twist lies outside the polarization image")


def h1_tangent(n_beta_trivial: bool) -> int:
    """h^1 of the tangent sheaf: base 3 plus the normal-sheaf section count."""
    return ABELIAN_MODULI_DIM + (1 if n_beta_trivial else 0)


_COVER_DEGREES = {SurfaceType.Ia: 12, SurfaceType.Ib: 3, SurfaceType.II: 48}


def surface_report(t: SurfaceType) -> SurfaceReport:
    """Full invariant and moduli record for a surface of type Ia, Ib or II."""
    if t not in (SurfaceType.Ia, SurfaceType.Ib, SurfaceType.II):
        raise ValueError(
            f"no surface report for {t.value}; the degenerate branch is served "
            "by degenerate_report()"
        )
    n_beta_trivial = t in (SurfaceType.Ia, SurfaceType.Ib)
    h0_nb = 1 if n_beta_trivial else 0
    h1 = h1_tangent(n_beta_trivial)
    moduli = ModuliComponent(
        name=t.value,
        dimension=h1,
        cover_degree=_COVER_DEGREES[t],
        connected=True,
        irreducible=True,
        generically_smooth=True,
    )
    common = dict(pg=2, q=2, K2=6, chi=1, moduli=moduli,
                  N_beta="trivial" if n_beta_trivial else "nontrivial-2-torsion",
                  h0_N_beta=h0_nb, h1_TS=h1)
    if t == SurfaceType.Ia:
        return SurfaceReport(
            type=t, pencil_genus=5, phi_z=8,
            canonical_fixed_part=False,
            canonical_description="no fixed part; the general canonical curve is irreducible",
            R_relation="2R in |Phi|",
            branch_kind="(i)/(ii)",
            K_ample="the general surface has ample canonical class",
            **common,
        )
    if t == SurfaceType.Ib:
        return SurfaceReport(
            type=t, pencil_genus=3, phi_z=4,
            canonical_fixed_part=True,
            canonical_description="|K| = Z + |Phi|: fixed elliptic curve Z plus a "
                                  "base-point-free genus-3 pencil",
            R_relation="R in |Phi|",
            branch_kind="(i)/(ii)",
            K_ample="the general surface has ample canonical class",
            **common,
        )
    return SurfaceReport(
        type=t, pencil_genus=5, phi_z=8,
        canonical_fixed_part=False,
        canonical_description="no fixed part; the general canonical curve is irreducible",
        R_relation="R = R1 + R2 with 4R1, 4R2 in |Phi|",
        branch_kind="(iii)",
        K_ample="every surface has ample canonical class",
        **common,
    )


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
    if t in (SurfaceType.Ia, SurfaceType.Ib):
        return {
            "case": "(i)/(ii)",
            "description": "irreducible branch curve with an ordinary quadruple "
                           "point (possibly plus one ordinary double point); the "
                           "type Ia/Ib split happens in the square root, not in "
                           "the branch curve",
            "disconnected_on_blowup": False,
        }
    if t == SurfaceType.II:
        return {
            "case": "(iii)",
            "description": "C = C1 + C2, each half irreducible and nodal at the "
                           "quadruple point, with C1.C2 = 4; the branch curve on "
                           "the blow-up is disconnected",
            "disconnected_on_blowup": True,
        }
    raise ValueError(f"no branch configuration for {t.value}")


def all_valid_pairs() -> list[tuple[Character, Character, SurfaceType]]:
    """Every (Q, root) with Q in the image, with its type; deterministic order."""
    out = []
    for q in sorted(_IMAGE):
        for root in square_roots(q):
            out.append((q, root, classify(q, root)))
    return out


def pair_counts() -> dict[SurfaceType, int]:
    counts: dict[SurfaceType, int] = {}
    for _, _, t in all_valid_pairs():
        counts[t] = counts.get(t, 0) + 1
    return counts


def moduli_decomposition() -> dict:
    """The three-component moduli decomposition with all cross-checks applied.

    Dimensions are h^1 of the tangent sheaf; pair counts over all valid
    torsion data are compared with the cover degrees, and a mismatch raises
    ConsistencyError.
    """
    types = (SurfaceType.Ia, SurfaceType.Ib, SurfaceType.II)
    reports = {t: surface_report(t) for t in types}
    counts = pair_counts()
    for t, rep in reports.items():
        if counts.get(t, 0) != rep.moduli.cover_degree:
            raise ConsistencyError(
                f"type {t.value}: {counts.get(t, 0)} torsion data but cover degree "
                f"{rep.moduli.cover_degree}"
            )
    return {
        "components": [reports[t].moduli.to_json() for t in types],
        "component_count": len(reports),
        "dimensions": [reports[t].moduli.dimension for t in types],
        "pair_counts": {t.value: counts[t] for t in types},
        "degenerate_pairs": counts.get(SurfaceType.PG3, 0),
        "ample_canonical": {
            "Ia": "general surface",
            "Ib": "general surface",
            "II": "every surface",
        },
    }


def table() -> CharacterTable:
    return _TABLE
