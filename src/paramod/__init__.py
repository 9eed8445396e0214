"""Exact-arithmetic toolkit for the monodromy of (1,2)-polarized abelian
surfaces and the double-cover surface classification built on top of it.

Everything here is finite and exact: lattices and torsion characters over
Z/nZ, rational symplectic matrices, orbit enumeration, Riemann-Roch ledgers
and branch-curve invariants.  No floating point anywhere.  The character
table, the generators, the orbits and the classifier serve d=2 only; group
membership is the one check that takes a general type (1,d).
"""

import importlib

# Public names by defining module.  They are imported on first access
# (PEP 562), so importing one submodule, say paramod.doublecover, loads no
# other part of the package.
_SOURCES = {
    "lattice": ("Character", "CharacterTable", "SymplecticLattice", "TorsionPoint",
                "character_table", "im_phi2", "k_group", "make_lattice", "pairing", "phi2",
                "square_roots"),
    "paramodular": ("MembershipCertificate", "ParamodularMatrix", "act", "act_pair",
                    "gen_b", "gen_d", "gen_J", "is_member", "special_generators"),
    "classifier": ("SurfaceType", "classify", "surface_report"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module 'paramod' has no attribute {name!r}")
    return getattr(importlib.import_module(f"paramod.{_MODULE_OF[name]}"), name)
