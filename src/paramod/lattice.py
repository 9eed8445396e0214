"""Period lattice of a (1,d)-polarized abelian surface.

The lattice is spanned by (l1, l2, m1, m2) with alternating form
E = [[0, D], [-D, 0]], D = diag(1, d).  Its 2-torsion points and the
order-2 / order-4 characters of the lattice are the only data the rest
of the package needs, so this module works entirely with residue
vectors mod n; there are no complex periods anywhere.

Characters are stored as exponent vectors: the character with exponents
(e1, e2, e3, e4) mod n sends the j-th basis vector to zeta_n^{e_j},
with zeta_2 = -1 and zeta_4 = i.  The classical +-1 tuples are a
display format, see :meth:`Character.values`.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import NamedTuple

from paramod.errors import ConsistencyError

Vec4 = tuple[int, int, int, int]


class SymplecticLattice(NamedTuple):
    """Rank-4 lattice with the standard type-(1,d) alternating form."""

    d: int
    form: tuple[Vec4, Vec4, Vec4, Vec4]


# A NamedTuple class body cannot override __new__, so a record that checks or
# normalises its fields declares them in a private base and validates in a
# subclass; it still compares, orders and hashes as the tuple of its fields.
class _TorsionPointFields(NamedTuple):
    n: int
    coords: Vec4


class TorsionPoint(_TorsionPointFields):
    """n-division point sum(coords_j * basis_j) / n, coords reduced mod n."""

    __slots__ = ()

    def __new__(cls, n: int, coords: Vec4) -> "TorsionPoint":
        if n not in (2, 4):
            raise ValueError(f"order bound must be 2 or 4, got {n}")
        return super().__new__(cls, n, tuple(c % n for c in coords))


class _CharacterFields(NamedTuple):
    n: int
    exponents: Vec4


class Character(_CharacterFields):
    """Torsion character of the lattice, as an exponent vector mod n."""

    __slots__ = ()

    def __new__(cls, n: int, exponents: Vec4) -> "Character":
        if n not in (2, 4):
            raise ValueError(f"order bound must be 2 or 4, got {n}")
        return super().__new__(cls, n, tuple(e % n for e in exponents))

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def mul(self, other: "Character") -> "Character":
        if self.n != other.n:
            raise ValueError("cannot multiply characters of different order bounds")
        return Character(self.n, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def square(self) -> "Character":
        """Square of the character, reduced back to an order-2 character.

        For an order-4 exponent vector b the square has exponents 2b mod 4,
        which always lies in {0, 2}; as a mod-2 character that is b mod 2.
        """
        if self.n == 2:
            return Character(2, tuple(2 * e for e in self.exponents))
        return Character(2, tuple(e % 2 for e in self.exponents))

    def lift4(self) -> "Character":
        """View an order-2 character as an order-4 character (exponents doubled)."""
        if self.n != 2:
            raise ValueError("lift4 expects an order-2 character")
        return Character(4, tuple(2 * e for e in self.exponents))

    def values(self) -> tuple:
        """Value tuple on the basis: +-1 integers for n=2, i-power strings for n=4."""
        if self.n == 2:
            return tuple(1 if e == 0 else -1 for e in self.exponents)
        table = {0: "1", 1: "i", 2: "-1", 3: "-i"}
        return tuple(table[e] for e in self.exponents)

    def to_json(self) -> dict:
        return {"n": self.n, "exp": list(self.exponents)}


class CharacterTable(NamedTuple):
    """The 16 order-2 characters for d=2, split and labeled.

    chi[0..3] is the polarization image (chi[0] trivial), psi[0..11] the
    12-element complement, both in the fixed conventional order used for
    all orbit and permutation reporting.
    """

    chi: tuple[Character, ...]
    psi: tuple[Character, ...]

    def label_of(self, c: Character) -> str | None:
        for i, x in enumerate(self.chi):
            if x == c:
                return f"chi{i}"
        for i, x in enumerate(self.psi):
            if x == c:
                return f"psi{i + 1}"
        return None

    def all_characters(self) -> tuple[Character, ...]:
        return self.chi + self.psi


def make_lattice(d: int) -> SymplecticLattice:
    """Lattice with form [[0, diag(1,d)], [-diag(1,d), 0]]."""
    if d < 1:
        raise ValueError(f"elementary divisor must be >= 1, got {d}")
    form = (
        (0, 0, 1, 0),
        (0, 0, 0, d),
        (-1, 0, 0, 0),
        (0, -d, 0, 0),
    )
    return SymplecticLattice(d, form)


def pairing(lattice: SymplecticLattice, x, y) -> int:
    """Alternating form x^T E y on integer 4-vectors."""
    e = lattice.form
    return sum(x[i] * e[i][j] * y[j] for i in range(4) for j in range(4))


def phi2(lattice: SymplecticLattice, x: TorsionPoint) -> Character:
    """Order-2 character v -> (-1)^E(x', v) attached to the 2-division point x = x'/2."""
    if x.n != 2:
        raise ValueError("phi2 expects an order-2 torsion point")
    e = lattice.form
    exps = tuple(sum(x.coords[k] * e[k][j] for k in range(4)) % 2 for j in range(4))
    return Character(2, exps)


def two_torsion_points() -> list[TorsionPoint]:
    """All 16 2-division points, in lexicographic coordinate order."""
    return [TorsionPoint(2, c) for c in product(range(2), repeat=4)]


def k_group(lattice: SymplecticLattice) -> list[TorsionPoint]:
    """Kernel of phi2 on the 2-division points."""
    return [x for x in two_torsion_points() if phi2(lattice, x).is_trivial()]


def im_phi2(lattice: SymplecticLattice) -> list[Character]:
    """Image of phi2, ordered by exponent vector."""
    image = {phi2(lattice, x) for x in two_torsion_points()}
    return sorted(image)


def is_in_im_phi2(lattice: SymplecticLattice, c: Character) -> bool:
    if c.n != 2:
        raise ValueError("membership test expects an order-2 character")
    return c in im_phi2(lattice)


def square_roots(c: Character) -> list[Character]:
    """All 16 order-4 characters b with b^2 = c, in lexicographic order."""
    if c.n != 2:
        raise ValueError("square roots are taken of order-2 characters")
    choices = [(e % 2, e % 2 + 2) for e in c.exponents]
    return [Character(4, exps) for exps in product(*choices)]


# Value tuples fixed once and for all; every orbit listing, permutation and
# serialized label refers back to this order.
_CHI_VALUES = (
    (1, 1, 1, 1),
    (1, 1, -1, 1),
    (-1, 1, 1, 1),
    (-1, 1, -1, 1),
)
_PSI_VALUES = (
    (1, 1, 1, -1),
    (1, 1, -1, -1),
    (1, -1, 1, 1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (1, -1, -1, -1),
    (-1, 1, 1, -1),
    (-1, 1, -1, -1),
    (-1, -1, 1, 1),
    (-1, -1, 1, -1),
    (-1, -1, -1, 1),
    (-1, -1, -1, -1),
)


def _from_values(vals) -> Character:
    return Character(2, tuple(0 if v == 1 else 1 for v in vals))


@functools.cache
def character_table(lattice: SymplecticLattice) -> CharacterTable:
    """Labeled table of the 16 order-2 characters (d=2 only).

    The chi block is exactly the image of phi2 and the psi block its
    complement; this is checked on construction rather than assumed.
    Built once per lattice; every call returns the same table.
    """
    if lattice.d != 2:
        raise ValueError("the labeled character table is specific to d=2")
    chi = tuple(_from_values(v) for v in _CHI_VALUES)
    psi = tuple(_from_values(v) for v in _PSI_VALUES)
    if sorted(chi) != im_phi2(lattice):
        raise ConsistencyError("chi block does not match the image of phi2")
    if len(set(chi) | set(psi)) != 16:
        raise ConsistencyError("character table does not exhaust the 16 characters")
    return CharacterTable(chi, psi)


def character_to_json(table: CharacterTable | None, c: Character) -> dict:
    """Serialized form with display values and, when available, the table label."""
    out = c.to_json()
    out["values"] = list(c.values())
    if table is not None and c.n == 2:
        out["label"] = table.label_of(c)
    return out


def parse_character(text: str, n: int, table: CharacterTable | None = None) -> Character:
    """Parse 'chi1' / 'psi7' labels or a comma-separated exponent vector."""
    text = text.strip()
    if table is not None and (text.startswith("chi") or text.startswith("psi")):
        block = table.chi if text.startswith("chi") else table.psi
        offset = 0 if text.startswith("chi") else -1
        try:
            idx = int(text[3:]) + offset
        except ValueError:
            raise ValueError(f"malformed character label {text!r}") from None
        if not 0 <= idx < len(block):
            raise ValueError(f"character label {text!r} out of range")
        c = block[idx]
        return c if n == 2 else c.lift4()
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated exponents, got {text!r}")
    try:
        exps = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer exponent in {text!r}") from None
    return Character(n, exps)
