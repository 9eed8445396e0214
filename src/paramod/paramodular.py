"""Rational symplectic matrices preserving a type-(1,d) polarization.

Membership in the group is a pair of conditions: an integrality pattern on
the 4x4 entries, and the requirement that N = S^-1 M^T S (S = diag(I2, D))
is an integer matrix preserving the alternating form E = [[0,D],[-D,0]],
the form of lattice.make_lattice(d).
N is the matrix through which a group element moves lattice vectors, so the
induced action on a character with exponent vector e is e -> N^T e mod n.
is_member is the one pass that checks both conditions; a member's
certificate carries N as integers, and member wraps the matrix with it.
Membership takes any d >= 1; the generators below are d=2 elements.

All arithmetic is over fractions.Fraction; nothing here ever rounds.  Each
entry becomes a Fraction once, where it enters: mat keeps a Fraction as it
is, and parse_matrix builds each entry from the integer tokens of its
numerator and denominator.  is_member does only the arithmetic its
certificate reads:
- the pattern is tested on each entry's reduced numerator and denominator,
  with no division: a cell in Z needs denominator 1, a cell in dZ also a
  numerator divisible by d, and the cell in (1/d)Z a denominator dividing d;
- N is M^T with the six cells where s_i != s_j scaled by d or 1/d;
- the form product N^T E N is taken only when N is integral.  A
  non-integral N breaks the pattern too, and leaves symplectic_ok False
  whatever the product would give.
mat_mul writes each cell as one four-term sum over a row and a column, and
act does the same over the columns of N.  The form product stays a Fraction
product.  An integer one makes a membership op about five times faster, but
the benchmark keeps every op's samples, so its faster ops push the
benchmark's peak memory past its bound until runs are capped by op count
(the benchmark-ceilings item in ROADMAP.md).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from paramod.lattice import DIGITS, Character, make_lattice

Mat4 = tuple[tuple[Fraction, ...], ...]
IntMat4 = tuple[tuple[int, ...], ...]


def mat(rows: Iterable[Iterable]) -> Mat4:
    # a Fraction entry is kept as it is, so a matrix passed on from call to
    # call is converted once, where it entered
    out = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                for row in rows)
    if len(out) != 4 or any(len(r) != 4 for r in out):
        raise ValueError("expected a 4x4 matrix")
    return out


def identity() -> Mat4:
    return mat([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def mat_mul(a: Mat4, b: Mat4) -> Mat4:
    # one four-term sum per cell: sum() would start each cell at the int 0
    # and pay one more Fraction addition for it
    cols = tuple(zip(*b))
    return tuple([
        tuple([r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols])
        for r0, r1, r2, r3 in a
    ])


def transpose(a: Mat4) -> Mat4:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def _pattern(d: int) -> tuple[tuple[Fraction, ...], ...]:
    # cell (i,j) must be an integer multiple of pattern[i][j]
    one = Fraction(1)
    dd = Fraction(d)
    return (
        (one, one, one, dd),
        (dd, one, dd, dd),
        (one, one, one, dd),
        (one, Fraction(1, d), one, one),
    )


def _in_cell(x: Fraction, cell: Fraction) -> bool:
    """x in cell*Z, for a pattern cell 1, d or 1/d, read off x's reduced form."""
    if cell.denominator != 1:
        return cell.denominator % x.denominator == 0
    return x.denominator == 1 and x.numerator % cell.numerator == 0


class MembershipCertificate(NamedTuple):
    """Outcome of the membership checks, with the first violation located.

    symplectic_ok is the full second condition (monodromy integral and
    form-preserving); n_integral is its integrality sub-flag, kept separate
    so a certificate says which half broke.  monodromy is the integer N of a
    member, and None for any other matrix.
    """

    pattern_ok: bool
    n_integral: bool
    symplectic_ok: bool
    first_violation: Optional[tuple[int, int, str]] = None
    monodromy: Optional[IntMat4] = None

    @property
    def ok(self) -> bool:
        return self.pattern_ok and self.n_integral and self.symplectic_ok

    def to_json(self) -> dict:
        violation = None
        if self.first_violation is not None:
            row, col, reason = self.first_violation
            violation = {"row": row, "col": col, "reason": reason}
        out = {
            "member": self.ok,
            "pattern_ok": self.pattern_ok,
            "n_integral": self.n_integral,
            "symplectic_ok": self.symplectic_ok,
            "first_violation": violation,
        }
        if self.monodromy is not None:
            out["monodromy"] = [list(row) for row in self.monodromy]
        return out


def monodromy_matrix(entries: Mat4, d: int) -> Mat4:
    """N = S^-1 M^T S with S = diag(s) = diag(1, 1, 1, d): N[i][j] = M[j][i] * s_j / s_i.

    N is M^T with the six cells where s_i != s_j scaled: the last column's
    first three cells times d, the last row's first three over d.
    """
    c1, c2, c3, c4 = zip(*entries)
    return (c1[:3] + (c1[3] * d,), c2[:3] + (c2[3] * d,), c3[:3] + (c3[3] * d,),
            (c4[0] / d, c4[1] / d, c4[2] / d, c4[3]))


def is_member(entries, d: int = 2) -> MembershipCertificate:
    """Check the integrality pattern and the symplectic condition.

    Always returns a certificate; the matrix belongs to the group iff all
    three flags hold, and then the certificate carries its integer
    monodromy N.  first_violation pins the first failing entry in
    row-major order (1-based indices) together with a reason string.

    The pattern is read off numerators and denominators (Z: denominator 1;
    dZ: also numerator divisible by d; (1/d)Z: denominator dividing d), N is
    the transpose of M with six cells scaled, and the Fraction product
    N^T E N is taken only when N is integral, since otherwise the pattern has
    already failed and symplectic_ok is False.
    """
    if d < 1:
        raise ValueError(f"polarization type d must be >= 1, got {d}")
    m = mat(entries)
    violation: Optional[tuple[int, int, str]] = next(
        ((i + 1, j + 1, f"entry {x} not in {cell}*Z")
         for i, (row, pat_row) in enumerate(zip(m, _pattern(d)))
         for j, (x, cell) in enumerate(zip(row, pat_row)) if not _in_cell(x, cell)),
        None,
    )
    pattern_ok = violation is None

    # N[i][j] = M[j][i] * s_j / s_i, so the pattern makes N integral: the
    # cells divided by d come from column 4 (in dZ), the cells multiplied by d
    # from row 4 (only M[4][2] in (1/d)Z).  A non-integral N is therefore
    # never the first violation, and its form product is never read.
    n = monodromy_matrix(m, d)
    n_integral = all(x.denominator == 1 for row in n for x in row)

    symplectic_ok = False
    if n_integral:
        e = make_lattice(d).form
        preserved = mat_mul(mat_mul(transpose(n), e), n)
        symplectic_ok = preserved == e
        if not symplectic_ok and pattern_ok:
            violation = next(
                (i + 1, j + 1, f"form not preserved: (N^T E N)[{i + 1}][{j + 1}] = "
                               f"{preserved[i][j]}, want {e[i][j]}")
                for i in range(4) for j in range(4) if preserved[i][j] != e[i][j]
            )
    monodromy = None
    if pattern_ok and symplectic_ok:
        monodromy = tuple(tuple(int(x) for x in row) for row in n)
    return MembershipCertificate(pattern_ok, n_integral, symplectic_ok, violation, monodromy)


class ParamodularMatrix(NamedTuple):
    """Validated group element with its cached integral monodromy matrix."""

    entries: Mat4
    d: int
    monodromy: IntMat4


def member(entries, d: int = 2) -> ParamodularMatrix:
    """Validate entries and wrap them, or raise with the violation detail."""
    m = mat(entries)
    cert = is_member(m, d)
    if not cert.ok:
        raise ValueError(f"not a group element: {cert.to_json()['first_violation']}")
    return ParamodularMatrix(m, d, cert.monodromy)


def gen_b(b11: int, b12: int, b22: int) -> ParamodularMatrix:
    """Upper-unitriangular element with symmetric twist block (d=2)."""
    return member(
        [
            [1, 0, b11, 2 * b12],
            [0, 1, 2 * b12, 2 * b22],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )


def gen_d(d11: int, d12: int, d21: int, d22: int) -> ParamodularMatrix:
    """Block-diagonal element from an SL2(Z) matrix [[d11, 2*d12], [d21, d22]] (d=2)."""
    det = d11 * d22 - 2 * d12 * d21
    if det != 1:
        raise ValueError(f"d11*d22 - 2*d12*d21 must be 1, got {det}")
    return member(
        [
            [d22, -d21, 0, 0],
            [-2 * d12, d11, 0, 0],
            [0, 0, d11, 2 * d12],
            [0, 0, d21, d22],
        ]
    )


def gen_J() -> ParamodularMatrix:
    """The fixed off-diagonal involution-like generator (d=2)."""
    return member(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 2],
            [-1, 0, 0, 0],
            [0, Fraction(-1, 2), 0, 0],
        ]
    )


@functools.cache
def special_generators() -> tuple[tuple[str, ParamodularMatrix], ...]:
    """The six labeled d=2 generator instances driving every orbit computation.

    One representative for each parity class of the two triangular families
    (b11 / b12 / b22 odd, d21 / d12 odd) plus the off-diagonal generator.
    Built and validated once per process; every call returns the same tuple.
    """
    return (
        ("b(1,0,0)", gen_b(1, 0, 0)),
        ("b(0,1,0)", gen_b(0, 1, 0)),
        ("b(0,0,1)", gen_b(0, 0, 1)),
        ("d(1,0,1,1)", gen_d(1, 0, 1, 1)),
        ("d(1,1,0,1)", gen_d(1, 1, 0, 1)),
        ("J", gen_J()),
    )


def act(m: ParamodularMatrix, c: Character) -> Character:
    """Monodromy action on a character: exponents -> N^T exponents mod n."""
    e0, e1, e2, e3 = c.exponents
    exps = tuple(n0 * e0 + n1 * e1 + n2 * e2 + n3 * e3 for n0, n1, n2, n3 in zip(*m.monodromy))
    return Character(c.n, exps)


def act_pair(
    m: ParamodularMatrix, pair: tuple[Character, Character]
) -> tuple[Character, Character]:
    """Act on a (character, square root) pair componentwise.

    The square relation root^2 = base is required on input.  The action
    commutes with squaring, since (N^T r mod 4) mod 2 = N^T (r mod 2) mod 2
    for the integral monodromy N, so the image pair satisfies it too.
    """
    base, root = pair
    if base.n != 2 or root.n != 4:
        raise ValueError("expected an (order-2, order-4) pair")
    if root.square() != base:
        raise ValueError(f"square root mismatch: {root.exponents} squared is not {base.exponents}")
    return act(m, base), act(m, root)


# An optional sign, ASCII digits and an optional /digits.  No exponent
# notation: Fraction("1e1000000") builds a million-digit integer from nine
# characters, while here an entry's digits are bounded by its length.  The
# groups are the numerator and the denominator, which int() reads directly.
_RATIONAL = re.compile(f"([+-]?{DIGITS})(?:/({DIGITS}))?")


def parse_matrix(text: str) -> Mat4:
    """Parse 16 comma-separated rationals, row-major, each an integer or p/q."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 16:
        raise ValueError(f"expected 16 comma-separated rationals, got {len(parts)}")
    vals = []
    for k, p in enumerate(parts, start=1):
        match = _RATIONAL.fullmatch(p)
        if match is None:
            raise ValueError(f"entry {k} is not an integer or p/q: {p!r}")
        num, den = match.groups()
        try:
            vals.append(Fraction(int(num)) if den is None else Fraction(int(num), int(den)))
        except ZeroDivisionError:
            raise ValueError(f"entry {k} has denominator 0: {p!r}") from None
        except ValueError:
            # the grammar leaves only the interpreter's limit on int digits
            raise ValueError(f"entry {k} has more digits than Python parses "
                             "into an integer") from None
    return mat([vals[4 * i : 4 * i + 4] for i in range(4)])
