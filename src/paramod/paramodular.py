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

All arithmetic is over fractions.Fraction; nothing here ever rounds.
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
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 4 or any(len(r) != 4 for r in out):
        raise ValueError("expected a 4x4 matrix")
    return out


def identity() -> Mat4:
    return mat([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def mat_mul(a: Mat4, b: Mat4) -> Mat4:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


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
    """N = S^-1 M^T S with S = diag(s) = diag(1, 1, 1, d): N[i][j] = M[j][i] * s_j / s_i."""
    s = (1, 1, 1, d)
    return tuple(tuple(entries[j][i] * s[j] / s[i] for j in range(4)) for i in range(4))


def is_member(entries, d: int = 2) -> MembershipCertificate:
    """Check the integrality pattern and the symplectic condition.

    Always returns a certificate; the matrix belongs to the group iff all
    three flags hold, and then the certificate carries its integer
    monodromy N.  first_violation pins the first failing entry in
    row-major order (1-based indices) together with a reason string.
    """
    if d < 1:
        raise ValueError(f"polarization type d must be >= 1, got {d}")
    m = mat(entries)
    pat = _pattern(d)
    violation: Optional[tuple[int, int, str]] = next(
        ((i + 1, j + 1, f"entry {m[i][j]} not in {pat[i][j]}*Z")
         for i in range(4) for j in range(4) if (m[i][j] / pat[i][j]).denominator != 1),
        None,
    )
    pattern_ok = violation is None

    # N[i][j] = M[j][i] * s_j / s_i, so the pattern makes N integral: the
    # cells divided by d come from column 4 (in dZ), the cells multiplied by d
    # from row 4 (only M[4][2] in (1/d)Z).  A non-integral N is therefore
    # never the first violation.
    n = monodromy_matrix(m, d)
    n_integral = all(x.denominator == 1 for row in n for x in row)

    e = make_lattice(d).form
    preserved = mat_mul(mat_mul(transpose(n), e), n)
    form_ok = preserved == e
    if not form_ok and pattern_ok:
        violation = next(
            (i + 1, j + 1, f"form not preserved: (N^T E N)[{i + 1}][{j + 1}] = "
                           f"{preserved[i][j]}, want {e[i][j]}")
            for i in range(4) for j in range(4) if preserved[i][j] != e[i][j]
        )
    symplectic_ok = n_integral and form_ok
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
    n, e = m.monodromy, c.exponents
    exps = tuple(sum(n[k][j] * e[k] for k in range(4)) for j in range(4))
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
# characters, while here an entry's digits are bounded by its length.
_RATIONAL = re.compile(f"[+-]?{DIGITS}(?:/{DIGITS})?")


def parse_matrix(text: str) -> Mat4:
    """Parse 16 comma-separated rationals, row-major, each an integer or p/q."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 16:
        raise ValueError(f"expected 16 comma-separated rationals, got {len(parts)}")
    vals = []
    for k, p in enumerate(parts, start=1):
        if _RATIONAL.fullmatch(p) is None:
            raise ValueError(f"entry {k} is not an integer or p/q: {p!r}")
        try:
            vals.append(Fraction(p))
        except ZeroDivisionError:
            raise ValueError(f"entry {k} has denominator 0: {p!r}") from None
        except ValueError:
            # the grammar leaves only the interpreter's limit on int digits
            raise ValueError(f"entry {k} has more digits than Python parses "
                             "into an integer") from None
    return mat([vals[4 * i : 4 * i + 4] for i in range(4)])
