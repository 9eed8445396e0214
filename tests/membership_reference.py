"""Reference copy of the all-Fraction membership check and matrix parser.

This is `paramod.paramodular.is_member` as it stood before the pattern was
tested on numerators and denominators: every entry converted to Fraction,
the pattern tested by 16 Fraction divisions, N built cell by cell as
M[j][i] * s_j / s_i, and the form product N^T E N always taken, each cell a
sum() over a generator.  parse_matrix is the parser as it stood before
entries were built from their integer tokens: each token checked by the
grammar, then passed whole to Fraction(str).  It carries its own copies of
the helpers it used, so a change to the library's helpers cannot move the
oracle.  The equivalence tests compare whole certificates: flags,
first_violation with its reason text, and monodromy; and parsed matrices or
the ValueError text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional

from paramod.lattice import make_lattice
from paramod.paramodular import Mat4, MembershipCertificate


def mat(rows: Iterable[Iterable]) -> Mat4:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 4 or any(len(r) != 4 for r in out):
        raise ValueError("expected a 4x4 matrix")
    return out


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


_RATIONAL = re.compile("[+-]?[0-9]+(?:/[0-9]+)?")


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
            raise ValueError(f"entry {k} has more digits than Python parses "
                             "into an integer") from None
    return mat([vals[4 * i : 4 * i + 4] for i in range(4)])
