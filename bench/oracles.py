"""Independent oracles for the outputs the benchmark checks.

Nothing here imports paramod.  Each oracle derives the expected answer from
the paper's definitions (generator matrices, the integrality pattern, the
chi / K^2 formulas, the five-case classification rule) or from how the
benchmark built the input, so a wrong answer from the program cannot also be
the expected answer.
"""

from __future__ import annotations

from fractions import Fraction

# -- the period lattice for d = 2 ---------------------------------------------

# Alternating form E = [[0, D], [-D, 0]], D = diag(1, 2).
FORM = ((0, 0, 1, 0), (0, 0, 0, 2), (-1, 0, 0, 0), (0, -2, 0, 0))
# N = S^-1 M^T S with S = diag(1, 1, 1, 2).
SCALE = (1, 1, 1, 2)
# Cell (i, j) of a group element lies in PATTERN[i][j] * Z.
PATTERN = (
    (1, 1, 1, 2),
    (2, 1, 2, 2),
    (1, 1, 1, 2),
    (1, Fraction(1, 2), 1, 1),
)
# Cells the pattern restricts to 2Z.
EVEN_CELLS = tuple((i, j) for i in range(4) for j in range(4) if PATTERN[i][j] == 2)

# Labeled order-2 characters by their values on the basis (the paper's table).
CHI_VALUES = ((1, 1, 1, 1), (1, 1, -1, 1), (-1, 1, 1, 1), (-1, 1, -1, 1))
PSI_VALUES = (
    (1, 1, 1, -1), (1, 1, -1, -1), (1, -1, 1, 1), (1, -1, 1, -1),
    (1, -1, -1, 1), (1, -1, -1, -1), (-1, 1, 1, -1), (-1, 1, -1, -1),
    (-1, -1, 1, 1), (-1, -1, 1, -1), (-1, -1, -1, 1), (-1, -1, -1, -1),
)


def _exps(values):
    return tuple(0 if v == 1 else 1 for v in values)


LABELS = {f"chi{i}": _exps(v) for i, v in enumerate(CHI_VALUES)}
LABELS.update({f"psi{i + 1}": _exps(v) for i, v in enumerate(PSI_VALUES)})
LABEL_OF = {e: name for name, e in LABELS.items()}


def polarization_image() -> set[tuple[int, ...]]:
    """Exponents of phi2(x) = x^T E mod 2 over all 2-division points x."""
    image = set()
    for k in range(16):
        x = [(k >> b) & 1 for b in range(4)]
        image.add(tuple(sum(x[i] * FORM[i][j] for i in range(4)) % 2 for j in range(4)))
    return image


IMAGE = polarization_image()

# -- group elements --------------------------------------------------------------


def gen_b(b11, b12, b22):
    return ((1, 0, b11, 2 * b12), (0, 1, 2 * b12, 2 * b22), (0, 0, 1, 0), (0, 0, 0, 1))


def gen_d(d11, d12, d21, d22):
    return ((d22, -d21, 0, 0), (-2 * d12, d11, 0, 0), (0, 0, d11, 2 * d12), (0, 0, d21, d22))


GEN_J = ((0, 0, 1, 0), (0, 0, 0, 2), (-1, 0, 0, 0), (0, Fraction(-1, 2), 0, 0))

GENERATORS = {
    "b(1,0,0)": gen_b(1, 0, 0),
    "b(0,1,0)": gen_b(0, 1, 0),
    "b(0,0,1)": gen_b(0, 0, 1),
    "d(1,0,1,1)": gen_d(1, 0, 1, 1),
    "d(1,1,0,1)": gen_d(1, 1, 0, 1),
    "J": GEN_J,
}
# Twice each generator, so that words multiply in integers: entries lie in Z/2.
GENERATORS2 = {name: tuple(tuple(int(2 * Fraction(x)) for x in row) for row in m)
               for name, m in GENERATORS.items()}


def word_matrix2(word) -> tuple:
    """2 * (product of the named generators), computed in integers."""
    acc = GENERATORS2[word[0]]
    for name in word[1:]:
        g = GENERATORS2[name]
        acc = tuple(tuple(sum(acc[i][k] * g[k][j] for k in range(4)) // 2 for j in range(4))
                    for i in range(4))
    return acc


def monodromy(m) -> tuple:
    """Integral matrix N = S^-1 M^T S through which M moves lattice vectors."""
    return tuple(tuple(Fraction(m[j][i]) * SCALE[j] / SCALE[i] for j in range(4))
                 for i in range(4))


def act(n_matrix, exps, n: int) -> tuple[int, ...]:
    """Character exponents e -> N^T e mod n."""
    return tuple(int(sum(n_matrix[k][j] * exps[k] for k in range(4))) % n for j in range(4))


_STANDARD_J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def preserves_standard_form(m) -> bool:
    """M J M^T == J for the standard symplectic J."""
    mj = [[sum(Fraction(m[i][k]) * _STANDARD_J[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    return all(sum(mj[i][k] * Fraction(m[j][k]) for k in range(4)) == _STANDARD_J[i][j]
               for i in range(4) for j in range(4))


def first_pattern_violation(m):
    for i in range(4):
        for j in range(4):
            if (Fraction(m[i][j]) / PATTERN[i][j]).denominator != 1:
                return (i + 1, j + 1)
    return None


def membership_expected(m, corruption: str | None, char_exps, char_n) -> dict:
    """Flags, violation cell, monodromy and action for a generated matrix.

    A product of generators is a member; a 'pattern' corruption breaks the
    integrality pattern at exactly one cell; a 'form' corruption keeps the
    pattern (hence an integral monodromy) and breaks the symplectic form.
    """
    if corruption is None:
        n = monodromy(m)
        return {"flags": [True, True, True], "violation": None,
                "monodromy": [[int(x) for x in row] for row in n],
                "act": None if char_exps is None else list(act(n, char_exps, char_n))}
    if corruption == "pattern":
        return {"flags": [False, None, None], "violation": list(first_pattern_violation(m)),
                "monodromy": None, "act": None}
    return {"flags": [True, True, False], "violation": "form", "monodromy": None, "act": None}


# -- classification ------------------------------------------------------------


def classify(q, root) -> str:
    """The five-case rule on a torsion datum (Q, root), root^2 = Q assumed."""
    if tuple(q) not in IMAGE:
        return "invalid"
    if any(q):
        return "II"
    if not any(root):
        return "pg3"
    return "Ib" if tuple(e // 2 for e in root) in IMAGE else "Ia"


# moduli dimension, cover degree and pencil genus of each family
FAMILY = {"Ia": (4, 12, 5), "Ib": (4, 3, 3), "II": (3, 48, 5)}

# -- Chern arithmetic ----------------------------------------------------------------


def chi_abelian(rank, a, c2) -> int:
    return (4 * a * a - 2 * c2) // 2


def chi_blowup(a, b) -> tuple[int, int]:
    """(chi, genus) of a*L + b*E on the blow-up, with L^2 = 4, E^2 = -1, K = E."""
    d2 = 4 * a * a - b * b
    dk = -b
    return (d2 - dk) // 2, 1 + (d2 + dk) // 2

# -- double-cover forests -------------------------------------------------------------


def forest_expected(payload: dict) -> dict:
    """chi, K^2, negligible points and (2d, 2d+2) pairs of a branch forest."""
    l2 = payload["L2"]
    nodes = {n["id"]: n for n in payload["nodes"]}
    ms = [n["d"] // 2 for n in payload["nodes"]]
    children: dict = {}
    for n in payload["nodes"]:
        children.setdefault(n.get("parent"), []).append(n["id"])

    def all_small(node_id):
        stack = list(children.get(node_id, ()))
        while stack:
            cur = stack.pop()
            if nodes[cur]["d"] > 2:
                return False
            stack.extend(children.get(cur, ()))
        return True

    negligible = sorted(i for i, n in nodes.items() if n["d"] == 2 and all_small(i))
    pairs = sorted((n["parent"], i) for i, n in nodes.items()
                   if n.get("parent") is not None
                   and n["d"] == nodes[n["parent"]]["d"] + 2)
    return {
        "chi": (l2 - sum(m * (m - 1) for m in ms)) // 2,
        "K2": 2 * l2 - 2 * sum((m - 1) ** 2 for m in ms),
        "negligible": negligible,
        "pairs": [list(p) for p in pairs],
    }
