import random
import sys
from fractions import Fraction

import membership_reference
import pytest
from hypothesis import example, given, settings, strategies as st

from paramod.lattice import Character, character_table, make_lattice, square_roots
from paramod.paramodular import (
    ParamodularMatrix,
    _pattern,
    act,
    act_pair,
    gen_J,
    gen_b,
    gen_d,
    identity,
    is_member,
    mat,
    mat_mul,
    member,
    monodromy_matrix,
    parse_matrix,
    special_generators,
)

TABLE = character_table(make_lattice(2))
GENS = [g for _, g in special_generators()]


def mul(a, b):
    """Group product: the member whose matrix is a's times b's."""
    return member(mat_mul(a.entries, b.entries))


def mat_inv(a):
    """Exact inverse by Gauss-Jordan elimination."""
    aug = [list(row) + [Fraction(int(i == j)) for j in range(4)] for i, row in enumerate(a)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(4):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[4:]) for row in aug)


def random_word(rng, max_len=4):
    m = member(identity())
    for _ in range(rng.randint(1, max_len)):
        m = mul(m, rng.choice(GENS))
    return m


def test_identity_is_member():
    cert = is_member(identity())
    assert cert.ok
    assert cert.first_violation is None


def test_gen_J_membership_and_monodromy():
    j = gen_J()
    assert j.monodromy == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def test_gen_J_fourth_power_trivial_on_2torsion():
    j = gen_J()
    for c in TABLE.all_characters():
        x = c
        for _ in range(4):
            x = act(j, x)
        assert x == c


def test_lone_third_rejected():
    rows = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    rows[3][1] = Fraction(1, 3)
    cert = is_member(rows)
    assert not cert.ok
    assert not cert.pattern_ok
    assert not cert.symplectic_ok
    assert cert.first_violation[:2] == (4, 2)


def test_gen_b_members():
    for args in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
        m = gen_b(*args)
        assert is_member(m.entries).ok


def test_gen_b_zero_is_identity():
    assert gen_b(0, 0, 0).entries == identity()


def test_gen_b_fixes_image_setwise():
    image = set(TABLE.chi)
    for args in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, -1)]:
        m = gen_b(*args)
        assert {act(m, c) for c in image} == image


def test_gen_d_members():
    assert is_member(gen_d(1, 0, 1, 1).entries).ok
    assert is_member(gen_d(1, 1, 0, 1).entries).ok


def test_gen_d_determinant_precondition():
    with pytest.raises(ValueError, match="must be 1"):
        gen_d(1, 1, 1, 1)


def test_act_identity():
    e = member(identity())
    for c in TABLE.all_characters():
        assert act(e, c) == c


def test_act_chi1_formula():
    # image of chi1 depends only on the parities of entries (1,3) and (3,3)
    rng = random.Random(7)
    chi1 = TABLE.chi[1]
    for _ in range(25):
        m = random_word(rng)
        got = act(m, chi1)
        b11 = int(m.entries[0][2])
        d11 = int(m.entries[2][2])
        assert got.values() == ((-1) ** b11, 1, (-1) ** d11, 1)


def test_act_chi2_formula():
    rng = random.Random(8)
    chi2 = TABLE.chi[2]
    for _ in range(25):
        m = random_word(rng)
        a11 = int(m.entries[0][0])
        c11 = int(m.entries[2][0])
        assert act(m, chi2).values() == ((-1) ** a11, 1, (-1) ** c11, 1)


def test_gen_J_on_psi1():
    assert act(gen_J(), TABLE.psi[0]) == TABLE.psi[2]


def test_trivial_character_fixed():
    rng = random.Random(11)
    trivial = Character(2, (0, 0, 0, 0))
    for _ in range(20):
        assert act(random_word(rng), trivial) == trivial


def test_image_times_invariant():
    rng = random.Random(12)
    image_times = set(TABLE.chi[1:])
    for _ in range(20):
        m = random_word(rng)
        assert {act(m, c) for c in image_times} == image_times


def block_formula_action(m, c):
    """Independent oracle: the four expanded value formulas, read off the blocks."""
    e = m.entries
    a11, a12 = int(e[0][0]), int(e[0][1])
    a21, a22 = int(e[1][0]) // 2, int(e[1][1])
    b11, b12 = int(e[0][2]), int(e[0][3]) // 2
    b21, b22 = int(e[1][2]) // 2, int(e[1][3]) // 2
    c11, c12 = int(e[2][0]), int(e[2][1])
    c21, c22 = int(e[3][0]), int(2 * e[3][1])
    d11, d12 = int(e[2][2]), int(e[2][3]) // 2
    d21, d22 = int(e[3][2]), int(e[3][3])
    v = c.values()
    new = (
        v[0] ** a11 * v[1] ** a12 * v[2] ** b11 * v[3] ** b12,
        v[0] ** (2 * a21) * v[1] ** a22 * v[2] ** (2 * b21) * v[3] ** b22,
        v[0] ** c11 * v[1] ** c12 * v[2] ** d11 * v[3] ** d12,
        v[0] ** (2 * c21) * v[1] ** c22 * v[2] ** (2 * d21) * v[3] ** d22,
    )
    return Character(2, tuple(0 if x == 1 else 1 for x in new))


def test_act_matches_block_formula_oracle():
    rng = random.Random(13)
    words = GENS + [random_word(rng) for _ in range(15)]
    for m in words:
        for c in TABLE.all_characters():
            assert act(m, c) == block_formula_action(m, c)


def test_left_action_law():
    rng = random.Random(14)
    chars = TABLE.all_characters()
    for _ in range(15):
        m1 = random_word(rng)
        m2 = random_word(rng)
        prod = mul(m1, m2)
        for c in chars:
            assert act(prod, c) == act(m1, act(m2, c))


def test_membership_closed_under_product_and_inverse():
    rng = random.Random(15)
    for _ in range(20):
        word = [rng.choice(GENS) for _ in range(rng.randint(1, 6))]
        m = member(identity())
        for g in word:
            m = mul(m, g)
        assert is_member(m.entries).ok
        assert is_member(mat_inv(m.entries)).ok


def test_act_pair_identity():
    e = member(identity())
    q = TABLE.chi[1]
    root = square_roots(q)[0]
    assert act_pair(e, (q, root)) == (q, root)


def test_act_pair_mismatch_rejected():
    q = TABLE.chi[1]
    bad_root = square_roots(TABLE.chi[2])[0]
    with pytest.raises(ValueError, match="mismatch"):
        act_pair(member(identity()), (q, bad_root))


def test_act_pair_rejects_wrong_orders():
    root = square_roots(TABLE.chi[1])[0]
    with pytest.raises(ValueError, match=r"expected an \(order-2, order-4\) pair"):
        act_pair(member(identity()), (root, root))


def test_mat_rejects_every_other_shape():
    # one wrong dimension is enough: 4 rows of 3, or 3 rows of 4
    for rows in ([[0] * 3] * 4, [[0] * 4] * 3):
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            mat(rows)


def test_act_pair_squaring_commutes():
    rng = random.Random(16)
    for _ in range(20):
        m = random_word(rng)
        q = rng.choice(TABLE.chi[1:])
        root = rng.choice(square_roots(q))
        new_q, new_root = act_pair(m, (q, root))
        assert new_root.square() == new_q
        assert new_q == act(m, q)


_WORDS = st.lists(st.sampled_from(range(len(GENS))), max_size=5)
_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4)


def word_member(word):
    m = member(identity())
    for gi in word:
        m = mul(m, GENS[gi])
    return m


@settings(max_examples=30, deadline=None)
@given(_WORDS, _WORDS, st.sampled_from([2, 4]), _EXPONENTS)
def test_action_law_on_generator_words(w1, w2, n, exps):
    g, h = word_member(w1), word_member(w2)
    c = Character(n, exps)
    assert act(mul(g, h), c) == act(g, act(h, c))


@settings(max_examples=30, deadline=None)
@given(_WORDS, _EXPONENTS)
def test_action_commutes_with_squaring(word, exps):
    # the law that keeps act_pair's image pair in the square relation
    g = word_member(word)
    b = Character(4, exps)
    assert act(g, b).square() == act(g, b.square())


@settings(max_examples=30, deadline=None)
@given(_WORDS)
def test_generator_words_are_members(word):
    m = identity()
    for gi in word:
        m = mat_mul(m, GENS[gi].entries)
    assert is_member(m).ok


def test_act_pair_first_component():
    j = gen_J()
    q = TABLE.chi[1]
    root = square_roots(q)[3]
    new_q, _ = act_pair(j, (q, root))
    assert new_q == act(j, q)


def test_special_generators_built_once():
    assert special_generators() is special_generators()
    assert [name for name, _ in special_generators()] == [
        "b(1,0,0)", "b(0,1,0)", "b(0,0,1)", "d(1,0,1,1)", "d(1,1,0,1)", "J"]


def test_monodromy_is_integral_for_all_generators():
    for _, g in special_generators():
        for row in g.monodromy:
            assert all(isinstance(x, int) for x in row)


def test_monodromy_is_antihomomorphism():
    # N(M1*M2) = N(M2)*N(M1); transporting exponents by N^T restores the
    # left-action law tested above
    def nmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                           for j in range(4)) for i in range(4))

    rng = random.Random(17)
    for _ in range(10):
        m1, m2 = random_word(rng), random_word(rng)
        assert mul(m1, m2).monodromy == nmul(m2.monodromy, m1.monodromy)


def test_mat_inv_roundtrip():
    m = gen_d(1, 1, 0, 1).entries
    assert mat_mul(m, mat_inv(m)) == identity()


def test_parse_matrix_roundtrip():
    m = gen_J()
    text = ",".join(str(x) for row in m.entries for x in row)
    assert parse_matrix(text) == m.entries
    with pytest.raises(ValueError):
        parse_matrix("1,2,3")
    with pytest.raises(ValueError):
        parse_matrix(",".join(["x"] + ["0"] * 15))


# Tokens of the parser's grammar: an optional sign, digits with leading zeros
# allowed, and an optional /digits, so -0, 1/0 and -0/00 all occur.  One
# numerator and one denominator run past the interpreter's int digit limit.
_DIGIT_RUNS = st.text(alphabet="0123456789", min_size=1, max_size=4)
_LONG = "1" * (sys.get_int_max_str_digits() + 1)
_TOKENS = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "+", "-"]),
    _DIGIT_RUNS | st.just(_LONG),
    st.none() | _DIGIT_RUNS | st.just(_LONG),
)


def _parse_outcome(parse, text):
    try:
        return [(type(x), x) for row in parse(text) for x in row]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKENS, min_size=16, max_size=16), st.sampled_from([",", ", ", " ,"]))
@example(["-0", "007", "+3/06", "-0/5"] + ["0"] * 12, ",")
@example(["1/0"] + ["0"] * 15, ",")
@example(["0"] * 15 + ["-0/00"], ",")
@example(["2", _LONG] + ["0"] * 14, ",")
@example(["2", "1/" + _LONG] + ["0"] * 14, ",")
@example([_LONG + "/0"] + ["0"] * 15, ",")
def test_parse_matrix_matches_the_fraction_reference(tokens, sep):
    text = sep.join(tokens)
    want = _parse_outcome(membership_reference.parse_matrix, text)
    assert _parse_outcome(parse_matrix, text) == want


_ENTRIES = st.integers(-60, 60) | st.fractions(max_denominator=12, min_value=-60, max_value=60)
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), min_size=4, max_size=4).map(
    lambda rows: tuple(tuple(row) for row in rows))


@settings(max_examples=100, deadline=None)
@given(_MATRICES, _MATRICES)
@example(identity(), make_lattice(2).form)
@example(make_lattice(2).form, make_lattice(3).form)
def test_mat_mul_matches_the_reference_cell_by_cell(a, b):
    # same value and same type in every cell: int times int stays int
    got, want = mat_mul(a, b), membership_reference.mat_mul(a, b)
    assert [(type(x), x) for row in got for x in row] == \
        [(type(x), x) for row in want for x in row]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=16, max_size=16),
       st.sampled_from([2, 4]), _EXPONENTS)
def test_act_is_the_transpose_formula(cells, n, exps):
    # act reads only the monodromy, so any integral N exercises the kernel
    monodromy = tuple(tuple(cells[4 * i : 4 * i + 4]) for i in range(4))
    c = Character(n, exps)
    want = tuple(sum(monodromy[k][j] * c.exponents[k] for k in range(4)) % n for j in range(4))
    assert act(ParamodularMatrix(identity(), monodromy), c) == Character(n, want)


def test_serialization():
    j = gen_J()
    assert j.entries[0][3] == 0
    assert j.entries[3][1] == Fraction(-1, 2)
    assert j.monodromy[0] == (0, 0, -1, 0)


def test_member_rejects_non_member():
    with pytest.raises(ValueError, match="not a group element"):
        member(mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_principal_case_is_plain_symplectic():
    # d=1: integral symplectic matrices pass, half-integers do not
    cert = is_member(identity(), d=1)
    assert cert.ok
    rows = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    rows[3][1] = Fraction(1, 2)
    assert not is_member(rows, d=1).pattern_ok


@pytest.mark.parametrize("d", [0, -3])
def test_polarization_type_below_one_rejected(d):
    with pytest.raises(ValueError, match=">= 1"):
        is_member(identity(), d=d)


# Off-pattern cells come from these values, on-pattern cells are integer
# multiples of the pattern's own cell; one cell in eight is off-pattern.
_OFF_PATTERN = tuple(Fraction(x) for x in (
    "0", "1", "-1", "2", "-2", "3", "4", "6", "1/2", "-1/2", "1/3", "2/3", "3/2", "1/6"))


@st.composite
def _rational_matrices(draw):
    d = draw(st.integers(1, 6))
    rows = [[draw(st.sampled_from(_OFF_PATTERN)) if draw(st.integers(0, 7)) == 0
             else draw(st.integers(-3, 3)) * cell for cell in pat_row]
            for pat_row in _pattern(d)]
    return rows, d


@settings(max_examples=300, deadline=None)
@given(_rational_matrices())
def test_pattern_implies_integral_monodromy(case):
    # N[i][j] = M[j][i] * s_j / s_i: the cells divided by d are column 4 of M,
    # which the pattern puts in dZ; the cells multiplied by d are row 4, where
    # only M[4][2] may lie in (1/d)Z.  So no monodromy entry is ever the first
    # violation.
    rows, d = case
    cert = is_member(rows, d)
    n = monodromy_matrix(mat(rows), d)
    assert cert.n_integral == all(x.denominator == 1 for row in n for x in row)
    assert cert.n_integral or not cert.pattern_ok
    if not cert.pattern_ok:
        assert "not in" in cert.first_violation[2]


@st.composite
def _word_matrices(draw):
    """A generator word's matrix, or that matrix with one cell moved: by an
    off-pattern value, or by its pattern cell, which keeps the pattern."""
    rows = [list(row) for row in word_member(draw(_WORDS)).entries]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows[i][j] += draw(st.sampled_from(_OFF_PATTERN[1:] + (_pattern(2)[i][j],)))
    return rows, 2


@settings(max_examples=200, deadline=None)
@given(_word_matrices() | _rational_matrices())
@example((gen_J().entries, 2))
@example(([[1, 0, 2, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]], 2))  # on pattern, off form
def test_certificate_carries_the_monodromy_of_a_member(case):
    rows, d = case
    cert = is_member(rows, d)
    payload = cert.to_json()
    assert ("monodromy" in payload) == payload["member"]
    if cert.ok:
        want = tuple(tuple(int(x) for x in row) for row in monodromy_matrix(mat(rows), d))
        assert cert.monodromy == want
        assert payload["monodromy"] == [list(row) for row in want]
    else:
        assert cert.monodromy is None
    if d != 2:
        return  # member wraps d=2 elements only
    if cert.ok:
        assert member(rows).monodromy == cert.monodromy
    else:
        with pytest.raises(ValueError, match="not a group element"):
            member(rows)


# N^T E N is taken only when N is integral; this matrix breaks the pattern in
# cell (1,4), so N[4][1] = 1/2, and its N^T E N differs from E.
_NON_INTEGRAL_N = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@settings(max_examples=300, deadline=None)
@given(_rational_matrices() | _word_matrices())
@example((identity(), 1))
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(1, 2), 0, 1]], 1))
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(1, 3), 0, 1]], 6))
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(1, 4), 0, 1]], 6))
@example((_NON_INTEGRAL_N, 2))
@example(([[0, 0, 1, 0], [0, 0, 0, "2"], [-1, 0, 0, 0], [0, "-1/2", 0, Fraction(0)]], 2))
@example(([[1, 0, 2, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]], 2))  # on pattern, off form
def test_certificate_matches_the_fraction_reference(case):
    rows, d = case
    assert is_member(rows, d) == membership_reference.is_member(rows, d)


def test_non_integral_monodromy_example_is_off_form():
    # the example above exercises the skipped product: the reference takes it
    # and finds N^T E N != E, the library does not take it, and both agree
    n = membership_reference.monodromy_matrix(membership_reference.mat(_NON_INTEGRAL_N), 2)
    e = make_lattice(2).form
    product = membership_reference.mat_mul(
        membership_reference.mat_mul(membership_reference.transpose(n), e), n)
    assert product != e
    cert = is_member(_NON_INTEGRAL_N, 2)
    assert (cert.pattern_ok, cert.n_integral, cert.symplectic_ok) == (False, False, False)
    assert cert.first_violation == (1, 4, "entry 1 not in 2*Z")


@pytest.mark.parametrize("cell, ok", [(Fraction(1, 3), True), (Fraction(1, 4), False)])
def test_lower_left_cell_in_one_over_d_z(cell, ok):
    rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    rows[3][1] = cell
    cert = is_member(rows, 6)
    assert cert.pattern_ok == ok
    if not ok:
        assert cert.first_violation == (4, 2, "entry 1/4 not in 1/6*Z")


def test_mat_keeps_fraction_entries():
    x = Fraction(-1, 2)
    rows = mat([[x, 1, "1/3", 0]] * 4)
    assert rows[0][0] is x
    assert rows[0][1:3] == (1, Fraction(1, 3))
    assert all(type(v) is Fraction for row in rows for v in row)
