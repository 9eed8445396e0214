from itertools import product

import pytest

from paramod.lattice import (
    Character,
    TorsionPoint,
    character_table,
    character_to_json,
    im_phi2,
    k_group,
    make_lattice,
    pairing,
    parse_character,
    phi2,
    square_roots,
    two_torsion_points,
)


def basis_vector(j):
    return tuple(1 if i == j else 0 for i in range(4))


L1, L2, M1, M2 = (basis_vector(j) for j in range(4))


def test_make_lattice_form_d2():
    lat = make_lattice(2)
    assert lat.form == ((0, 0, 1, 0), (0, 0, 0, 2), (-1, 0, 0, 0), (0, -2, 0, 0))
    assert pairing(lat, L2, M2) == 2


def test_make_lattice_principal():
    lat = make_lattice(1)
    assert lat.form == ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def test_make_lattice_d3():
    assert pairing(make_lattice(3), L2, M2) == 3


def test_make_lattice_rejects_zero():
    with pytest.raises(ValueError):
        make_lattice(0)


def test_pairing_values():
    lat = make_lattice(2)
    assert pairing(lat, L1, M1) == 1
    assert pairing(lat, M1, L1) == -1
    assert pairing(lat, M2, L2) == -2
    assert pairing(lat, L1, L2) == 0


def test_pairing_antisymmetric():
    lat = make_lattice(2)
    vectors = [L1, L2, M1, M2, (1, 2, 3, 4), (-1, 0, 5, 2)]
    for x in vectors:
        assert pairing(lat, x, x) == 0
        for y in vectors:
            assert pairing(lat, x, y) == -pairing(lat, y, x)


def test_phi2_basis_images():
    lat = make_lattice(2)
    table = character_table(lat)
    assert phi2(lat, TorsionPoint(2, (1, 0, 0, 0))) == table.chi[1]
    assert phi2(lat, TorsionPoint(2, (0, 0, 1, 0))) == table.chi[2]
    assert phi2(lat, TorsionPoint(2, (0, 0, 0, 0))).is_trivial()
    assert phi2(lat, TorsionPoint(2, (0, 1, 0, 0))).is_trivial()
    assert phi2(lat, TorsionPoint(2, (0, 0, 0, 1))).is_trivial()


def test_phi2_sign_oracle():
    # phi2(x/2) evaluated on basis_j must be (-1)^E(x, basis_j)
    lat = make_lattice(2)
    for x in two_torsion_points():
        c = phi2(lat, x)
        for j in range(4):
            expected = (-1) ** (pairing(lat, x.coords, basis_vector(j)) % 2)
            assert c.values()[j] == expected


def char_mul(a, b):
    """Product of two characters of one order bound: exponents add mod n."""
    return Character(a.n, tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def test_phi2_is_homomorphism():
    lat = make_lattice(2)
    pts = two_torsion_points()
    for x in pts:
        for y in pts:
            s = TorsionPoint(2, tuple(a + b for a, b in zip(x.coords, y.coords)))
            assert phi2(lat, s) == char_mul(phi2(lat, x), phi2(lat, y))


def test_k_group_d2():
    got = {x.coords for x in k_group(make_lattice(2))}
    assert got == {(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)}


def test_k_group_members_map_to_trivial():
    lat = make_lattice(2)
    for x in k_group(lat):
        assert phi2(lat, x).is_trivial()


def test_k_group_principal_brute_force():
    # oracle: a 2-division point is in the kernel iff all its pairings with
    # the basis are even
    lat = make_lattice(1)
    expected = [
        x for x in two_torsion_points()
        if all(pairing(lat, x.coords, basis_vector(j)) % 2 == 0 for j in range(4))
    ]
    assert k_group(lat) == expected
    assert [x.coords for x in expected] == [(0, 0, 0, 0)]


def test_im_phi2_d2():
    lat = make_lattice(2)
    image = im_phi2(lat)
    assert len(image) == 4
    for c in image:
        assert c.exponents[1] == 0 and c.exponents[3] == 0
    psi5 = Character(2, (0, 1, 1, 0))
    assert psi5 not in image
    assert Character(2, (0, 0, 0, 0)) in image


def test_im_phi2_principal_is_everything():
    got = set(im_phi2(make_lattice(1)))
    brute = {Character(2, e) for e in product(range(2), repeat=4)}
    assert got == brute


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rank_kernel_counting(d):
    lat = make_lattice(d)
    assert len(im_phi2(lat)) * len(k_group(lat)) == 16


def test_square_roots_of_trivial():
    roots = square_roots(Character(2, (0, 0, 0, 0)))
    assert len(roots) == 16
    assert {r.exponents for r in roots} == set(product((0, 2), repeat=4))


def test_order_2_only_operations_reject_order_4():
    with pytest.raises(ValueError, match="lift4 expects an order-2 character"):
        Character(4, (1, 0, 0, 0)).lift4()
    with pytest.raises(ValueError, match="phi2 expects an order-2 torsion point"):
        phi2(make_lattice(2), TorsionPoint(4, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match="square roots are taken of order-2 characters"):
        square_roots(Character(4, (2, 0, 0, 0)))


def test_square_of_an_order_2_character_is_trivial():
    for exps in product(range(2), repeat=4):
        assert Character(2, exps).square().is_trivial()


def test_square_roots_of_chi1():
    roots = square_roots(Character(2, (0, 0, 1, 0)))
    assert {r.exponents for r in roots} == {
        (a, b, c, d) for a in (0, 2) for b in (0, 2) for c in (1, 3) for d in (0, 2)
    }


def test_square_roots_brute_force_all_characters():
    for exps in product(range(2), repeat=4):
        c = Character(2, exps)
        brute = [
            Character(4, r) for r in product(range(4), repeat=4)
            if Character(4, r).square() == c
        ]
        assert square_roots(c) == sorted(brute)
        assert len(brute) == 16
        for r in square_roots(c):
            assert r.square() == c


def test_character_table_entries():
    table = character_table(make_lattice(2))
    assert table.chi[0].values() == (1, 1, 1, 1)
    assert table.chi[1].values() == (1, 1, -1, 1)
    assert table.chi[2].values() == (-1, 1, 1, 1)
    assert table.chi[3].values() == (-1, 1, -1, 1)
    assert table.psi[0].values() == (1, 1, 1, -1)
    assert table.psi[11].values() == (-1, -1, -1, -1)


def test_character_table_verbatim():
    expected_psi = [
        (1, 1, 1, -1), (1, 1, -1, -1), (1, -1, 1, 1), (1, -1, 1, -1),
        (1, -1, -1, 1), (1, -1, -1, -1), (-1, 1, 1, -1), (-1, 1, -1, -1),
        (-1, -1, 1, 1), (-1, -1, 1, -1), (-1, -1, -1, 1), (-1, -1, -1, -1),
    ]
    table = character_table(make_lattice(2))
    assert [p.values() for p in table.psi] == expected_psi


def test_character_table_partition():
    table = character_table(make_lattice(2))
    chars = table.all_characters()
    assert len(chars) == 16
    assert len(set(chars)) == 16
    trivial = [c for c in chars if c.is_trivial()]
    assert len(trivial) == 1
    assert len(table.chi) - 1 == 3
    assert len(table.psi) == 12


def test_character_table_requires_d2():
    with pytest.raises(ValueError):
        character_table(make_lattice(1))


def test_character_labels():
    table = character_table(make_lattice(2))
    assert table.label_of(Character(2, (0, 0, 1, 0))) == "chi1"
    assert table.label_of(Character(2, (0, 1, 1, 0))) == "psi5"


def test_character_values_mod4():
    c = Character(4, (0, 1, 2, 3))
    assert c.values() == ("1", "i", "-1", "-i")


def test_character_serialization():
    c = Character(2, (0, 1, 1, 0))
    out = character_to_json(c)
    assert {"n": out["n"], "exp": out["exp"]} == {"n": 2, "exp": [0, 1, 1, 0]}


def test_parse_character():
    table = character_table(make_lattice(2))
    assert parse_character("psi5", 2) == Character(2, (0, 1, 1, 0))
    assert parse_character("chi1", 4) == Character(4, (0, 0, 2, 0))
    assert parse_character("1,0,3,2", 4) == Character(4, (1, 0, 3, 2))
    with pytest.raises(ValueError):
        parse_character("psi13", 2)
    with pytest.raises(ValueError, match="expected 4 comma-separated integers for "
                                         "character exponents, got '1,2'"):
        parse_character("1,2", 2)
    # fields are ASCII digits after strip(), exponents with an optional sign;
    # int() alone reads "psi1_0" as psi10, "psi\u0661" as psi1, "chi-0" as chi0
    assert parse_character(" -1, +2 ,0,3", 4) == Character(4, (3, 2, 0, 3))
    assert parse_character(" psi 1 ", 2) == table.psi[0]
    for text in ("psi1_0", "psi\u0661", "chi-0", "psi+1"):
        with pytest.raises(ValueError, match="malformed character label"):
            parse_character(text, 2)
    for text in ("1_0,0,0,0", "0,0,\u0661,0"):
        with pytest.raises(ValueError, match="non-integer value in character exponents"):
            parse_character(text, 2)


def test_character_to_json_labels_order_2_only():
    table = character_table(make_lattice(2))
    assert character_to_json(table.psi[4]) == {
        "n": 2, "exp": [0, 1, 1, 0], "values": [1, -1, -1, 1], "label": "psi5"}
    # an order-4 character has no label, not even the lift of a labeled one
    assert character_to_json(table.chi[1].lift4()) == {
        "n": 4, "exp": [0, 0, 2, 0], "values": ["1", "1", "-1", "1"]}


def test_character_rejects_bad_order():
    with pytest.raises(ValueError):
        Character(3, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        TorsionPoint(5, (0, 0, 0, 0))
