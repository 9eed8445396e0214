import subprocess
import sys

import pytest

from paramod import classifier, cli
from paramod.classifier import (
    FAMILIES,
    SurfaceType,
    branch_curve_kind,
    classify,
    degenerate_report,
    h1_tangent,
    moduli_decomposition,
    surface_report,
)
from paramod.doublecover import forest, invariants
from paramod.errors import ConsistencyError
from paramod.lattice import Character, character_table, make_lattice, square_roots
from paramod.orbits import component_report, standard_set
from paramod.paramodular import act, special_generators

TABLE = character_table(make_lattice(2))
TRIVIAL = TABLE.chi[0]
GENS = [g for _, g in special_generators()]
TORSION_DATA = standard_set("torsion64")[0].elements


def test_classify_type_Ia():
    # square root outside the image: psi5 viewed as an order-4 character
    root = TABLE.psi[4].lift4()
    assert classify(TRIVIAL, root) is SurfaceType.Ia


def test_classify_type_Ib():
    root = TABLE.chi[1].lift4()
    assert classify(TRIVIAL, root) is SurfaceType.Ib


def test_classify_type_II():
    q = TABLE.chi[1]
    for root in square_roots(q):
        assert classify(q, root) is SurfaceType.II
        assert any(e % 2 == 1 for e in root.exponents)  # exact order 4


def test_classify_degenerate():
    assert classify(TRIVIAL, Character(4, (0, 0, 0, 0))) is SurfaceType.PG3


def test_classify_outside_image_invalid():
    psi1 = TABLE.psi[0]
    for root in square_roots(psi1):
        assert classify(psi1, root) is SurfaceType.Invalid


def test_classify_rejects_mismatched_root():
    with pytest.raises(ValueError, match="squares to"):
        classify(TABLE.chi[1], Character(4, (0, 0, 0, 0)))


def test_classify_rejects_wrong_orders():
    message = "expected an order-2 character and an order-4 square root"
    with pytest.raises(ValueError, match=message):
        classify(TABLE.chi[1].lift4(), Character(4, (0, 0, 1, 0)))
    # an order-2 root of the trivial Q squares to Q, so only the order check
    # keeps it from being read as an Ib datum
    with pytest.raises(ValueError, match=message):
        classify(TABLE.chi[0], TABLE.chi[1])


def test_pair_counts_match_cover_degrees():
    counts = {t: len(data) for t, data in classifier.torsion_orbits()}
    assert counts[SurfaceType.Ia] == 12
    assert counts[SurfaceType.Ib] == 3
    assert counts[SurfaceType.II] == 48
    assert counts[SurfaceType.PG3] == 1
    assert SurfaceType.Invalid not in counts
    # the partition is built once per process; a caller's edits stay its own
    pair_counts = moduli_decomposition()["pair_counts"]
    pair_counts["Ia"] = 0
    del pair_counts["II"]
    assert moduli_decomposition()["pair_counts"] == {"Ia": 12, "Ib": 3, "II": 48}


def test_second_moduli_call_classifies_nothing(monkeypatch):
    calls = []

    def counted(q, root, classify=classifier.classify):
        calls.append((q, root))
        return classify(q, root)

    monkeypatch.setattr(classifier, "classify", counted)
    classifier.torsion_orbits.cache_clear()
    assert cli.main(["moduli"]) == 0
    assert len(calls) == 64
    assert cli.main(["moduli"]) == 0
    assert len(calls) == 64


def test_moduli_type_without_torsion_data_is_an_internal_failure(monkeypatch, capsys):
    # with no torsion datum of type II its count is 0, and the one cover-degree
    # check, run when the partition is built, fails with exit 1; the component
    # report, called on its own, raises the same message from the same check
    def without_type_ii(q, root, classify=classifier.classify):
        t = classify(q, root)
        return SurfaceType.Invalid if t is SurfaceType.II else t

    monkeypatch.setattr(classifier, "classify", without_type_ii)
    classifier.torsion_orbits.cache_clear()
    try:
        code = cli.main(["moduli"])
        with pytest.raises(ConsistencyError,
                           match=r"^type II: 0 torsion data but cover degree 48$"):
            component_report()
    finally:
        classifier.torsion_orbits.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "internal cross-check failure: type II: 0 torsion data but cover degree 48\n"


_IA_DATUM = (TRIVIAL, TABLE.psi[4].lift4())
_IB_DATUM = (TRIVIAL, TABLE.chi[1].lift4())


@pytest.mark.parametrize("retyped, message", [
    # one Ia and one Ib datum swap types: the counts stay 12 and 3, and only
    # the orbit check sees that the type is not constant on the Ia orbit
    ({_IA_DATUM: SurfaceType.Ib, _IB_DATUM: SurfaceType.Ia},
     "torsion-data orbit of (chi0, 0,0,0,2) has types ['Ia', 'Ib'], earlier orbits ['pg3']"),
    # every Ib datum typed Ia: each orbit keeps one type, but Ia labels two
    ({datum: SurfaceType.Ia for datum in TORSION_DATA
      if classify(*datum) is SurfaceType.Ib},
     "torsion-data orbit of (chi0, 0,0,2,0) has types ['Ia'], earlier orbits ['pg3', 'Ia']"),
], ids=["swap-Ia-Ib", "merge-Ib-into-Ia"])
def test_moduli_type_not_one_orbit_is_an_internal_failure(monkeypatch, capsys, retyped,
                                                          message):
    def patched(q, root, classify=classifier.classify):
        return retyped.get((q, root)) or classify(q, root)

    monkeypatch.setattr(classifier, "classify", patched)
    classifier.torsion_orbits.cache_clear()
    try:
        code = cli.main(["moduli"])
    finally:
        classifier.torsion_orbits.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"internal cross-check failure: {message}\n"


def test_moduli_builds_only_the_torsion_set_in_a_fresh_process():
    code = (
        "import contextlib, io\n"
        "from paramod import classifier, cli, orbits\n"
        "calls = []\n"
        "def counted(q, root, classify=classifier.classify):\n"
        "    calls.append((q, root))\n"
        "    return classify(q, root)\n"
        "classifier.classify = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['moduli']) == 0\n"
        "built = orbits.standard_set.cache_info().misses\n"
        "orbits.standard_set('torsion64')\n"
        "print(built, orbits.standard_set.cache_info().misses, len(calls))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    # one set was built, and asking for the torsion set builds nothing more
    assert out.split() == ["1", "1", "64"]


@pytest.mark.parametrize("t", list(FAMILIES))
def test_stated_cover_degree_checked_by_counts_and_orbits(monkeypatch, capsys, t):
    # the partition checks the cover degrees once, when it is built: a stated
    # degree one too high fails the CLI and both reports with one message
    family = FAMILIES[t]
    n = family.cover_degree
    message = f"type {t.value}: {n} torsion data but cover degree {n + 1}"
    monkeypatch.setitem(FAMILIES, t, family._replace(cover_degree=n + 1))
    classifier.torsion_orbits.cache_clear()
    try:
        code = cli.main(["moduli"])
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            moduli_decomposition()
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            component_report()
    finally:
        classifier.torsion_orbits.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"internal cross-check failure: {message}\n"


def test_importing_classifier_builds_no_table():
    code = ("import paramod.classifier; from paramod.lattice import character_table; "
            "print(character_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0"]


def test_three_types_over_nontrivial_data():
    types = {classify(q, root) for q, root in TORSION_DATA if not root.is_trivial()}
    assert types == {SurfaceType.Ia, SurfaceType.Ib, SurfaceType.II}


def test_classification_constant_on_orbits():
    violations = 0
    for q, root in TORSION_DATA:
        t = classify(q, root)
        for m in GENS:
            if classify(act(m, q), act(m, root)) is not t:
                violations += 1
    assert violations == 0


@pytest.mark.parametrize("t,dim,degree,h1,genus", [
    (SurfaceType.Ia, 4, 12, 4, 5),
    (SurfaceType.Ib, 4, 3, 4, 3),
    (SurfaceType.II, 3, 48, 3, 5),
])
def test_surface_report_table(t, dim, degree, h1, genus):
    rep = surface_report(t)
    assert (rep["pg"], rep["q"], rep["K2"]) == (2, 2, 6)
    assert rep["chi"] == 1 - rep["q"] + rep["pg"] == 1
    assert rep["moduli"]["dimension"] == dim
    assert rep["moduli"]["cover_degree"] == degree
    assert rep["h1_TS"] == h1
    assert rep["pencil_genus"] == genus


def test_h1_recomputed_from_normal_sheaf():
    for t in (SurfaceType.Ia, SurfaceType.Ib, SurfaceType.II):
        rep = surface_report(t)
        assert rep["h1_TS"] == 3 + rep["h0_N_beta"]
        assert rep["h0_N_beta"] == (1 if rep["N_beta"] == "trivial" else 0)
    assert h1_tangent(True) == 4
    assert h1_tangent(False) == 3


def test_surface_report_type_Ia_shape():
    rep = surface_report(SurfaceType.Ia)
    assert rep["phi_z"] == 8
    assert not rep["canonical_fixed_part"]
    assert rep["R_relation"] == "2R in |Phi|"
    assert rep["N_beta"] == "trivial"


def test_surface_report_type_Ib_shape():
    rep = surface_report(SurfaceType.Ib)
    assert rep["canonical_fixed_part"]
    assert "Z + |Phi|" in rep["canonical_description"]
    assert rep["R_relation"] == "R in |Phi|"


def test_surface_report_type_II_shape():
    rep = surface_report(SurfaceType.II)
    assert rep["phi_z"] == 8
    assert not rep["canonical_fixed_part"]
    assert rep["R_relation"] == "R = R1 + R2 with 4R1, 4R2 in |Phi|"
    assert rep["N_beta"] == "nontrivial-2-torsion"
    assert rep["K_ample"] == "every surface has ample canonical class"


def test_surface_report_rejects_degenerate():
    with pytest.raises(ValueError):
        surface_report(SurfaceType.PG3)
    with pytest.raises(ValueError):
        surface_report(SurfaceType.Invalid)


def test_degenerate_report():
    rep = degenerate_report()
    assert (rep["pg"], rep["q"], rep["K2"]) == (3, 3, 6)
    assert "symmetric square" in rep["note"]


def test_branch_curve_kind():
    assert branch_curve_kind(SurfaceType.II)["case"] == "(iii)"
    assert branch_curve_kind(SurfaceType.II)["disconnected_on_blowup"]
    assert branch_curve_kind(SurfaceType.Ia)["case"] == "(i)/(ii)"
    assert branch_curve_kind(SurfaceType.Ia) == branch_curve_kind(SurfaceType.Ib)
    with pytest.raises(ValueError):
        branch_curve_kind(SurfaceType.Invalid)


def test_moduli_decomposition():
    dec = moduli_decomposition()
    assert dec["component_count"] == 3
    assert dec["dimensions"] == [4, 4, 3]
    assert [c["name"] for c in dec["components"]] == ["Ia", "Ib", "II"]
    assert dec["pair_counts"] == {"Ia": 12, "Ib": 3, "II": 48}
    assert dec["degenerate_pairs"] == 1
    by_name = {c["name"]: c for c in dec["components"]}
    assert by_name["II"]["dimension"] == 3
    assert by_name["Ia"]["dimension"] == 4
    for c in dec["components"]:
        assert c["generically_smooth"] and c["connected"] and c["irreducible"]


def test_valid_pair_universe_size():
    assert len(TORSION_DATA) == 64
    assert len(set(TORSION_DATA)) == 64
    assert set(TORSION_DATA) == {(q, r) for q in TABLE.chi for r in square_roots(q)}


def test_pencil_genus_derived_from_cover_geometry():
    # the canonical pencil on the surface pulls back the genus-3 pencil on
    # the blow-up: an irreducible double cover is etale over a member
    # (pencil self-intersection 0), so its genus is 2g - 1 = 5; the split
    # case keeps two genus-3 copies
    from paramod.chern import BlowupLineBundle, blowup_intersection, genus_blowup_divisor
    pencil = BlowupLineBundle(2, -4)
    assert blowup_intersection(pencil, pencil) == 0
    g = genus_blowup_divisor(pencil)
    assert surface_report(SurfaceType.Ia)["pencil_genus"] == 2 * g - 1 == 5
    assert surface_report(SurfaceType.II)["pencil_genus"] == 2 * g - 1 == 5
    assert surface_report(SurfaceType.Ib)["pencil_genus"] == g == 3


def test_phi_z_derived_from_intersection_numbers():
    # Phi.Z = (pullback of pencil member).(pullback of exceptional curve)
    # = 2 * (D.E) for the irreducible pullback, half that per component
    # when the pullback splits
    from paramod.chern import BlowupLineBundle, blowup_intersection
    d_dot_e = blowup_intersection(BlowupLineBundle(2, -4), BlowupLineBundle(0, 1))
    assert surface_report(SurfaceType.Ia)["phi_z"] == 2 * d_dot_e == 8
    assert surface_report(SurfaceType.II)["phi_z"] == 2 * d_dot_e == 8
    assert surface_report(SurfaceType.Ib)["phi_z"] == d_dot_e == 4


def test_branch_kind_consistent_with_scenarios():
    # (i) and (iii) have one ordinary quadruple point, (ii) adds a node
    forests = {"(i)": [("p", 4)], "(ii)": [("p", 4), ("n", 2)], "(iii)": [("p", 4)]}
    assert branch_curve_kind(SurfaceType.II)["case"] == "(iii)"
    for t in (SurfaceType.Ia, SurfaceType.Ib):
        for case in ("(i)", "(ii)"):
            assert case in branch_curve_kind(t)["case"]
    for t in (SurfaceType.Ia, SurfaceType.Ib, SurfaceType.II):
        rep = surface_report(t)
        cases = [case for case in forests if case in rep["branch_kind"]]
        assert cases
        for case in cases:
            inv = invariants(4, forest(forests[case]))
            assert (inv.chi, inv.K2_resolved) == (rep["chi"], rep["K2"])
