import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from paramod import chern, classifier, cli, orbits, paramodular
from paramod.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbits_characters2(capsys):
    code, out, _ = run_cli(capsys, ["orbits", "--set", "characters2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_sizes"] == [1, 3, 12]
    assert not payload["transitive"]


def test_orbits_closure_takes_no_cap(capsys):
    # the closure is always psi12 under the six generators, so a cap could only
    # truncate it; the option is rejected, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--set", "psi12", "--closure", "--cap", "5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --cap 5" in err


def test_orbits_pairs48(capsys):
    code, out, _ = run_cli(capsys, ["orbits", "--set", "pairs48"])
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_sizes"] == [48]
    assert payload["transitive"]


def test_orbits_closure(capsys):
    code, out, _ = run_cli(capsys, ["orbits", "--set", "psi12", "--closure"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"]["transitive"]
    assert payload["permutations"]["J"] == \
        "(psi1 psi3)(psi2 psi9)(psi5 psi7)(psi6 psi10)(psi8 psi11)"


def test_membership_identity(capsys):
    matrix = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, ["membership", "--matrix", matrix])
    assert code == 0
    payload = json.loads(out)
    assert payload["member"]


def test_membership_builds_the_monodromy_once(monkeypatch, capsys):
    # one is_member pass checks the matrix and builds N; stdout is the stored bytes
    calls = []
    check = paramodular.is_member

    def counted(*args):
        calls.append(args)
        return check(*args)

    # both references are patched, so a call through member would count too
    monkeypatch.setattr(paramodular, "is_member", counted)
    monkeypatch.setattr(cli, "is_member", counted)
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    for key in ("membership --matrix 0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0",
                "--format text membership --matrix 0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"):
        calls.clear()
        assert main(key.split(" ")) == 0
        assert capsys.readouterr().out == stored[key]
        assert len(calls) == 1, key


def test_membership_rejection(capsys):
    matrix = "1,0,0,0,0,1,0,0,0,0,1,0,0,1/3,0,1"
    code, out, _ = run_cli(capsys, ["membership", "--matrix", matrix])
    assert code == 0
    payload = json.loads(out)
    assert not payload["member"]
    assert payload["first_violation"]["row"] == 4


def test_membership_takes_any_d_from_1(capsys):
    # --d is checked against 1, not the default 2
    matrix = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, ["membership", "--matrix", matrix, "--d", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["member"]


def test_membership_text_non_member(capsys):
    matrix = "1,0,0,1,0,1,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, ["--format", "text", "membership", "--matrix", matrix])
    assert code == 0
    assert out.splitlines() == ["not a member",
                                "first violation at (1, 4): entry 1 not in 2*Z"]


def test_membership_bad_input(capsys):
    code, _, err = run_cli(capsys, ["membership", "--matrix", "1,2,3"])
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("entry, reason", [
    ("1e1000000", "is not an integer or p/q"),
    ("0.5", "is not an integer or p/q"),
    ("1_000", "is not an integer or p/q"),
    ("\u0661", "is not an integer or p/q"),
    ("1" * 5000, "has more digits than Python parses into an integer"),
    ("1/0", "has denominator 0"),
], ids=["exponent", "decimal", "underscore", "non-ascii-digit", "5000-digits",
        "zero-denominator"])
def test_membership_entry_outside_grammar_exits_2(capsys, entry, reason):
    # entries are [+-]digits or [+-]digits/digits, ASCII only, so an entry's
    # cost is bounded by its length; the message names the entry, not its digits
    matrix = ",".join(["1"] * 5 + [entry] + ["0"] * 10)
    code, out, err = run_cli(capsys, ["membership", "--matrix", matrix])
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: entry 6 {reason}")
    assert len(err) < 100


def test_act_generator(capsys):
    code, out, _ = run_cli(capsys, ["act", "--gen", "J", "--char", "psi1"])
    assert code == 0
    assert json.loads(out)["result"]["label"] == "psi3"
    # the default order, given explicitly
    assert run_cli(capsys, ["act", "--gen", "J", "--char", "psi1", "--n", "2"]) == (0, out, "")


def test_act_matrix_takes_a_d2_member(capsys):
    # --matrix is read as a d=2 element: J's matrix acts as --gen J does
    j_matrix = "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"
    code, out, _ = run_cli(capsys, ["act", "--matrix", j_matrix, "--char", "psi1"])
    assert code == 0
    assert run_cli(capsys, ["act", "--gen", "J", "--char", "psi1"]) == (0, out, "")


def test_act_matrix(capsys):
    matrix = "1,0,1,0,0,1,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, ["act", "--matrix", matrix, "--char", "psi2"])
    assert code == 0
    assert json.loads(out)["result"]["label"] == "psi8"


def test_act_mod4(capsys):
    code, out, _ = run_cli(capsys, ["act", "--gen", "J", "--char", "0,0,1,0",
                                    "--n", "4"])
    assert code == 0
    assert json.loads(out)["result"]["exp"] == [1, 0, 0, 0]


def test_act_text_unlabeled_input(capsys):
    # chi1 read mod 4 has no label, and neither has its image
    code, out, _ = run_cli(capsys, ["--format", "text", "act", "--gen", "J",
                                    "--char", "chi1", "--n", "4"])
    assert code == 0
    assert out.splitlines()[0] == "0,0,2,0 -> 2,0,0,0"


def test_classify_type_II(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--Q", "chi1", "--root", "0,0,1,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "II"
    assert payload["report"]["moduli"]["dimension"] == 3


def test_classify_invalid_teaches_emptiness(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--Q", "psi1", "--root", "0,0,0,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "invalid"
    assert "empty" in payload["reason"]


def test_classify_degenerate(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--Q", "chi0", "--root", "0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "pg3"
    assert payload["report"]["pg"] == 3


def test_classify_text_outside_image_prints_reason(capsys):
    code, out, _ = run_cli(capsys, ["--format", "text", "classify", "--Q", "psi1",
                                    "--root", "0,0,0,1"])
    assert code == 0
    assert out.splitlines() == ["Q = psi1, root exponents [0, 0, 0, 1]: type invalid",
                                "  " + classifier.invalid_reason()]


def test_classify_mismatched_root(capsys):
    code, _, err = run_cli(capsys, ["classify", "--Q", "chi1", "--root", "1,0,1,0"])
    assert code == 2
    assert "squares to" in err


def test_invariants(tmp_path, capsys):
    forest = tmp_path / "forest.json"
    forest.write_text(json.dumps(
        {"L2": 4, "nodes": [{"id": "p", "d": 4}]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["invariants", "--forest", str(forest)])
    assert code == 0
    payload = json.loads(out)
    assert (payload["chi"], payload["K2_resolved"]) == (1, 6)


def test_invariants_3000_node_chain(tmp_path, capsys):
    # one chain, every tenth point a quadruple point; the ids sort unlike ranks
    nodes = [{"id": str(k), "d": 4 if k % 10 == 0 else 2,
              "parent": str(k - 1) if k else None} for k in range(3000)]
    payload = {"L2": 6000, "nodes": nodes[::-1]}
    forest = tmp_path / "chain.json"
    forest.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["invariants", "--forest", str(forest)])
    assert code == 0
    ms = [n["d"] // 2 for n in nodes]
    chi = (payload["L2"] - sum(m * (m - 1) for m in ms)) // 2
    result = json.loads(out)
    assert (result["chi"], result["K2_resolved"]) == (chi, 2 * 6000 - 2 * 300)
    assert result["negligible_ids"] == sorted(str(k) for k in range(2991, 3000))


def test_invariants_missing_file(capsys):
    code, _, err = run_cli(capsys, ["invariants", "--forest", "/nonexistent.json"])
    assert code == 2
    assert "invalid input" in err


def test_invariants_lone_surrogate_id(tmp_path):
    # valid JSON whose negligible node id is a lone surrogate: the JSON format
    # escapes it; UTF-8 text cannot hold it, so text output is bad input.  A
    # subprocess, because only a real stdout encodes what it is given
    forest = tmp_path / "surrogate.json"
    forest.write_text('{"L2": 8, "nodes": [{"id": "p", "d": 4},'
                      ' {"id": "\\ud800", "d": 2, "parent": "p"}]}', encoding="ascii")
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}

    def run(*fmt):
        return subprocess.run([sys.executable, "-m", "paramod", *fmt, "invariants",
                               "--forest", str(forest)], capture_output=True, env=env)

    text = run("--format", "text")
    assert (text.returncode, text.stdout) == (2, b"")
    assert text.stderr.decode() == ("invalid input: '\\ud800' cannot be written as utf-8 "
                                    "text; --format json escapes it\n")
    out = run()
    assert (out.returncode, out.stderr) == (0, b"")
    assert b'"\\ud800"' in out.stdout
    assert json.loads(out.stdout)["negligible_ids"] == ["\ud800"]


_NINES = "9" * 3000
# a forest whose chi and K^2 (quadratic in d) have more than 4300 digits
_LONG_D_FOREST = '{"L2": 4, "nodes": [{"id": "p", "d": %s}]}' % ("8" * 2200)


@pytest.mark.parametrize("fmt", [[], ["--format", "text"]], ids=["json", "text"])
@pytest.mark.parametrize("argv", [
    ["chern", "--bundle", f"1,{_NINES},0"],
    ["chern", "--blowup", f"{_NINES},1"],
    ["invariants", "--forest", "long_d.json"],
], ids=["bundle", "blowup", "invariants"])
def test_integer_too_long_to_print_exits_2(tmp_path, monkeypatch, capsys, argv, fmt):
    # the result holds an int longer than the interpreter's 4300-digit limit on
    # str(); both formats build the whole output before writing any of it
    (tmp_path / "long_d.json").write_text(_LONG_D_FOREST, encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, fmt + argv)
    assert (code, out) == (2, "")
    assert err == ("invalid input: the output holds an integer with more digits "
                   "than Python writes as text\n")


_TEN_3000 = "1" + "0" * 3000
# cells (1,3) and (3,1) of 10^3000 put entries of 6000 digits into N^T E N
_LONG_FORM_MATRIX = f"1,0,{_TEN_3000},0,0,1,0,0,{_TEN_3000},0,1,0,0,0,0,1"
# a (2d, 2d+2) pair with d about 10^2200: its K^2 note needs 4400 digits
_LONG_PAIR_FOREST = '{"L2": 4, "nodes": [{"id": "p", "d": 2%s},' \
                    ' {"id": "q", "d": 2%s, "parent": "p"}]}' % ("0" * 2200, "0" * 2199 + "2")


@pytest.mark.parametrize("argv,message", [
    (["membership", "--matrix", _LONG_FORM_MATRIX],
     "the output holds an integer with more digits than Python writes as text"),
    (["invariants", "--forest", "long_pair.json"],
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["membership", "invariants"])
def test_integer_too_long_to_print_in_handler_exits_2(tmp_path, monkeypatch, capsys,
                                                      argv, message):
    # the handler itself writes the too-long int into a message: the form
    # violation's reason, or the forest's K^2 note.  doublecover imports nothing
    # from the package, so the forest case keeps Python's own message
    (tmp_path / "long_pair.json").write_text(_LONG_PAIR_FOREST, encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: {message}")
    assert err.count("\n") == 1


def _invariants_text_lines(capsys, tmp_path, nodes):
    forest = tmp_path / "forest.json"
    forest.write_text(json.dumps({"L2": 8, "nodes": nodes}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["--format", "text", "invariants", "--forest", str(forest)])
    assert (code, err) == (0, "")
    return out.splitlines()


def test_invariants_text_quotes_id_with_newline(capsys, tmp_path):
    # an id holding a newline is written as a JSON string, so it cannot forge a line
    forged = "a b\nL2 = 99: chi = 7"
    lines = _invariants_text_lines(capsys, tmp_path, [{"id": "p", "d": 4},
                                                      {"id": forged, "d": 2, "parent": "p"},
                                                      {"id": "q", "d": 2, "parent": "p"}])
    assert lines == ["L2 = 8: chi = 3, K^2 (resolved) = 14",
                     '  negligible: "a b\\nL2 = 99: chi = 7" q']


def test_invariants_text_quotes_id_with_space(capsys, tmp_path):
    lines = _invariants_text_lines(capsys, tmp_path, [{"id": "x y", "d": 2},
                                                      {"id": "z", "d": 2}])
    assert lines[1] == '  negligible: "x y" z'


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=6))
def test_id_text_raw_only_when_plain(node_id):
    plain = bool(node_id) and not any(
        c.isspace() or unicodedata.category(c) == "Cc" or c == '"' for c in node_id)
    written = cli._id_text(node_id)
    assert (written == node_id) == plain
    if not plain:
        assert json.loads(written) == node_id


def test_chern_bundle(capsys):
    code, out, _ = run_cli(capsys, ["chern", "--bundle", "2,1,1"])
    assert code == 0
    assert json.loads(out)["chi"] == 1


def test_chern_bundle_wrong_count_exits_2(capsys):
    code, out, err = run_cli(capsys, ["chern", "--bundle", "1,2"])
    assert code == 2
    assert out == ""
    assert "expected 3 comma-separated integers for --bundle" in err


def test_chern_blowup(capsys):
    code, out, _ = run_cli(capsys, ["chern", "--blowup", "2,-4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == -2
    assert payload["smooth_member_genus"] == 3


def test_negative_leading_values_accepted(capsys):
    code, out, _ = run_cli(capsys, ["chern", "--blowup", "-1,2"])
    assert code == 0
    assert json.loads(out)["chi"] == 1
    minus_identity = ",".join(["-1,0,0,0", "0,-1,0,0", "0,0,-1,0", "0,0,0,-1"])
    code, out, _ = run_cli(capsys, ["membership", "--matrix", minus_identity])
    assert code == 0
    assert json.loads(out)["member"]
    # a merged negative value is followed by the next option, not skipped past it
    code, out, _ = run_cli(capsys, ["act", "--char", "-1,0,0,1", "--gen", "J"])
    assert code == 0
    assert json.loads(out)["input"]["exp"] == [1, 0, 0, 1]


def test_moduli(capsys):
    code, out, _ = run_cli(capsys, ["moduli"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimensions"] == [4, 4, 3]
    degrees = [c["cover_degree"]
               for c in payload["covers"]["marked_2torsion_space"]["components"]]
    assert degrees == [12, 3]


def test_ledger(capsys):
    code, out, _ = run_cli(capsys, ["ledger"])
    assert code == 0
    payload = json.loads(out)
    assert all(c["ok"] for c in payload["chi_additivity"])


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, ["--format", "text", "orbits",
                                    "--set", "characters2"])
    assert code == 0
    assert "orbit sizes [1, 3, 12]" in out
    code, out, _ = run_cli(capsys, ["--format", "text", "classify",
                                    "--Q", "chi0", "--root", "psi5"])
    assert code == 0
    assert "type Ia" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_generator_exits_2(capsys):
    code, _, err = run_cli(capsys, ["act", "--gen", "nope", "--char", "psi1"])
    assert code == 2
    assert "unknown generator" in err


def test_internal_cross_check_failure_exits_1(monkeypatch, capsys):
    from paramod.errors import ConsistencyError

    def boom():
        raise ConsistencyError("forced for the exit-code test")

    # the cached parser holds the handlers themselves, so patch what they call
    monkeypatch.setattr(classifier, "moduli_decomposition", boom)
    code, _, err = run_cli(capsys, ["moduli"])
    assert code == 1
    assert "internal cross-check failure" in err


# where a fault is injected, and a command that reaches it
_FAULT_SITES = {
    "closure": (orbits, "psi12_closure", ["orbits", "--set", "psi12", "--closure"]),
    "tables": (orbits, "_tables", ["orbits", "--set", "psi12"]),
    "act": (paramodular, "act", ["act", "--gen", "J", "--char", "psi1"]),
    "ledger": (chern, "dimension_ledger", ["ledger"]),
}


@pytest.mark.parametrize("site,error", [
    *(pytest.param(site, IndexError, id=site) for site in ("closure", "act", "ledger")),
    pytest.param("tables", IndexError, id="tables-IndexError"),
    *(pytest.param(site, error, id=f"{site}-{error.__name__}")
      for site in ("tables", "act", "ledger") for error in (ValueError, KeyError)),
])
def test_other_handler_exceptions_exit_1(monkeypatch, capsys, site, error):
    # an exception outside the contract's types is a bug: exit 1 with a one-line
    # message, not a traceback.  Only InputError is bad input, so a plain
    # ValueError or KeyError from code that reads no input exits 1 too.  cli
    # and orbits import act by name, so patch every namespace that holds the
    # function; the standard sets are cached, so _tables runs only on a rebuild
    module, name, argv = _FAULT_SITES[site]
    exc = error("forced for the exit-code test")

    def boom(*args):
        raise exc

    original = getattr(module, name)
    for namespace in (cli, orbits, paramodular, chern):
        if getattr(namespace, name, None) is original:
            monkeypatch.setattr(namespace, name, boom)
    orbits.standard_set.cache_clear()
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"internal error: {error.__name__}: {exc}\n"


def test_standard_set_leaving_its_set_exits_1(monkeypatch, capsys):
    # a table that sends a psi12 character out of the set fails _tables' check,
    # a plain ValueError: a bug, not bad input
    orbits.standard_set.cache_clear()
    monkeypatch.setattr(orbits, "act", lambda m, c: c.lift4())
    code, out, err = run_cli(capsys, ["orbits", "--set", "psi12"])
    assert (code, out) == (1, "")
    assert err.startswith("internal error: ValueError: set is not stable: psi1 is sent to ")
    assert err.count("\n") == 1


class _Unprintable:
    def __str__(self):
        raise ValueError("renderer bug")


@pytest.mark.parametrize("module,name,payload,argv,error", [
    (chern, "dimension_ledger", [{}], ["--format", "text", "ledger"], "KeyError: 'h0'"),
    (classifier, "moduli_decomposition", {}, ["--format", "text", "moduli"],
     "KeyError: 'component_count'"),
    (chern, "dimension_ledger", [{"h0": _Unprintable()}], ["--format", "text", "ledger"],
     "ValueError: renderer bug"),
], ids=["ledger", "moduli", "ledger-valueerror"])
def test_text_renderer_exceptions_exit_1(monkeypatch, capsys, module, name, payload, argv,
                                         error):
    # a payload the renderer cannot read makes it raise while stdout is still
    # empty: a bug, so exit 1 with a one-line message, not a traceback; a
    # ValueError counts as bad input only when the payload holds an int too
    # long to print, and this one holds none
    monkeypatch.setattr(module, name, lambda: payload)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"internal error: {error}\n"


_IDENTITY = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"


@pytest.mark.parametrize("argv", [
    ["membership", "--matrix", _IDENTITY, "--d", "0"],
    ["membership", "--matrix", _IDENTITY, "--d", "-3"],
])
def test_integer_options_below_one_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["act", "--gen", "J", "--char", "psi1_0"], "malformed character label 'psi1_0'"),
    (["act", "--gen", "J", "--char", "psi\u0661"], "malformed character label"),
    (["act", "--gen", "J", "--char", "chi-0"], "malformed character label 'chi-0'"),
    (["classify", "--Q", "chi1", "--root", "psi+5"], "malformed character label 'psi+5'"),
    (["act", "--gen", "J", "--char", "1_0,0,0,0"],
     "non-integer value in character exponents: '1_0,0,0,0'"),
    (["act", "--gen", "J", "--char", "psi1", "--n", "0_4"], "expected an integer, got '0_4'"),
    (["chern", "--bundle", "1_0,\u0662,3"], "non-integer value in --bundle"),
    (["chern", "--blowup", "2,\u0664"], "non-integer value in --blowup"),
    (["membership", "--matrix", _IDENTITY, "--d", "\u0662"], "expected an integer"),
], ids=["label-underscore", "label-non-ascii-digit", "label-minus", "label-plus",
        "exponent-underscore", "n-underscore", "bundle", "blowup", "d"])
def test_integer_field_outside_grammar_exits_2(capsys, argv, message):
    # integer fields are ASCII digits, with an optional sign except in a label
    # index, as --matrix entries are; int() alone would read psi1_0 as psi10
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("payload", [
    {"L2": 4, "nodes": [{"id": "p", "d": None}]},
    {"L2": 4, "nodes": [{"id": "p", "d": "4"}]},
    {"L2": 4, "nodes": [{"id": "p", "d": 4.5}]},
    {"L2": None, "nodes": [{"id": "p", "d": 4}]},
    {"L2": 4, "nodes": [{"id": None, "d": 4}]},
    {"L2": 4, "nodes": [{"id": "p", "d": 4, "parent": ["q"]}]},
    {"L2": 4, "nodes": ["p"]},
    [4],
])
def test_invariants_malformed_forest_exits_2(tmp_path, capsys, payload):
    forest = tmp_path / "forest.json"
    forest.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run_cli(capsys, ["invariants", "--forest", str(forest)])
    assert code == 2
    assert "invalid input" in err


def test_invariants_deeply_nested_forest_exits_2(tmp_path, capsys):
    forest = tmp_path / "forest.json"
    forest.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, ["invariants", "--forest", str(forest)])
    assert (code, out) == (2, "")
    assert err == "invalid input: forest JSON is nested too deeply\n"


def test_unknown_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--bogus"])
    assert exc.value.code == 2


GOLDEN_COMMANDS = [
    ["orbits", "--set", "characters2"],
    ["orbits", "--set", "pairs48"],
    ["orbits", "--set", "psi12"],
    ["orbits", "--set", "psi12", "--closure"],
    ["membership", "--matrix", "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"],
    ["act", "--gen", "b(1,0,0)", "--char", "psi2"],
    ["classify", "--Q", "chi0", "--root", "psi5"],
    ["classify", "--Q", "chi0", "--root", "chi1"],
    ["classify", "--Q", "chi1", "--root", "0,0,1,0"],
    ["chern", "--bundle", "2,1,1"],
    ["chern", "--blowup", "2,-4"],
    ["moduli"],
    ["ledger"],
    ["invariants", "--forest", "tests/golden/forest_mixed.json"],
]


GOLDEN_ARGV = [fmt + argv for argv in GOLDEN_COMMANDS for fmt in ([], ["--format", "text"])]


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=[" ".join(a) for a in GOLDEN_ARGV])
def test_byte_determinism(argv, matches_stored_stdout):
    matches_stored_stdout(argv)


def test_bench_stored_stdout_is_in_the_golden_file():
    # the benchmark gate reads its own copy of stored stdout; every entry of it
    # must be stored here with the same bytes, so this file can replace it
    with open(ROOT / "bench" / "expected_stdout.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    assert {key: stored.get(key) for key in bench} == bench


def test_stored_stdout_twice_in_one_process(monkeypatch, capsys):
    # the orbit data is built once per process: run every stored command from
    # a cold cache, then again in reverse order, so no call leaks into another
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    monkeypatch.chdir(ROOT)
    orbits.standard_set.cache_clear()
    classifier.torsion_orbits.cache_clear()
    for key in list(stored) + list(stored)[::-1]:
        assert main(key.split(" ")) == 0, key
        assert capsys.readouterr().out == stored[key], key
    # the reverse pass runs psi12 right after psi12 --closure, and its stored
    # bytes hold no closure; check the report itself once more
    assert main(["orbits", "--set", "psi12"]) == 0
    assert "closure" not in json.loads(capsys.readouterr().out)


def test_only_closure_commands_build_the_closure(monkeypatch, capsys):
    # the psi12 closure is built on the first `orbits --closure`; every other
    # stored command, and importing the CLI, must not pay for it
    def boom(*args):
        raise RuntimeError("group_closure called")

    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    monkeypatch.chdir(ROOT)
    orbits.psi12_closure.cache_clear()
    monkeypatch.setattr(orbits, "group_closure", boom)
    for key in stored:
        if "--closure" not in key:
            assert main(key.split(" ")) == 0, key
            assert capsys.readouterr().out == stored[key], key
    assert orbits.psi12_closure.cache_info().currsize == 0
    code = "import paramod.cli, paramod.orbits as o; print(o.psi12_closure.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "0\n"


def test_set_building_goldens_under_hash_seeds_and_optimize(monkeypatch):
    # orbits and moduli build sets and dicts of hashed states; in fresh
    # processes with two hash seeds and under -O (a random seed, no asserts)
    # each must still print its stored bytes.  tools/golden_matrix.py holds
    # the three settings and the run loop
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    golden_matrix = importlib.import_module("golden_matrix")
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    set_building = {key: out for key, out in stored.items()
                    if key.split(" ")[2 if key.startswith("--format") else 0]
                    in ("orbits", "moduli")}
    assert len(set_building) == 10
    assert golden_matrix.first_mismatch(sys.executable, set_building) is None


def test_cached_parser_keeps_no_state(monkeypatch, capsys):
    # the parser is built once per process: bad input that makes argparse
    # exit, at the top level and inside a subcommand, must not change how
    # later commands parse
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    cli._build_parser.cache_clear()
    for bad in (["frobnicate"], ["orbits", "--set", "psi13"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.chdir(ROOT)
    for key in stored:
        assert main(key.split(" ")) == 0, key
        assert capsys.readouterr().out == stored[key], key
    assert cli._build_parser.cache_info().misses == 1


def test_help_mentions_fronted_module():
    for cmd, module in [("orbits", "orbits"), ("membership", "paramodular"),
                        ("classify", "classifier"), ("chern", "chern"),
                        ("invariants", "doublecover"), ("ledger", "chern")]:
        out = subprocess.run(
            [sys.executable, "-m", "paramod", cmd, "--help"],
            capture_output=True, check=True,
        ).stdout.decode()
        assert f"module: {module}" in " ".join(out.split())


def test_importing_cli_loads_no_dataclasses_or_inspect():
    code = ("import sys, paramod.cli; "
            "print(*sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == []


# -- JSON emission ------------------------------------------------------------------

def emitted(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value, "json", None)
    return out.getvalue()


_TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff",
     "\U0001f600"]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**100, 2**100) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_emitter_matches_json_dumps(value):
    assert emitted(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, [0, {"a": [0.0]}], {1: 2}, {"a": {True: 0}}, [{1, 2}],
], ids=["float", "nested-float", "int-key", "nested-bool-key", "set"])
def test_emitter_rejects_other_types(value):
    with pytest.raises(TypeError):
        emitted(value)


# -- exit-code contract under fuzzing ---------------------------------------------

_GOLDEN_MATRIX = "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"

# subcommand -> option -> valid values (None for a flag); the fuzzer mutates them
_GRAMMAR = {
    "orbits": {"--set": ("characters2", "psi12", "pairs48"), "--closure": None},
    "membership": {"--matrix": (_IDENTITY, _GOLDEN_MATRIX), "--d": ("1", "2", "7")},
    "act": {"--matrix": (_IDENTITY, _GOLDEN_MATRIX), "--gen": ("b(1,0,0)", "d(1,0,1,1)", "J"),
            "--char": ("psi2", "chi1", "0,1,1,0", "1,3,0,2"), "--n": ("2", "4")},
    "classify": {"--Q": ("chi0", "chi1", "psi5", "1,0,1,0"),
                 "--root": ("0,0,0,0", "0,2,2,0", "0,0,2,0", "0,0,1,0", "1,0,1,2",
                           "0,1,1,2", "-1,2,3,4")},
    "invariants": {"--forest": ()},  # filled with the forest files below
    "chern": {"--bundle": ("2,1,1", "1,0,-3", f"1,{_NINES},0"),
              "--blowup": ("2,-4", "0,1", f"{_NINES},1")},
    "moduli": {},
    "ledger": {},
}
_EXCLUSIVE = {"--gen": "--matrix", "--blowup": "--bundle"}
_ALL_OPTIONS = sorted({opt for options in _GRAMMAR.values() for opt in options}
                      | {"--format", "--help", "--bogus"})


def test_fuzzer_grammar_lists_every_cli_option():
    # a new option must not escape the fuzzer, and a removed one must not
    # linger in it; --format and --help are drawn apart from the grammar
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}

    assert options(parser) == {"--format"}
    assert {name: options(p) for name, p in subparsers.choices.items()} == {
        name: set(grammar) for name, grammar in _GRAMMAR.items()}


@pytest.fixture(scope="module")
def forest_paths(tmp_path_factory):
    """Forest files: valid, cyclic, wrongly typed, invalid UTF-8, with invariants
    too long to print, a directory, missing."""
    root = tmp_path_factory.mktemp("forests")
    files = {
        "cyclic.json": b'{"L2": 4, "nodes": [{"id": "a", "d": 4, "parent": "b"},'
                       b' {"id": "b", "d": 4, "parent": "a"}]}',
        "types.json": b'{"L2": "4", "nodes": {"id": "a"}}',
        "utf8.json": b'{"L2": 4, "nodes": [{"id": "\xff", "d": 4}]}',
        "long_d.json": _LONG_D_FOREST.encode("ascii"),
    }
    for name, content in files.items():
        (root / name).write_bytes(content)
    (root / "dir.json").mkdir()
    return (str(ROOT / "tests" / "golden" / "forest_p4.json"),
            *(str(root / name) for name in (*files, "dir.json", "missing.json")))


def _mutated(valid):
    """Mostly a valid value; else a small edit of one, or arbitrary short text."""
    edited = st.tuples(st.sampled_from(valid), st.integers(0, 40), st.integers(0, 3),
                       st.text(max_size=3)).map(
        lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:])
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid) if k else st.one_of(
        edited, st.text(max_size=12), st.integers(-10**6, 10**6).map(str)))


@st.composite
def _argv(draw, forests):
    grammar = {**_GRAMMAR, "invariants": {"--forest": forests}}

    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 0

    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(_mutated(("json", "text")))]
    command = draw(_mutated(tuple(grammar)))
    argv.append(command)
    options = grammar.get(command, {})
    for opt in draw(st.permutations(sorted(options))):
        if draw(st.integers(0, 3)) == 0 or _EXCLUSIVE.get(opt) in argv and not rarely():
            continue
        argv.append(opt)
        if options[opt] is not None and not rarely():
            argv.append(draw(_mutated(options[opt])))
    if rarely():
        argv += draw(st.lists(st.sampled_from(_ALL_OPTIONS) | _mutated(("--d",)), max_size=3))
    return argv


def test_cli_exit_code_contract_under_fuzzing(forest_paths):
    long_d = next(path for path in forest_paths if path.endswith("long_d.json"))

    # outputs too long to print are drawn too rarely to meet in every run
    @settings(max_examples=200, deadline=None)
    @example(["chern", "--bundle", f"1,{_NINES},0"])
    @example(["--format", "text", "chern", "--blowup", f"{_NINES},1"])
    @example(["invariants", "--forest", long_d])
    @given(_argv(forest_paths))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", argv

    run()
