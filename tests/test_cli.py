import json
import subprocess
import sys
from pathlib import Path

import pytest

from paramod import cli, orbits
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


def test_membership_rejection(capsys):
    matrix = "1,0,0,0,0,1,0,0,0,0,1,0,0,1/3,0,1"
    code, out, _ = run_cli(capsys, ["membership", "--matrix", matrix])
    assert code == 0
    payload = json.loads(out)
    assert not payload["member"]
    assert payload["first_violation"]["row"] == 4


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


def test_chern_bundle(capsys):
    code, out, _ = run_cli(capsys, ["chern", "--bundle", "2,1,1"])
    assert code == 0
    assert json.loads(out)["chi"] == 1


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

    def boom(_args):
        raise ConsistencyError("forced for the exit-code test")

    monkeypatch.setitem(
        cli.__dict__, "_cmd_moduli", boom)
    code, _, err = run_cli(capsys, ["moduli"])
    assert code == 1
    assert "internal cross-check failure" in err


_IDENTITY = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"


@pytest.mark.parametrize("argv", [
    ["membership", "--matrix", _IDENTITY, "--d", "0"],
    ["membership", "--matrix", _IDENTITY, "--d", "-3"],
    ["orbits", "--set", "psi12", "--closure", "--cap", "0"],
    ["orbits", "--set", "psi12", "--closure", "--cap", "-1"],
])
def test_integer_options_below_one_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


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
    ["orbits", "--set", "psi12", "--closure"],
    ["membership", "--matrix", "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"],
    ["act", "--gen", "b(1,0,0)", "--char", "psi2"],
    ["classify", "--Q", "chi1", "--root", "0,0,1,0"],
    ["chern", "--bundle", "2,1,1"],
    ["chern", "--blowup", "2,-4"],
    ["moduli"],
    ["ledger"],
]


GOLDEN_ARGV = [fmt + argv for argv in GOLDEN_COMMANDS for fmt in ([], ["--format", "text"])]


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=[" ".join(a) for a in GOLDEN_ARGV])
def test_byte_determinism(argv, matches_stored_stdout):
    matches_stored_stdout(argv)


def test_stored_stdout_twice_in_one_process(monkeypatch, capsys):
    # the orbit data is built once per process: run every stored command from
    # a cold cache, then again in reverse order, so no call leaks into another
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    monkeypatch.chdir(ROOT)
    orbits.standard_set.cache_clear()
    for key in list(stored) + list(stored)[::-1]:
        assert main(key.split(" ")) == 0, key
        assert capsys.readouterr().out == stored[key], key
    # no stored command runs psi12 without --closure; the --closure runs above
    # must not have left their closure in its report
    assert main(["orbits", "--set", "psi12"]) == 0
    assert "closure" not in json.loads(capsys.readouterr().out)


def test_cached_parser_keeps_no_state(monkeypatch, capsys):
    # the parser is built once per process: bad input that makes argparse
    # exit, at the top level and inside a subcommand, must not change how
    # later commands parse
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    cli._build_parser.cache_clear()
    for bad in (["frobnicate"], ["orbits", "--set", "psi12", "--closure", "--cap", "0"]):
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
