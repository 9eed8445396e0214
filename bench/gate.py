"""Correctness gate: every op's output against stored bytes or an oracle.

Fixed commands are compared with the stdout stored in expected_stdout.json.
Generated inputs are checked against oracles.py.  check_op returns None when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import oracles
from common import BENCH

EXPECTED_PATH = os.path.join(BENCH, "expected_stdout.json")


def load_expected() -> dict[str, str]:
    """Command line (with --format) -> the stored stdout."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_matrix(text):
    vals = [Fraction(x) for x in text.split(",")]
    return [vals[4 * i:4 * i + 4] for i in range(4)]


def _membership_fields(out, kind, matrix_text, char_exps, char_n):
    """Compare a {flags, violation, monodromy, act} record with the oracle."""
    want = oracles.membership_expected(_parse_matrix(matrix_text), kind, char_exps, char_n)
    for got, exp in zip(out["flags"], want["flags"]):
        if exp is not None and got != exp:
            return f"flags {out['flags']}, want {want['flags']}"
    if want["violation"] == "form":
        if out["violation"] is None:
            return "form violation without a located entry"
    elif out["violation"] != want["violation"]:
        return f"violation at {out['violation']}, want {want['violation']}"
    if out["monodromy"] != want["monodromy"]:
        return f"monodromy {out['monodromy']}, want {want['monodromy']}"
    if char_exps is not None and out["act"] != want["act"]:
        return f"action gives {out['act']}, want {want['act']}"
    return None


def _check_json_cli(check, payload, forests):
    if "classify" in check:
        q, root = check["classify"]
        t = oracles.classify(q, root)
        if payload["type"] != t:
            return f"type {payload['type']}, want {t}"
        if t in oracles.FAMILY:
            rep = payload["report"]
            got = (rep["moduli"]["dimension"], rep["moduli"]["cover_degree"],
                   rep["pencil_genus"])
            if got != oracles.FAMILY[t]:
                return f"report {got}, want {oracles.FAMILY[t]}"
        return None
    if "act" in check:
        n, _, expected = check["act"]
        res = payload["result"]
        if res["exp"] != expected or res["n"] != n:
            return f"act gives {res['exp']}, want {expected}"
        if n == 2 and res["label"] != oracles.LABEL_OF[tuple(expected)]:
            return f"label {res['label']}"
        return None
    if "chern" in check:
        kind, *vals = check["chern"]
        got = [payload["chi"]] if kind == "bundle" else \
            [payload["chi"], payload["smooth_member_genus"]]
        return None if got == vals else f"chern {got}, want {vals}"
    if "membership" in check:
        out = {"flags": [payload["pattern_ok"], payload["n_integral"], payload["symplectic_ok"]],
               "violation": None if payload["first_violation"] is None else
               [payload["first_violation"]["row"], payload["first_violation"]["col"]],
               "monodromy": payload.get("monodromy"), "act": None}
        if payload["member"] != (check["membership"] is None):
            return f"member {payload['member']}"
        return _membership_fields(out, check["membership"], check["matrix"], None, 2)
    want = oracles.forest_expected(forests[check["forest"]])
    got = {"chi": payload["chi"], "K2": payload["K2_resolved"],
           "negligible": payload["negligible_ids"], "pairs": payload["pairs_33"]}
    if got != want:
        return f"forest invariants {got}, want {want}"
    if payload["has_33_pair"] != bool(want["pairs"]):
        return "has_33_pair disagrees with the pairs"
    return None


def _check_text_cli(check, text, forests):
    lines = text.splitlines()
    first = lines[0] if lines else ""
    if "classify" in check:
        q, root = check["classify"]
        t = oracles.classify(q, root)
        ok = first.endswith(f"type {t}")
        if ok and t in oracles.FAMILY:
            dim, deg, _ = oracles.FAMILY[t]
            ok = any(f"dimension {dim}, cover degree {deg}" in ln for ln in lines)
        return None if ok else f"classify text {lines}, want type {t}"
    if "act" in check:
        n, _, expected = check["act"]
        label = oracles.LABEL_OF[tuple(expected)] if n == 2 else \
            ",".join(str(e) for e in expected)
        return None if first.endswith(f" -> {label}") else f"act text {first!r}, want {label}"
    if "chern" in check:
        kind, *vals = check["chern"]
        ok = f"= {vals[0]}" in first and (kind == "bundle" or first.endswith(f"genus {vals[1]}"))
        return None if ok else f"chern text {first!r}, want {vals}"
    if "membership" in check:
        want = "member" if check["membership"] is None else "not a member"
        return None if first == want else f"membership text {first!r}, want {want}"
    want = oracles.forest_expected(forests[check["forest"]])
    expected = (f"L2 = {forests[check['forest']]['L2']}: chi = {want['chi']},"
                f" K^2 (resolved) = {want['K2']}")
    return None if first == expected else f"invariants text {first!r}, want {expected!r}"


def check_cli(op, out, expected, forests):
    """A CLI op: [exit code, stdout, traceback seen on stderr]."""
    code, stdout, traceback = out
    check = op["check"]
    if traceback:
        return f"traceback (exit {code})"
    if "exit" in check:
        return None if code == check["exit"] and not stdout else \
            f"exit {code}, want {check['exit']}"
    if code != 0:
        return f"exit {code}, want 0"
    if "fixed" in check:
        return None if stdout == expected[check["fixed"]] else "stdout differs from stored bytes"
    check = dict(check)
    if "membership" in check:
        check["matrix"] = op["argv"][op["argv"].index("--matrix") + 1]
    try:
        if check["format"] == "json":
            return _check_json_cli(check, json.loads(stdout), forests)
        return _check_text_cli(check, stdout, forests)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({exc!r}): {stdout[:120]!r}"


def check_membership(op, out):
    exps = tuple(int(x) for x in op["char"].split(","))
    return _membership_fields(out, op["check"]["membership"], op["matrix"], exps, op["n"])


def check_forest(op, out):
    want = oracles.forest_expected(op["forest"])
    chi, k2, negligible, pairs, has33 = out
    got = {"chi": chi, "K2": k2, "negligible": negligible, "pairs": pairs}
    if got != want:
        return f"forest invariants {got}, want {want}"
    return None if has33 == bool(pairs) else "has_33_pair disagrees with the pairs"


def check_op(workload, op, out, expected, forests):
    if isinstance(out, dict) and "error" in out:
        return f"raised {out['error']}"
    if workload == "membership_batch":
        return check_membership(op, out)
    if workload == "forest_scaling":
        return check_forest(op, out)
    return check_cli(op, out, expected, forests)
