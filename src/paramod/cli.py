"""Deterministic command-line front end.

Every subcommand fronts one library module and emits machine-readable JSON
by default (--format text renders labels and cycle notation for humans).
Output is byte-stable for fixed arguments: keys are sorted, no timestamps,
no environment lookups.  The JSON is byte for byte what
json.dumps(payload, sort_keys=True, indent=2) gives; _json_parts writes it,
because the C encoder of CPython 3.10 to 3.12 cannot indent and json.dumps
would run its pure-Python encoder instead (3.13's C encoder can).

Exit codes follow the type of what went wrong, one rule per code:
- 0: the output was written.
- 2: argparse rejected the arguments, a handler raised errors.InputError or
  OSError, or stdout cannot take the output (text that its encoding cannot
  hold, or an integer with more digits than Python writes as text).
- 1: a handler raised ConsistencyError ("internal cross-check failure"), or a
  handler or text renderer raised any other exception, a plain ValueError or
  KeyError included ("internal error: <type>: <message>", not a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from paramod import chern, classifier, doublecover, orbits
from paramod.errors import TOO_MANY_DIGITS, ConsistencyError, InputError
from paramod.lattice import character_to_json, parse_character, parse_int, parse_ints
from paramod.paramodular import (
    act,
    is_member,
    member,
    parse_matrix,
    special_generators,
)


def _json_parts(value, newline: str, parts: list) -> None:
    """Append the text of json.dumps(value, sort_keys=True, indent=2) to parts.

    newline is "\\n" plus the indent of the line value starts on.  Only str,
    int, bool, None, dict with str keys, list and tuple are written; anything
    else raises TypeError, as json.dumps does for a type it cannot serialize.
    """
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator)
            parts.append(_quote(key))  # TypeError unless key is a str
            parts.append(": ")
            _json_parts(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _json_parts(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        parts = []
        _json_parts(payload, "\n", parts)
        parts.append("\n")
        sys.stdout.write("".join(parts))
    else:
        sys.stdout.write("\n".join(text_lines(payload)) + "\n")


def _holds_int_at_least(value, bound: int) -> bool:
    """Whether value, a payload or a part of one, holds an int v with abs(v) >= bound."""
    if isinstance(value, int):
        return abs(value) >= bound
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(_holds_int_at_least(v, bound) for v in value)


def _positive_int(text: str) -> int:
    try:
        value = parse_int(text)
    except InputError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.

    Each subcommand's parser sets `run` to its (handler, text renderer) pair.
    """
    parser = argparse.ArgumentParser(
        prog="paramod",
        description="Exact monodromy orbits, membership certificates, "
                    "Riemann-Roch ledgers and the surface classification "
                    "for (1,2)-polarized abelian surfaces.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default: json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="orbit decompositions (module: orbits)",
                       description="Orbit partition of a standard character or "
                                   "pair set under the six standard generators "
                                   "(module: orbits).")
    p.add_argument("--set", default="characters2",
                   choices=("characters2", "psi12", "pairs48"),
                   help="which state set to decompose")
    p.add_argument("--closure", action="store_true",
                   help="also enumerate the induced permutation group on the "
                        "12-element complement and report transitivity")
    p.set_defaults(run=(_cmd_orbits, _orbits_text))

    p = sub.add_parser("membership", help="membership certificate (module: paramodular)",
                       description="Check the integrality pattern and symplectic "
                                   "condition of a rational 4x4 matrix "
                                   "(module: paramodular).")
    p.add_argument("--matrix", required=True,
                   help="16 comma-separated rationals, row-major, e.g. '1,0,...'")
    p.add_argument("--d", type=_positive_int, default=2,
                   help="polarization type, >= 1 (default 2)")
    p.set_defaults(run=(_cmd_membership, _membership_text))

    p = sub.add_parser("act", help="monodromy action on a character (module: paramodular)",
                       description="Apply a group element to a torsion character "
                                   "(module: paramodular).")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="16 comma-separated rationals, row-major")
    src.add_argument("--gen", help="named generator: b(1,0,0), d(1,0,1,1), J, ...")
    p.add_argument("--char", required=True,
                   help="character label (chi0..chi3, psi1..psi12) or 4 exponents")
    p.add_argument("--n", type=_positive_int, default=2, choices=(2, 4),
                   help="character order bound (default 2)")
    p.set_defaults(run=(_cmd_act, _act_text))

    p = sub.add_parser("classify", help="surface type from a torsion datum (module: classifier)",
                       description="Classify the surface attached to a 2-torsion "
                                   "twist and a square root (module: classifier).")
    p.add_argument("--Q", required=True,
                   help="order-2 character: label or 4 exponents mod 2")
    p.add_argument("--root", required=True,
                   help="order-4 square root: 4 exponents mod 4")
    p.set_defaults(run=(_cmd_classify, _classify_text))

    p = sub.add_parser("invariants", help="double-cover invariants (module: doublecover)",
                       description="chi and K^2 of the resolved double cover from "
                                   "a branch singularity forest (module: doublecover).")
    p.add_argument("--forest", required=True,
                   help="path to JSON {\"L2\": n, \"nodes\": [{\"id\", \"d\", \"parent\"}]}")
    p.set_defaults(run=(_cmd_invariants, _invariants_text))

    p = sub.add_parser("chern", help="Euler characteristics (module: chern)",
                       description="chi of a sheaf on the abelian surface or of a "
                                   "line bundle on its blow-up (module: chern).")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bundle", help="rank,a,c2 on the abelian surface")
    src.add_argument("--blowup", help="a,b for the class a*L + b*E on the blow-up")
    p.set_defaults(run=(_cmd_chern, _chern_text))

    p = sub.add_parser("moduli", help="moduli decomposition (module: classifier)",
                       description="Three-component moduli decomposition with cover "
                                   "degrees cross-checked against the orbit engine "
                                   "(modules: classifier, orbits).")
    p.set_defaults(run=(_cmd_moduli, _moduli_text))

    p = sub.add_parser("ledger", help="cohomology dimension ledger (module: chern)",
                       description="Every stored h-vector with its recomputed chi "
                                   "(module: chern).")
    p.set_defaults(run=(_cmd_ledger, _ledger_text))
    return parser


def _resolve_generator(name: str):
    generators = dict(special_generators())
    if name not in generators:
        raise InputError(f"unknown generator {name!r}; choose from {list(generators)}")
    return generators[name]


def _cmd_orbits(args) -> dict:
    report = orbits.standard_orbit_report(args.set)
    if args.closure:
        closure, cycles = orbits.psi12_closure()
        report["closure"] = closure._asdict()
        report["permutations"] = dict(zip(report["generators"], cycles))
    return report


def _orbits_text(payload: dict):
    lines = [f"set {payload['set']}: orbit sizes {payload['orbit_sizes']}"]
    for orb in payload["orbits"]:
        lines.append(f"  orbit of size {orb['size']}: " + " ".join(orb["members"]))
    if "closure" in payload:
        c = payload["closure"]
        lines.append(f"induced group on the {sum(c['orbit_sizes'])} complement characters: "
                     f"order {c['order']}, transitive {c['transitive']}")
        for name, cyc in sorted(payload["permutations"].items()):
            lines.append(f"  {name}: {cyc}")
    return lines


def _cmd_membership(args) -> dict:
    payload = is_member(parse_matrix(args.matrix), args.d).to_json()
    payload["d"] = args.d
    return payload


def _membership_text(payload: dict):
    if payload["member"]:
        return ["member", f"monodromy rows: {payload['monodromy']}"]
    v = payload["first_violation"]
    return ["not a member",
            f"first violation at ({v['row']}, {v['col']}): {v['reason']}"]


def _cmd_act(args) -> dict:
    if args.gen is not None:
        m = _resolve_generator(args.gen)
    else:
        m = member(parse_matrix(args.matrix))
    c = parse_character(args.char, args.n)
    return {"input": character_to_json(c), "result": character_to_json(act(m, c))}


def _act_text(payload: dict):
    inp, res = (c.get("label") or ",".join(map(str, c["exp"]))
                for c in (payload["input"], payload["result"]))
    return [f"{inp} -> {res}", f"values: {payload['result']['values']}"]


def _cmd_classify(args) -> dict:
    q = parse_character(args.Q, 2)
    root = parse_character(args.root, 4)
    t = classifier.classify(q, root)
    payload = {"Q": character_to_json(q), "root": character_to_json(root), "type": t.value}
    if t is classifier.SurfaceType.Invalid:
        payload["reason"] = classifier.invalid_reason()
    elif t is classifier.SurfaceType.PG3:
        payload["report"] = classifier.degenerate_report()
    else:
        payload["report"] = classifier.surface_report(t)
        payload["branch"] = classifier.branch_curve_kind(t)
    return payload


def _classify_text(payload: dict):
    lines = [f"Q = {payload['Q'].get('label')}, root exponents "
             f"{payload['root']['exp']}: type {payload['type']}"]
    if "moduli" in payload.get("report", {}):
        rep = payload["report"]
        lines.append(f"  (pg, q, K^2) = ({rep['pg']}, {rep['q']}, {rep['K2']}),"
                     f" pencil genus {rep['pencil_genus']}, h1(T) = {rep['h1_TS']}")
        mod = rep["moduli"]
        lines.append(f"  moduli component {mod['name']}: dimension {mod['dimension']},"
                     f" cover degree {mod['cover_degree']}")
    elif "reason" in payload:
        lines.append("  " + payload["reason"])
    return lines


def _cmd_invariants(args) -> dict:
    # doublecover imports nothing from the package, so the file's errors are
    # typed here: a ValueError from reading the JSON (malformed, not UTF-8, an
    # int too long to parse), from checking the forest or from scoring it
    try:
        with open(args.forest, encoding="utf-8") as fh:
            payload = json.load(fh)
        l2, f = doublecover.forest_from_json(payload)
        inv = doublecover.invariants(l2, f)
    except RecursionError:
        raise InputError("forest JSON is nested too deeply") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out = inv._asdict()
    out["L2"] = l2
    out["pairs_33"] = [list(p) for p in doublecover.detect_33_pairs(f)]
    return out


# a non-empty node id with no whitespace, control character (category Cc) or
# quote; any other id could forge a report line or blur the space-separated list
_PLAIN_ID = re.compile(r'[^\s\x00-\x1f\x7f-\x9f"]+')


def _id_text(node_id: str) -> str:
    """A node id as text output writes it: raw when plain, else as a JSON string."""
    return node_id if _PLAIN_ID.fullmatch(node_id) else _quote(node_id)


def _invariants_text(payload: dict):
    lines = [f"L2 = {payload['L2']}: chi = {payload['chi']},"
             f" K^2 (resolved) = {payload['K2_resolved']}"]
    if payload["negligible_ids"]:
        lines.append(f"  negligible: {' '.join(map(_id_text, payload['negligible_ids']))}")
    if payload["minimality_note"]:
        lines.append(f"  note: {payload['minimality_note']}")
    return lines


def _cmd_chern(args) -> dict:
    if args.bundle is not None:
        rank, a, c2 = parse_ints(args.bundle, 3, "--bundle")
        v = chern.ChernDatum(rank, a, c2)
        return {"surface": "abelian", "rank": rank, "c1": a, "c2": c2,
                "chi": chern.chi_abelian(v)}
    a, b = parse_ints(args.blowup, 2, "--blowup")
    bl = chern.BlowupLineBundle(a, b)
    return {"surface": "blow-up", "a": a, "b": b,
            "chi": chern.chi_blowup_line(bl),
            "smooth_member_genus": chern.genus_blowup_divisor(bl)}


def _chern_text(payload: dict):
    if payload["surface"] == "abelian":
        return [f"chi(rank {payload['rank']}, c1 = {payload['c1']}L,"
                f" c2 = {payload['c2']}) = {payload['chi']}"]
    return [f"chi({payload['a']}L + {payload['b']}E) = {payload['chi']},"
            f" smooth member genus {payload['smooth_member_genus']}"]


def _cmd_moduli(_args) -> dict:
    decomposition = classifier.moduli_decomposition()
    decomposition["covers"] = orbits.component_report()
    return decomposition


def _cmd_ledger(_args) -> dict:
    return {"rows": chern.dimension_ledger(),
            "chi_additivity": chern.eagon_northcott_checks()}


def _ledger_text(payload: dict):
    lines = []
    for r in payload["rows"]:
        hs = ", ".join("-" if r[k] is None else str(r[k]) for k in ("h0", "h1", "h2"))
        lines.append(f"{r['object']} [{r['condition']}]: h = ({hs}), chi = {r['chi']}")
    for c in payload["chi_additivity"]:
        lines.append(f"additivity {c['sequence']}: {c['chi_sub']} + {c['chi_quot']}"
                     f" = {c['chi_total']}")
    return lines


def _moduli_text(payload: dict):
    lines = [f"{payload['component_count']} components, dimensions "
             f"{payload['dimensions']}"]
    for comp in payload["components"]:
        lines.append(f"  {comp['name']}: dimension {comp['dimension']},"
                     f" cover degree {comp['cover_degree']}")
    lines.append(f"cover cross-check: pair counts {payload['pair_counts']}")
    return lines


# value-taking options whose values may begin with a negative number; argparse
# only accepts those in --opt=value form, so merge the two-token spelling
_VECTOR_OPTIONS = ("--matrix", "--blowup", "--bundle", "--char", "--root", "--Q")


def _merge_negative_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _VECTOR_OPTIONS and len(nxt) >= 2 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    handler, text_renderer = args.run
    try:
        payload = handler(args)
    except ConsistencyError as exc:
        sys.stderr.write(f"internal cross-check failure: {exc}\n")
        return 1
    except (InputError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except Exception as exc:  # a bug, a plain ValueError or KeyError included;
        # argparse's SystemExit is not an Exception
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1
    try:
        _emit(payload, args.format, text_renderer)
    except UnicodeEncodeError as exc:
        # only text output carries input text raw, such as a lone surrogate in a
        # forest node id; stdout encodes the whole string before writing any of it
        bad = exc.object[exc.start:exc.end]
        sys.stderr.write(f"invalid input: {bad!r} cannot be written as {exc.encoding} "
                         "text; --format json escapes it\n")
        return 2
    except Exception as exc:  # nothing was written: both formats build the whole string first
        # the one input error left: an int longer than the interpreter's limit
        # on str() digits, told from the payload; anything else is a bug
        limit = sys.get_int_max_str_digits()
        if isinstance(exc, ValueError) and limit and _holds_int_at_least(payload, 10 ** limit):
            sys.stderr.write(f"invalid input: {TOO_MANY_DIGITS}\n")
            return 2
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
