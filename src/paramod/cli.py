"""Deterministic command-line front end.

Every subcommand fronts one library module and emits machine-readable JSON
by default (--format text renders labels and cycle notation for humans).
Output is byte-stable for fixed arguments: keys are sorted, no timestamps,
no environment lookups.

Exit codes: 0 success, 2 input validation failure, 1 internal cross-check
failure (which indicates a bug, never a bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from paramod import chern, classifier, doublecover, orbits
from paramod.errors import ConsistencyError
from paramod.lattice import (
    character_table,
    character_to_json,
    make_lattice,
    parse_character,
)
from paramod.paramodular import (
    act,
    is_member,
    member,
    monodromy_matrix,
    parse_matrix,
    special_generators,
)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines(payload)) + "\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    p.add_argument("--cap", type=_positive_int, default=orbits.DEFAULT_CLOSURE_CAP,
                   help="element cap for the group closure (>= 1)")

    p = sub.add_parser("membership", help="membership certificate (module: paramodular)",
                       description="Check the integrality pattern and symplectic "
                                   "condition of a rational 4x4 matrix "
                                   "(module: paramodular).")
    p.add_argument("--matrix", required=True,
                   help="16 comma-separated rationals, row-major, e.g. '1,0,...'")
    p.add_argument("--d", type=_positive_int, default=2,
                   help="polarization type, >= 1 (default 2)")

    p = sub.add_parser("act", help="monodromy action on a character (module: paramodular)",
                       description="Apply a group element to a torsion character "
                                   "(module: paramodular).")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="16 comma-separated rationals, row-major")
    src.add_argument("--gen", help="named generator: b(1,0,0), d(1,0,1,1), J, ...")
    p.add_argument("--char", required=True,
                   help="character label (chi0..chi3, psi1..psi12) or 4 exponents")
    p.add_argument("--n", type=int, default=2, choices=(2, 4),
                   help="character order bound (default 2)")

    p = sub.add_parser("classify", help="surface type from a torsion datum (module: classifier)",
                       description="Classify the surface attached to a 2-torsion "
                                   "twist and a square root (module: classifier).")
    p.add_argument("--Q", required=True,
                   help="order-2 character: label or 4 exponents mod 2")
    p.add_argument("--root", required=True,
                   help="order-4 square root: 4 exponents mod 4")

    p = sub.add_parser("invariants", help="double-cover invariants (module: doublecover)",
                       description="chi and K^2 of the resolved double cover from "
                                   "a branch singularity forest (module: doublecover).")
    p.add_argument("--forest", required=True,
                   help="path to JSON {\"L2\": n, \"nodes\": [{\"id\", \"d\", \"parent\"}]}")

    p = sub.add_parser("chern", help="Euler characteristics (module: chern)",
                       description="chi of a sheaf on the abelian surface or of a "
                                   "line bundle on its blow-up (module: chern).")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bundle", help="rank,a,c2 on the abelian surface")
    src.add_argument("--blowup", help="a,b for the class a*L + b*E on the blow-up")

    sub.add_parser("moduli", help="moduli decomposition (module: classifier)",
                   description="Three-component moduli decomposition with cover "
                               "degrees cross-checked against the orbit engine "
                               "(modules: classifier, orbits).")

    sub.add_parser("ledger", help="cohomology dimension ledger (module: chern)",
                   description="Every stored h-vector with its recomputed chi "
                               "(module: chern).")
    return parser


def _resolve_generator(name: str):
    generators = dict(special_generators())
    if name not in generators:
        raise ValueError(f"unknown generator {name!r}; choose from {list(generators)}")
    return generators[name]


def _cmd_orbits(args) -> dict:
    report = orbits.standard_orbit_report(args.set)
    if args.closure:
        pset, perms, _ = orbits.standard_set("psi12")
        report["closure"] = orbits.group_closure(perms, 12, cap=args.cap)._asdict()
        report["permutations"] = {
            name: perm.cycle_string(pset.labels)
            for name, perm in zip(report["generators"], perms)
        }
    return report


def _orbits_text(payload: dict):
    lines = [f"set {payload['set']}: orbit sizes {payload['orbit_sizes']}"]
    for orb in payload["orbits"]:
        lines.append(f"  orbit of size {orb['size']}: " + " ".join(orb["members"]))
    if "closure" in payload:
        c = payload["closure"]
        lines.append(f"induced group on the 12 complement characters: order {c['order']},"
                     f" transitive {c['transitive']}")
        for name, cyc in sorted(payload["permutations"].items()):
            lines.append(f"  {name}: {cyc}")
    return lines


def _cmd_membership(args) -> dict:
    entries = parse_matrix(args.matrix)
    cert = is_member(entries, args.d)
    payload = cert.to_json()
    payload["d"] = args.d
    if cert.ok:
        payload["monodromy"] = [[int(x) for x in row]
                                for row in monodromy_matrix(entries, args.d)]
    return payload


def _membership_text(payload: dict):
    if payload["member"]:
        return ["member", f"monodromy rows: {payload['monodromy']}"]
    v = payload["first_violation"]
    return ["not a member",
            f"first violation at ({v['row']}, {v['col']}): {v['reason']}"]


def _cmd_act(args) -> dict:
    table = character_table(make_lattice(2))
    if args.gen is not None:
        m = _resolve_generator(args.gen)
    else:
        m = member(parse_matrix(args.matrix), 2)
    c = parse_character(args.char, args.n, table)
    result = act(m, c)
    return {
        "input": character_to_json(table, c),
        "result": character_to_json(table, result),
    }


def _act_text(payload: dict):
    res = payload["result"]
    label = res.get("label") or ",".join(str(e) for e in res["exp"])
    return [f"{payload['input'].get('label') or payload['input']['exp']} -> {label}",
            f"values: {res['values']}"]


def _cmd_classify(args) -> dict:
    table = classifier.table()
    q = parse_character(args.Q, 2, table)
    root = parse_character(args.root, 4, table)
    t = classifier.classify(q, root)
    payload = {
        "Q": character_to_json(table, q),
        "root": character_to_json(None, root),
        "type": t.value,
    }
    if t is classifier.SurfaceType.Invalid:
        payload["reason"] = classifier.invalid_reason()
    elif t is classifier.SurfaceType.PG3:
        payload["report"] = classifier.degenerate_report()
    else:
        payload["report"] = classifier.surface_report(t).to_json()
        payload["branch"] = classifier.branch_curve_kind(t)
    return payload


def _classify_text(payload: dict):
    lines = [f"Q = {payload['Q'].get('label')}, root exponents "
             f"{payload['root']['exp']}: type {payload['type']}"]
    if "report" in payload and "moduli" in payload.get("report", {}):
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
    with open(args.forest, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("forest JSON is nested too deeply") from None
    l2, f = doublecover.forest_from_json(payload)
    inv = doublecover.invariants(l2, f)
    out = inv._asdict()
    out["L2"] = l2
    out["pairs_33"] = [list(p) for p in doublecover.detect_33_pairs(f)]
    return out


def _invariants_text(payload: dict):
    lines = [f"L2 = {payload['L2']}: chi = {payload['chi']},"
             f" K^2 (resolved) = {payload['K2_resolved']}"]
    if payload["negligible_ids"]:
        lines.append(f"  negligible: {' '.join(payload['negligible_ids'])}")
    if payload["minimality_note"]:
        lines.append(f"  note: {payload['minimality_note']}")
    return lines


def _parse_ints(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated integers for {what}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer value in {what}: {text!r}") from None


def _cmd_chern(args) -> dict:
    if args.bundle is not None:
        rank, a, c2 = _parse_ints(args.bundle, 3, "--bundle")
        v = chern.ChernDatum(rank, a, c2)
        return {"surface": "abelian", "rank": rank, "c1": a, "c2": c2,
                "chi": chern.chi_abelian(v)}
    a, b = _parse_ints(args.blowup, 2, "--blowup")
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
    rows = chern.dimension_ledger()
    checks = chern.eagon_northcott_checks()
    return {"rows": [r.to_json() for r in rows],
            "chi_additivity": checks}


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
    handlers = {
        "orbits": (_cmd_orbits, _orbits_text),
        "membership": (_cmd_membership, _membership_text),
        "act": (_cmd_act, _act_text),
        "classify": (_cmd_classify, _classify_text),
        "invariants": (_cmd_invariants, _invariants_text),
        "chern": (_cmd_chern, _chern_text),
        "moduli": (_cmd_moduli, _moduli_text),
        "ledger": (_cmd_ledger, _ledger_text),
    }
    handler, text_renderer = handlers[args.command]
    try:
        payload = handler(args)
    except ConsistencyError as exc:
        sys.stderr.write(f"internal cross-check failure: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    _emit(payload, args.format, text_renderer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
