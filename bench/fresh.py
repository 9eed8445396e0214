"""Entry points for fresh interpreters, apart from the harness, so that only
the interpreter, paramod and the op count in what the parent times.

    setup          stdin: {"workload", "op"}; imports what the workload imports,
                   runs the op and prints "done"
    cli-op ARGV    one traced CLI call: cli.main(ARGV) with spans, written to
                   stderr after SPANS_MARKER

Started through common.module_cmd("fresh", ...).
"""

from __future__ import annotations

import json
import sys

import ops

SPANS_MARKER = "@@bench-spans@@"


def main_setup(spec):
    ops.import_for(spec["workload"])
    ops.IN_PROCESS[spec["workload"]](spec["op"])
    sys.stdout.write("done\n")
    sys.stdout.flush()


def main_cli_op(argv):
    import tracing
    import paramod.cli
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = paramod.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    spans = {k: list(v) if not isinstance(v, (list, dict)) else v
             for k, v in tracer.spans().items()}
    sys.stderr.write(SPANS_MARKER + json.dumps(spans))
    return code


def main():
    if sys.argv[1] == "cli-op":
        sys.exit(main_cli_op(json.loads(sys.argv[2])))
    main_setup(json.load(sys.stdin))
