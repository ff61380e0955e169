"""Run one korovkinlab CLI command in-process with spans at every layer.

Usage: traced_child.py RUN_ID TRACE_FILE -- CLI_ARGS...

Times `import korovkinlab.cli`, installs the wrappers from `spans.py`, runs
`korovkinlab.cli.main(CLI_ARGS)` under a root span `cli.main`, writes the
spans to TRACE_FILE and exits with the CLI's exit code. Needs the package
on `PYTHONPATH`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from spans import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_child.py RUN_ID TRACE_FILE -- CLI_ARGS...", file=sys.stderr)
        return 2
    run_id, trace_file, cli_args = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    cli = importlib.import_module("korovkinlab.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer(run_id)
    install(tracer)
    root = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
    payload = tracer.dump()
    payload["import_s"] = import_s
    with open(trace_file, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
