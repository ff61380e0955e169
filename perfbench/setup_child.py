"""Set-up probe: the CLI's work before any computation, in a fresh process.

Usage: setup_child.py CONFIG COMMAND

Imports `korovkinlab.cli`, validates CONFIG and builds the objects that
COMMAND (`korovkin` or `choquet`) would build, then exits without scanning
or applying anything. Needs the package on `PYTHONPATH`.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    config_path, command = argv
    from korovkinlab import cli

    cfg = cli.load_config(config_path)
    if command == "korovkin":
        cli.build_experiment(cfg)
    else:
        cli.build_spans(cfg, cli.build_spaces(cfg))
        cli.build_choquet_params(cfg.get("experiment", {}).get("choquet"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
