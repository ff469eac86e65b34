"""Start ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 -m perfbench.serve_launcher --spans FILE -- serve ARGS...``

The launcher wraps the program's layers exactly as the in-process traced
runs do, then calls the CLI entry point.  SIGTERM drains the daemon;
once ``serve`` returns, the recorded spans are written to
``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the trace")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- serve ARGS...")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if cli[:1] != ["serve"]:
        parser.error("expected '-- serve ARGS...'")

    from perfbench.tracer import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        status = repro_main(cli)
    finally:
        tracer.uninstall()
        tmp = args.spans + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        os.replace(tmp, args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
