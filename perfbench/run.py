"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closure-ooc|analyze|serve \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` one untraced op and one traced op
(for ``serve``: an untraced and a traced daemon, half the window each)
give the per-layer metrics, leaf-span coverage and tracing overhead.
``--smoke`` shrinks every program for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with provenance (cpu count, library versions,
seeds, store-path mix) and the metrics a layer could not report, which
it names ``absent``.  ``failed / attempted`` is the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closure-ooc", "analyze", "serve"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny programs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.tracer import ABSENT

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    scales = workloads.SMOKE if args.smoke else workloads.Scales()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            seed, args.seconds, bool(args.trace), scales
        )
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)

    for name, (value, unit) in sorted(outcome.metrics.items()):
        shown = "absent" if value == ABSENT else f"{value:.6g}"
        print(f"{args.workload:12s} {name:32s} {shown:>14s} {unit}")
    report = {
        "workload": args.workload,
        "seed": seed,
        "scales": vars(scales),
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_share": outcome.failed / max(1, outcome.attempted),
        "absent": sorted(n for n, (v, _) in outcome.metrics.items() if v == ABSENT),
        **_versions(),
        **outcome.info,
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
