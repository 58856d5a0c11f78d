"""The repository benchmark: CPU cost per commit, with per-layer detail.

Run from the repository root::

    python3 perfbench/run.py --workload vp-contended --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``vp-contended``, ``sharded-sessions`` and
``partition-churn`` (``workloads.py``; parameters, rationale and why
``partition-churn`` is not in ``BENCHMARK.json`` in ``reference.json``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones plus a traced execution's layer shares (``spans.py``).
How a run is measured is in ``harness.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (instance executions, repeats and the traced one
included), ``failed`` and ``metrics``.  A failed output check prints
``correct: false`` and exits with status 1; a checkout without the
program's source exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import run_workload
    from measure import CheckFailed
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        executions, metrics = run_workload(
            workload, args.seed, args.seconds, bool(args.trace),
            ROOT / ".perfbench")
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": executions, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
