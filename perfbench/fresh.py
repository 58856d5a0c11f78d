"""Run one instance's first, checked execution in a fresh interpreter.

    python3 perfbench/fresh.py WORKLOAD SEED INDEX

executes instance INDEX of WORKLOAD's plan for SEED and writes the
pickled :class:`~measure.Sample`, or the :class:`~measure.CheckFailed`
that rejected it, to standard output.  In a fresh process the sample's
``peak_rss_mb`` is that execution's own: Python keeps the memory an
execution frees, so each later execution in one process would start
from the largest peak before it.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import CheckFailed, execute  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: str, index: str) -> None:
    instance = WORKLOADS[name].plan(int(seed))[int(index)]
    try:
        result = execute(instance)
    except CheckFailed as failure:
        result = failure
    sys.stdout.buffer.write(pickle.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
