"""Satellite: every benchmark entry point runs with tiny parameters.

Each ``benchmarks/bench_*.py`` exposes ``run(**kwargs)`` and a
module-level ``SMOKE`` dict of small-scale overrides.  This test
imports every bench and executes it with those, so a broken bench
fails fast in the unit suite instead of at benchmark time.  Benches
that fan their specs out through ``run_many`` must also produce the
same experiments on a process pool as serially.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.workload import parallel

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))
#: benches whose experiments are specs fanned out through ``run_many``
SPEC_BENCHES = [path for path in BENCH_FILES
                if "run_many" in path.read_text()]


def _load(path: Path):
    """Import a bench under its own module name, registered in
    ``sys.modules``, so the picklable scenario objects its specs carry
    can cross into pool workers (pickle imports classes by name)."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))  # for `from _shared import ...`
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def test_all_benchmarks_discovered():
    assert len(BENCH_FILES) >= 13


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_smoke(path, capsys):
    module = _load(path)
    assert hasattr(module, "run"), f"{path.name} has no run() entry point"
    assert hasattr(module, "SMOKE"), f"{path.name} has no SMOKE parameters"
    result = module.run(**module.SMOKE)
    assert result is not None
    out = capsys.readouterr().out
    # every bench emits its headline numbers as one structured JSON line
    assert '"bench"' in out and '"metrics"' in out


@pytest.mark.parametrize("path", SPEC_BENCHES, ids=lambda p: p.stem)
def test_spec_bench_pool_matches_serial(path, monkeypatch, capsys):
    """Every experiment a spec-based bench runs has the same fingerprint
    at ``workers=2`` as at ``workers=1``."""
    module = _load(path)
    original = parallel.run_many
    seen = []

    def recording(specs, workers=None):
        results = original(specs, workers=workers)
        seen.extend(result.fingerprint() for result in results)
        return results

    # every namespace the name was imported into (via sys.modules: the
    # package attribute ``repro.workload.sweep`` is the sweep function)
    for name in ("repro.workload", "repro.workload.parallel",
                 "repro.workload.sweep", module.__name__):
        owner = sys.modules[name]
        if getattr(owner, "run_many", None) is original:
            monkeypatch.setattr(owner, "run_many", recording)
    fingerprints = {}
    for workers in (1, 2):
        seen.clear()
        module.run(**dict(module.SMOKE, workers=workers))
        fingerprints[workers] = list(seen)
    capsys.readouterr()
    assert fingerprints[1], f"{path.name} ran no specs through run_many"
    assert fingerprints[2] == fingerprints[1]
