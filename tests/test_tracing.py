"""The benchmark's tracer wraps qmine names where their callers look them
up; a boundary that no longer resolves leaves its metrics unmeasured, which
the benchmark's self-test fails, so tier-1 checks that every one resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_boundary_resolves_on_a_fresh_import(monkeypatch):
    # as the benchmark's set-up does: drop qmine from sys.modules, import it again
    for name in [k for k in sys.modules if k == "qmine" or k.startswith("qmine.")]:
        monkeypatch.delitem(sys.modules, name)
    qm = importlib.import_module("qmine")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(qm)
    tracer.uninstall()
    assert tracer.unmeasured == set()
