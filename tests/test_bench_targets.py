"""The benchmark's tracer can still wrap every function it names.

``perfbench/tracing.py`` replaces each traced function at its owner's
attribute; a renamed or deleted function would fail only the benchmark's own
tests.  This loads the tracer by path and checks its target list without
installing anything.
"""

import importlib.util
from pathlib import Path

import kgen
import kgen.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.Tracer(kgen)._targets()
    assert targets
    missing = [span for owner, attr, span, _ in targets if attr not in vars(owner)]
    assert missing == []
