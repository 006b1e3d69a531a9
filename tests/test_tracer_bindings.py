"""The perfbench tracer still finds every binding it wraps.

``perfbench/tracing.py`` wraps functions at the module bindings their
callers use (for example ``repro.engine.engine.complete_compilation``) and
classes at their methods; ``Tracer.install`` raises ``KeyError`` when one
of them has moved.  Loading the tracer here catches that in tier-1
instead of only in the traced benchmark smoke.
"""

import importlib.util
import os

from repro.boolean.dnf import DNF
from repro.engine import Engine, EngineConfig

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    import repro.engine.engine as engine_module

    original = engine_module.complete_compilation
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert engine_module.complete_compilation is not original
    finally:
        tracer.uninstall()
    assert engine_module.complete_compilation is original


def test_engine_compilations_pass_through_the_traced_binding():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute_lineages([DNF([[0, 1], [1, 2], [2, 3], [3, 0]])])
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    assert names.count("complete_compilation") == 1
    assert tracer.counts["compile.shannon_steps"] >= 1
