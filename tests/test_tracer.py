"""The benchmark tracer still finds every function it wraps.

perfbench/tracer.py names lasagna functions by module and qualified name;
a refactor that moves or renames one makes `Tracer.install` raise.
"""

import importlib.util
import os

from lasagna import skein

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = skein.s02_dims
    t = tracer.Tracer()
    t.install()
    try:
        assert skein.s02_dims is not original
    finally:
        t.restore()
    assert skein.s02_dims is original
