"""The benchmark tracer still finds every function it wraps.

``bench/tracing.py`` patches headfem functions by name, so a rename would
otherwise break only the traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import headfem  # noqa: F401  (imports every traced module)
from headfem import cli  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def resolve(module_name, attr):
    """The raw object behind a TARGETS entry: the function, or the class
    ``__dict__`` entry of a method (a classmethod object for
    classmethods)."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def headfem_references(original):
    return {(name, key) for name, mod in sys.modules.items()
            if name == "headfem" or name.startswith("headfem.")
            for key, value in vars(mod).items() if value is original}


def test_every_target_is_wrapped_and_restored():
    originals = [resolve(m, a) for m, a, *_ in tracing.TARGETS]
    refs = [headfem_references(o) for o in originals]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr, *_), original in zip(tracing.TARGETS,
                                                     originals):
            assert resolve(module_name, attr) is not original, attr
            if "." not in attr:     # no headfem module keeps the original
                assert not headfem_references(original), attr
    finally:
        tracer.remove()
    for (module_name, attr, *_), original, before in zip(tracing.TARGETS,
                                                         originals, refs):
        assert resolve(module_name, attr) is original, attr
        assert headfem_references(original) == before, attr
