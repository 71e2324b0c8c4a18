"""The traced benchmark patches graphsync names in place.

`bench/tracer.py` looks each name up with `owner.__dict__[name]`, so a
renamed or deleted function or method fails here, and not only in a
traced benchmark run.
"""

import gc
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_remove_restores_every_patched_name():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
    except KeyError:
        # a patched name is missing: undo the patches made before it
        for owner, attr, original in reversed(tracer._patches):
            setattr(owner, attr, original)
        raise
    patched = list(tracer._patches)
    assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    tracer.remove()
    assert patched
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    assert tracer._on_gc not in gc.callbacks
