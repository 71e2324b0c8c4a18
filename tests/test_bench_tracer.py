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


def test_insert_with_keyword_local_is_counted_once():
    """`count_known` unpacks the positional arguments of `insert` as
    (graph, revision), so `local` must stay keyword-only."""
    import inspect

    from graphsync.revisions import ROOT_REVISION, GraphOfRevisions, ParentLink, make_revision
    from graphsync.triples import Delta

    local = inspect.signature(GraphOfRevisions.insert).parameters["local"]
    assert local.kind is inspect.Parameter.KEYWORD_ONLY
    rev = make_revision(b"\x01" * 16, 1, (ParentLink(ROOT_REVISION.hash, Delta()),))
    gor = GraphOfRevisions("doc:traced")
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        gor.insert(rev, local=True)
    finally:
        tracer.remove()
    assert tracer.calls_of("revisions.insert") == 1
    assert gor.is_local(rev.hash)
