import sys
import textwrap
import types

import pytest

import tracer
from tracer import Span


def span(sid, parent, start, end, name="f", thread=0):
    return Span(sid, parent, name, start, end, thread)


def test_self_time_of_serial_tree_is_duration_minus_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 9.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(selfs.values()) == pytest.approx(tracer.root_total(spans))


def test_overlapping_worker_spans_share_wall_time():
    # A run span whose two worker-thread children overlap on [4, 6].
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 9.0),
        span(2, 1, 2.0, 6.0, thread=1),
        span(3, 1, 4.0, 8.0, thread=2),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_child_with_the_parents_bounds_takes_all_its_time():
    spans = [span(0, None, 0.0, 5.0), span(1, 0, 0.0, 5.0), span(2, None, 5.0, 6.0)]
    assert tracer.self_times(spans) == pytest.approx({0: 0.0, 1: 5.0, 2: 1.0})


def test_summarize_totals_by_name_and_lists_uncalled_names():
    spans = [
        span(0, None, 0.0, 4.0, name="a"),
        span(1, 0, 1.0, 2.0, name="b"),
        span(2, 0, 2.0, 3.5, name="b"),
    ]
    rows = tracer.summarize(spans, ["a", "b", "c"])
    assert rows["a"] == pytest.approx({"self_s": 1.5, "calls": 1, "total_s": 4.0})
    assert rows["b"] == pytest.approx({"self_s": 2.5, "calls": 2, "total_s": 2.5})
    assert rows["c"] == {"self_s": 0.0, "calls": 0, "total_s": 0.0}


@pytest.fixture
def fakepkg():
    """A package `fakepkg` with a module and a by-name copy of its function."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec(
        textwrap.dedent(
            """
            from concurrent.futures import ThreadPoolExecutor

            def inner(x):
                return x + 1

            def outer(x):
                return inner(x) * 2

            def pooled(n):
                with ThreadPoolExecutor(2) as pool:
                    return list(pool.map(inner, range(n)))
            """
        ),
        mod.__dict__,
    )
    other = types.ModuleType("fakepkg.other")
    other.outer = mod.outer
    pkg.outer = mod.outer
    names = {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.other": other}
    sys.modules.update(names)
    yield pkg, mod, other
    for name in names:
        del sys.modules[name]


def test_tracer_rebinds_copies_reports_absent_and_restores(fakepkg):
    pkg, mod, other = fakepkg
    originals = (mod.inner, mod.outer)
    calls = []
    hooks = {"mod.inner": lambda args, kwargs, result: calls.append((args, result))}
    with tracer.Tracer(
        "fakepkg", ["mod.inner", "mod.outer", "mod.gone"], hooks=hooks
    ) as tr:
        assert other.outer(1) == 4
        assert pkg.outer is other.outer is mod.outer
    assert tr.absent == ["mod.gone"]
    assert calls == [((1,), 2)]
    by_name = {s.name: s for s in tr.spans}
    assert by_name["mod.outer"].parent is None
    assert by_name["mod.inner"].parent == by_name["mod.outer"].id
    assert (mod.inner, mod.outer) == originals
    assert pkg.outer is other.outer is originals[1]


def test_worker_thread_spans_take_the_fork_parent(fakepkg):
    _, mod, _ = fakepkg
    with tracer.Tracer(
        "fakepkg", ["mod.pooled", "mod.inner"], fork_parents=("mod.pooled",)
    ) as tr:
        assert mod.pooled(4) == [1, 2, 3, 4]
    (root,) = [s for s in tr.spans if s.name == "mod.pooled"]
    workers = [s for s in tr.spans if s.name == "mod.inner"]
    assert len(workers) == 4
    assert all(s.parent == root.id for s in workers)
    assert all(s.thread != root.thread for s in workers)
    selfs = tracer.self_times(tr.spans)
    assert sum(selfs.values()) == pytest.approx(root.end - root.start)
