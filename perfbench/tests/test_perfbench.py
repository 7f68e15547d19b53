"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from haclrt.errors import DomainError  # noqa: E402


def _span(start, end, parent=None, layer="x", op=0, **attrs):
    return spans.Span("m.f", layer, start, end, parent, op, attrs)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0.0, 10.0),              # 0: op
        _span(1.0, 3.0, parent=0),     # 1
        _span(2.0, 5.0, parent=0),     # 2: overlaps 1
        _span(4.0, 6.0, parent=0),     # 3: overlaps 2
        _span(1.5, 2.5, parent=1),     # 4: grandchild, not the op's child
        _span(9.0, 12.0, parent=0),    # 5: runs past its parent
    ]
    own = spans.self_times(tree)
    # the op's children cover [1, 6] and [9, 10]
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_self_times_add_up_to_the_root():
    tree = [_span(0.0, 8.0), _span(1.0, 4.0, parent=0),
            _span(2.0, 3.0, parent=1), _span(5.0, 7.5, parent=0)]
    assert sum(spans.self_times(tree)) == pytest.approx(8.0)


def test_tracer_nests_spans_and_restores_the_module():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("haclrt.fake")

    def inner(x):
        if x < 0:
            raise DomainError("negative")
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    points = [(mod, "outer", "a", None, None),
              (mod, "inner", "b", None, None),
              (mod, "renamed", "b", None, None)]
    tracer.op = 7
    with tracer.installed(points):
        assert mod.outer(2) == 4
        with pytest.raises(DomainError):
            mod.inner(-1)
    assert mod.inner is inner and mod.outer is outer
    assert tracer.missing == {"haclrt.fake.renamed"}
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("fake.outer", None, 7), ("fake.inner", 0, 7),
                     ("fake.inner", 0, 7), ("fake.inner", None, 7)]
    assert tracer.spans[3].attrs["raised"] == "DomainError"
    assert tracer.spans[1].attrs["caller"] == "outer"


@pytest.mark.parametrize("n_ops, pct", [(20, 50.0), (30, 66.0),
                                        (100, 90.0), (15, 50.0)])
def test_tail_percentile_leaves_ten_ops_beyond(n_ops, pct):
    assert workloads.tail_pct_for(n_ops) == pct
    times = np.random.default_rng(0).exponential(size=n_ops)
    beyond = int(np.sum(times > np.percentile(times, pct)))
    assert beyond >= min(10, n_ops // 2)


def test_quantile_estimate_is_the_median_for_symmetric_times():
    assert run._quantile([0.7], 50.0) == 0.7
    assert run._quantile([1.0, 2.0, 3.0], 50.0) == pytest.approx(2.0)
    times = [0.1, 0.2, 0.3, 0.4, 5.0]
    assert run._quantile(times, 50.0) < run._quantile(times, 80.0)


def _workload(exc):
    def make(kind, seed, i):
        def call():
            raise exc
        return call

    return workloads.Workload("fake", (("k",),), make, typical_ops=20)


@pytest.mark.parametrize("exc, kind", [(ValueError("bare"), "foreign"),
                                       (AttributeError("x"), "foreign"),
                                       (DomainError("ours"), "haclrt")])
def test_a_raising_op_is_classified_and_counted(exc, kind):
    outcome = run._run_op(_workload(exc), workloads, seed=1, i=0)
    assert outcome["raised"] == kind
    assert outcome["cls"] == type(exc).__name__
    assert outcome["problems"] == []
    metrics = spans.layer_metrics([], [outcome, {"raised": None,
                                                 "errors": []}], 0.0)
    assert metrics[f"errors.{kind}"]["value"] == 0.5


def test_full_fit_below_null_fit_is_counted_per_pair():
    fits = [
        _span(0, 1, layer="estimate", op=0, kind="full", loglik=10.0),
        _span(1, 2, layer="estimate", op=0, kind="null", loglik=9.0),
        _span(2, 3, layer="estimate", op=1, kind="full", loglik=266.7),
        _span(3, 4, layer="estimate", op=1, kind="null", loglik=702.5),
        # null fitted first, as a nested warm start would do
        _span(4, 5, layer="estimate", op=2, kind="null", loglik=5.0),
        _span(5, 6, layer="estimate", op=2, kind="full", loglik=4.0),
    ]
    assert spans.stat_raised(fits) == 2


def test_op_count_depends_on_the_run_length_alone():
    wl = _workload(ValueError("bare"))
    assert wl.ops_for(25) == 20
    assert wl.ops_for(10) == 8
    assert wl.ops_for(0.1) == 1
    ops, plain = run._measure(wl, workloads, seed=1, n_ops=wl.ops_for(5))
    assert [o["i"] for o in ops] == [0, 1, 2, 3]
    assert plain == []


def test_benchmark_json_lists_the_metrics_the_run_reports():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        spans.LAYER_METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
