"""The tracer leaves the program untouched when off, accounts for all
traced time, and failed operations count against the error rate."""

import inspect
import json
import os
import sys
import time
import types

import pytest

from adelbench import run, workloads
from adelbench.tracer import KERNEL_FUNCTIONS, LAYERS, ROOT, Tracer
from adelcat import intlinalg


def snapshot() -> dict:
    """Every function and method object reachable from adelcat modules,
    compiled kernel functions included."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "adelcat" or name.startswith("adelcat.")):
            continue
        for attr, value in vars(module).items():
            if callable(value) and not inspect.isclass(value):
                out[(name, attr)] = value
            elif inspect.isclass(value) and value.__module__.startswith("adelcat"):
                for m, v in vars(value).items():
                    if inspect.isfunction(v):
                        out[(name, attr, m)] = v
    return out


def test_untraced_run_leaves_every_function_original(tmp_path):
    before = snapshot()
    wl = workloads.setup_provers(1, str(tmp_path))
    loop = run.Loop(wl)
    loop.run(0, min_ops=7)
    assert not loop.failures
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_uninstall_restores_every_function(tmp_path):
    before = snapshot()
    wl = workloads.setup_oracle(1, str(tmp_path))
    tracer = Tracer()
    with tracer:
        during = snapshot()
        loop = run.Loop(wl)
        loop.run(0, min_ops=2, wrap=lambda fn: tracer.wrap(fn, ROOT, root=True))
    after = snapshot()
    assert sum(during[k] is not before[k] for k in before) > 100
    assert all(after[k] is before[k] for k in before)
    assert tracer.summary()["evalfunctor.oracle_checks"] > 0


def test_layer_self_times_add_up_to_traced_wall_time(tmp_path):
    wl = workloads.setup_hom_ladder(2, str(tmp_path))
    tracer = Tracer()
    loop = run.Loop(wl)
    with tracer:
        loop.run(0, min_ops=16, wrap=lambda fn: tracer.wrap(fn, ROOT, root=True))
    for factors, wall in ((None, sum(loop.raw)), (loop.factors, sum(loop.scaled))):
        m = tracer.summary(factors)
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.outside_s"]
        assert abs(total - wall) <= 0.01 * wall
        assert m["homgroups.hom_group.calls"] == loop.attempted
        assert 0 < m["intlinalg.kernel.self_s"] <= m["intlinalg.self_s"]


class Opaque:
    """A callable that is not a Python function, as the compiled kernel's
    functions are not."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


def test_kernel_is_traced_whatever_its_type(tmp_path, monkeypatch):
    kernel = intlinalg._kernel
    for attr in KERNEL_FUNCTIONS:
        monkeypatch.setattr(kernel, attr, Opaque(getattr(kernel, attr)))
    wl = workloads.setup_hom_ladder(2, str(tmp_path))
    tracer = Tracer()
    with tracer:
        run.Loop(wl).run(0, sequence=[0], wrap=lambda fn: tracer.wrap(fn, ROOT, root=True))
    assert all(isinstance(getattr(kernel, attr), Opaque) for attr in KERNEL_FUNCTIONS)
    m = tracer.summary()
    assert m["intlinalg.solve_left.calls"] > 0
    assert m["intlinalg.kernel.calls"] > 0
    assert m["intlinalg.hnf.cells"] > 0 and m["intlinalg.kernel.self_s"] > 0


def test_traced_counts_do_not_depend_on_program_speed(tmp_path):
    args = types.SimpleNamespace(seconds=0.1, workload="oracle")
    wl = workloads.setup_oracle(3, str(tmp_path))
    runs = []
    for delay in (0.0, 0.01):
        slow = workloads.Workload(wl.name, [
            workloads.Op(op.kind, lambda op=op: (time.sleep(delay), op.run())[1], op.check)
            for op in wl.ops], wl.cycle, wl.cycle_s)
        metrics, report, loops = run.run_traced(args, slow)
        os.remove(os.path.join(run.ROOT, report["spans_file"]))
        runs.append({k: v for k, v in metrics.items()
                     if run.PER_LAYER_UNITS[k] in ("count", "bits")})
        assert loops[1].attempted == wl.cycle * round(0.1 * run.TRACE_SHARE / wl.cycle_s)
    assert runs[0] == runs[1]
    assert runs[0]["evalfunctor.oracle_checks"] > 0


def _fake_workload():
    def raises():
        raise RuntimeError("boom")

    def wrong(result):
        raise workloads.WrongResult("wrong verdict")

    ops = [workloads.Op("ok", lambda: 1, lambda r: None),
           workloads.Op("crash", raises, lambda r: None),
           workloads.Op("wrong", lambda: 2, wrong)]
    return workloads.Workload("fake", ops, 3, 1.0)


def test_injected_failures_count_toward_error_rate():
    loop = run.Loop(_fake_workload())
    loop.run(0)
    assert loop.attempted >= run.MIN_OPS and loop.attempted % 3 == 0
    assert len(loop.failures) == 2 * loop.attempted // 3
    _, report = run.end_to_end(loop, [(0.1, 0.1)], 10.0)
    assert report["error_rate"] == pytest.approx(2 / 3)


def test_injected_failures_count_in_traced_run():
    args = types.SimpleNamespace(seconds=0.0, workload="fake")
    metrics, report, loops = run.run_traced(args, _fake_workload())
    assert metrics["bench.error_rate"] == pytest.approx(2 / 3)
    plain, traced = loops
    assert traced.sequence == plain.sequence
    assert len(traced.failures) == 2 * traced.attempted // 3
    os.remove(os.path.join(run.ROOT, report["spans_file"]))


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
