"""The benchmark harness in ``adelbench/`` still runs against this library.

The harness is changed only together with the benchmark itself, so a change
to the library that breaks what it calls would otherwise show only when the
benchmark runs.  For every workload this runs the first operation of the
``--seed 0`` input, and the last operation of each kind, and applies the
harness's own result check to each; it also checks that every method the
tracer wraps still exists where the tracer looks.
"""

import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from adelbench import tracer, workloads  # noqa: E402
from adelcat import _hnf_py  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_passes_its_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    op = wl.ops[0]
    op.check(op.run())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_last_operation_of_each_kind_passes_its_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    last = {op.kind: op for op in wl.ops}
    assert len(last) == {"provers": 6, "hom_ladder": 1, "oracle": 2, "cli_big_quiver": 4}[name]
    for op in last.values():
        op.check(op.run())


def test_tracer_wraps_every_kernel_function():
    # a kernel function the tracer does not wrap counts as its caller's time
    public = {name for name, f in vars(_hnf_py).items()
              if inspect.isfunction(f) and f.__module__ == _hnf_py.__name__
              and not name.startswith("_")}
    assert public == set(tracer.KERNEL_FUNCTIONS)


def test_traced_methods_exist():
    for cls, attr, span in tracer._methods():
        assert callable(vars(cls).get(attr)), f"{span}: {cls.__name__}.{attr} is gone"


def test_traced_prover_operation_counts_constructions(tmp_path):
    # the constructions are plain module functions that the tracer wraps
    op = workloads.setup_provers(0, str(tmp_path)).ops[0]
    spans = tracer.Tracer()
    with spans:
        result = spans.wrap(op.run, tracer.ROOT, root=True)()
    op.check(result)
    assert spans.summary()["adelman.constructions"] > 0
    called = {spans.names[i] for i in spans.span_name}
    assert {"adelman.kernel", "adelman.cokernel", "adelman.zero_witness"} <= called
