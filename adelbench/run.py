"""Benchmark harness for adelcat.

Run from the root of a checkout::

    python3 adelbench/run.py --workload provers --seed 1 --seconds 12 --trace 0
    python3 adelbench/run.py --workload hom_ladder --seed 1 --seconds 12 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed sequence of operations twice, first untraced and
then with the layer tracer installed, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment stamp, sample counts, raw (unscaled) timings
and any failures.  See ``adelbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from adelbench import calib  # noqa: E402  (stdlib only; does not import adelcat)

END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {}
for _layer in ("intlinalg", "quivercat", "addclosure", "adelman", "homgroups",
               "evalfunctor", "provers", "cli"):
    PER_LAYER_UNITS.update({f"{_layer}.self_s": "s", f"{_layer}.share": "ratio",
                            f"{_layer}.calls": "count"})
PER_LAYER_UNITS.update({
    "intlinalg.kernel.self_s": "s", "intlinalg.kernel.share": "ratio",
    "intlinalg.kernel.calls": "count",
    "intlinalg.hnf.cells": "count", "intlinalg.hnf.max_bits": "bits",
    "intlinalg.solve_left.calls": "count", "intlinalg.solve_left.unsolvable": "count",
    "intlinalg.snf.calls": "count", "intlinalg.canonical_rep.calls": "count",
    "quivercat.build.calls": "count", "quivercat.build_s": "s",
    "quivercat.paths_enumerated": "count", "quivercat.compose_lin.calls": "count",
    "quivercat.lin.calls": "count",
    "addclosure.compose_mat.calls": "count", "addclosure.compose_mat.s": "s",
    "addclosure.compose_mat.entry_products": "count",
    "addclosure.decide_homotopy.calls": "count", "addclosure.decide_homotopy.s": "s",
    "addclosure.decide_homotopy.unsolvable": "count",
    "addclosure.decide_homotopy.unknowns": "count",
    "addclosure.decide_homotopy.equations": "count",
    "adelman.validate.calls": "count", "adelman.validate_s": "s",
    "adelman.make_morphism.calls": "count", "adelman.make_morphism_s": "s",
    "adelman.zero_witness.calls": "count", "adelman.zero_witness.found": "count",
    "adelman.constructions": "count",
    "homgroups.hom_group.calls": "count", "homgroups.hom_group_s": "s",
    "homgroups.generators": "count",
    "evalfunctor.eval_s": "s", "evalfunctor.oracle_checks": "count",
    "evalfunctor.oracle_mismatches": "count",
    "provers.checks": "count", "provers.replay_s": "s", "provers.certificates": "count",
    "cli.parse_s": "s", "cli.commands": "count",
    "bench.outside_s": "s", "bench.trace_overhead": "ratio", "bench.error_rate": "ratio",
})

WORKLOAD_NAMES = ("provers", "hom_ladder", "oracle", "cli_big_quiver")
MIN_OPS = 100          # at least 10 samples beyond the 90th percentile
SETUP_SAMPLES = 5      # fresh processes timed for setup_s (this one included)
WORK_DIR = os.path.join(ROOT, ".bench_work")


class SetupError(Exception):
    """The program under test cannot be imported or set up."""


# -- set-up ----------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Import adelcat from this checkout and build the workload's inputs.

    Returns ``(workload, work_dir, seconds, scaled_seconds)``; the scaled
    time uses the calibration quanta run just before and after.
    """
    before = [calib.quantum() for _ in range(3)]
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adelcat", "__init__.py")):
        raise SetupError(f"no adelcat package under {src}")
    sys.path.insert(0, src)
    try:
        import adelcat
        from adelbench import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import adelcat: {exc}") from exc
    if not os.path.abspath(adelcat.__file__).startswith(src + os.sep):
        raise SetupError(f"adelcat imported from {adelcat.__file__}, not from {src}")
    workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[workload](seed, workdir)
    elapsed = time.perf_counter() - start
    after = [calib.quantum() for _ in range(3)]
    return wl, workdir, elapsed, elapsed * calib.REFERENCE_S / statistics.median(before + after)


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process: (seconds, scaled seconds)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if out.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {out.stderr.strip()[-500:]}")
    raw, scaled = json.loads(out.stdout.strip().splitlines()[-1])
    return raw, scaled


# -- the closed loop ---------------------------------------------------------------------

SCALE_HALF_WINDOW = 3  # quanta on each side of an operation that set its speed


def speed_factors(quanta: list[float], n: int) -> list[float]:
    """Factor that rescales operation ``i``'s wall time to the reference speed.

    ``quanta[i]`` is the calibration quantum run just before operation
    ``i`` (and after operation ``i - 1``).  The speed around operation
    ``i`` is taken from the median of the ``2 * SCALE_HALF_WINDOW`` quanta
    nearest to it, which ignores a quantum hit by a garbage collection pause.
    """
    h = SCALE_HALF_WINDOW
    return [calib.REFERENCE_S / statistics.median(quanta[max(0, i + 1 - h): i + 1 + h])
            for i in range(n)]


class Loop:
    """Closed-loop run of a workload's operations with one client."""

    def __init__(self, wl):
        self.wl = wl
        self.raw: list[float] = []        # wall seconds per operation
        self.quanta: list[float] = []     # calibration quanta between operations
        self.sequence: list[int] = []
        self.failures: list[str] = []

    def run(self, seconds: float, min_ops: int = MIN_OPS, sequence=None, wrap=None):
        """Run operations until ``seconds`` have passed, at least
        ``min_ops`` are done and the current cycle is complete; or replay
        ``sequence`` exactly.  ``wrap`` decorates each operation's ``run``
        (the tracer's root span)."""
        from adelbench.workloads import WrongResult
        ops, cycle = self.wl.ops, self.wl.cycle
        start = time.perf_counter()
        hard_stop = start + max(3 * seconds, seconds + 60)
        self.quanta.append(calib.quantum())
        i = 0
        while True:
            if sequence is not None:
                if i == len(sequence):
                    break
                index = sequence[i]
            else:
                now = time.perf_counter()
                if i % cycle == 0 and ((now - start >= seconds and i >= min_ops)
                                       or now >= hard_stop):
                    break
                index = i % len(ops)
            op = ops[index]
            fn = op.run if wrap is None else wrap(op.run)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception:  # a crash is a failed operation, not a crashed run
                error = traceback.format_exc(limit=3)
            self.raw.append(time.perf_counter() - t0)
            self.quanta.append(calib.quantum())
            self.sequence.append(index)
            if error is None:
                try:
                    op.check(result)
                except WrongResult as exc:
                    error = str(exc)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                self.failures.append(f"op {i} ({op.kind}): {error}")
            i += 1
        self.factors = speed_factors(self.quanta, len(self.raw))
        self.scaled = [dt * f for dt, f in zip(self.raw, self.factors)]

    @property
    def attempted(self) -> int:
        return len(self.raw)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8]


# -- environment stamp -------------------------------------------------------------------

def git_sha() -> str:
    """HEAD commit of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import platform
    from adelcat import intlinalg
    return {
        "python": platform.python_version(),
        "backend": intlinalg.BACKEND,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        # Results are comparable only when this key matches: pure-kernel and
        # compiled-kernel numbers must never be mixed.
        "comparable_key": f"backend={intlinalg.BACKEND};python={platform.python_version()}",
        "calibration_reference_s": calib.REFERENCE_S,
    }


# -- the two run modes -------------------------------------------------------------------

def end_to_end(loop: Loop, setup_samples, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics (all times at the reference speed) and the report
    that goes with them."""
    p90 = _p90(loop.scaled)
    metrics = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "ops_per_s": loop.attempted / sum(loop.scaled),
        "op_ms_p50": 1000 * statistics.median(loop.scaled),
        "op_ms_p90": 1000 * p90,
        "peak_rss_mb": rss_mb,
    }
    report = {
        "samples": loop.attempted,
        "samples_beyond_p90": sum(1 for x in loop.scaled if x > p90),
        "raw_op_ms_p50": 1000 * statistics.median(loop.raw),
        "raw_op_ms_p90": 1000 * _p90(loop.raw),
        "raw_ops_per_s": loop.attempted / sum(loop.raw),
        "setup_samples_s": [r for r, _ in setup_samples],
        "setup_samples_scaled_s": [s for _, s in setup_samples],
        "quantum_ms_p50": 1000 * statistics.median(loop.quanta),
        "error_rate": len(loop.failures) / loop.attempted,
    }
    return metrics, report


def run_untraced(args, wl, setup_raw, setup_scaled) -> tuple[dict, dict, list[Loop]]:
    loop = Loop(wl)
    loop.run(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [(setup_raw, setup_scaled)]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(setup_sample(args.workload, args.seed))
    metrics, report = end_to_end(loop, samples, rss_mb)
    return metrics, report, [loop]


TRACE_SHARE = 1 / 3  # of --seconds, at the reference speed, for each traced pass


def run_traced(args, wl) -> tuple[dict, dict, list[Loop]]:
    """A fixed sequence of operations, run untraced and then traced.

    The sequence is as many whole cycles as take ``TRACE_SHARE`` of the run
    at the reference speed (``wl.cycle_s``), so it depends on the seed and
    ``--seconds`` only: every count is fixed by the inputs, and a faster
    program does not run more operations.  Span times are rescaled to the
    reference speed with the factor of the operation they belong to.
    """
    from adelbench.tracer import ROOT as ROOT_SPAN, Tracer
    cycles = max(1, round(args.seconds * TRACE_SHARE / wl.cycle_s))
    sequence = [i % len(wl.ops) for i in range(cycles * wl.cycle)]
    plain = Loop(wl)
    plain.run(0, sequence=sequence)
    tracer = Tracer()
    traced = Loop(wl)
    with tracer:
        traced.run(0, sequence=sequence,
                   wrap=lambda fn: tracer.wrap(fn, ROOT_SPAN, root=True))
    layer = tracer.summary(traced.factors)
    layer["bench.trace_overhead"] = sum(traced.scaled) / sum(plain.scaled)
    layer["bench.error_rate"] = ((len(plain.failures) + len(traced.failures))
                                 / (plain.attempted + traced.attempted))
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.bin")
    tracer.write(spans_path)
    report = {
        "samples": traced.attempted,
        "spans": layer["bench.spans"],
        "traced_wall_s": layer["bench.wall_s"],
        "raw_traced_wall_s": sum(traced.raw),
        "raw_trace_overhead": sum(traced.raw) / sum(plain.raw),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return {k: layer[k] for k in PER_LAYER_UNITS}, report, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this process and print it (internal)")
    args = parser.parse_args(argv)

    calib.warm_up()
    try:
        wl, workdir, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(json.dumps([setup_raw, setup_scaled]))
            return 0
        # The inputs live for the whole run; keep the collector from
        # rescanning them, so that timings do not depend on the pool size.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, report, loops = run_traced(args, wl)
            units = PER_LAYER_UNITS
        else:
            metrics, report, loops = run_untraced(args, wl, setup_raw, setup_scaled)
            units = UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for loop in loops for f in loop.failures]
    report.update({"workload": args.workload, "trace": args.trace,
                   "environment": environment(args.seed), "failures": failures[:10]})
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
