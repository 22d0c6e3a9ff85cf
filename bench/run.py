"""ddquad benchmark: closed loop of CLI ops, one at a time, in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/ddquad`` must exist) and
writes only under ``.bench_work/`` there, which it removes on exit.  The
last line of standard output is the result object; the line before it
records the environment and the unscaled machine figures.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process: one op, one
# core, so CPU time equals wall time and no hidden BLAS threads compete
# with the probe.
THREAD_SETTINGS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from probe import PROBE_REF_MS, Probe, scale_factor  # noqa: E402
from tracing import Summary, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# set-up is repeated and its median reported, so one slow start does
# not move setup_s
SETUP_REPS = 5
# the no-CI refit repeats the captured fringes for at least this long
NOCI_MIN_SECONDS = 0.5
# bootstrap_ci's smallest allowed resample count
BOOTSTRAP_RESAMPLES = 100


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Op:
    seed: int
    ok: bool
    wall: float          # unscaled seconds
    cpu: float           # unscaled seconds, self + children
    factor: float        # probe scale
    error: str = ""
    summary: Summary | None = None
    coverage: float | None = None

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.factor


class Bench:
    """One run of one workload: set-up, a warm-up op, then timed ops."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.probe = Probe()
        self.probe_readings: list = []
        self.ops: list = []
        self.missing: set = set()     # span names that could not be wrapped
        self.fringes: list | None = None   # first traced op's fringe data

    def _probe(self) -> float:
        ms = self.probe.run_ms()
        self.probe_readings.append(ms)
        return ms

    def bracket(self, fn, *args):
        """Run ``fn`` between two probes; (result, wall_s, factor)."""
        before = self._probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        factor = scale_factor(before, self._probe())
        return result, wall, factor

    # -- set-up --------------------------------------------------------------

    def _import_in_fresh_interpreter(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import ddquad.cli"],
                       env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

    def _setup_once(self):
        self._import_in_fresh_interpreter()
        self.workload.setup(self.work, self.seed)

    def setup_seconds(self) -> list:
        """Probe-scaled set-up times: imports plus input generation."""
        out = []
        for _ in range(SETUP_REPS):
            _, wall, factor = self.bracket(self._setup_once)
            out.append(wall * factor)
        return out

    # -- ops -------------------------------------------------------------------

    def run_op(self, op_seed: int, tracer: Tracer | None = None) -> Op:
        from ddquad import cli

        out = Path(tempfile.mkdtemp(prefix="op-", dir=self.work))
        argv = self.workload.argv(out, op_seed)
        sink = io.StringIO()
        error = ""

        def invoke():
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if tracer is None:
                    cli.main(args=argv, standalone_mode=False)
                else:
                    tracer.call(layers.ROOT_SPAN, cli.main, args=argv,
                                standalone_mode=False)

        before = self._probe()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            invoke()
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:       # a crash is a failed op, not a dead run
            code = "crash"
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        factor = scale_factor(before, self._probe())

        ok = code == 0
        if ok:
            try:
                self.workload.check(out)
            except (CheckFailed, KeyError, TypeError, ValueError,
                    OSError) as exc:
                ok = False
                error = f"check: {type(exc).__name__}: {exc}"
        else:
            error = error or f"exit {code}: {sink.getvalue()[-500:]}"
        shutil.rmtree(out, ignore_errors=True)
        op = Op(op_seed, ok, wall, cpu, factor, error)
        self.ops.append(op)
        return op

    def timed_ops(self, seconds: float, trace: bool = False):
        """Op 0 warms caches; ops 1, 2, ... run until ``seconds`` have
        passed.  With ``trace`` each op runs twice, untraced and then
        traced, so the pair measures the tracing overhead on equal work."""
        self.run_op(self.seed)
        start = time.perf_counter()
        i = 1
        while True:
            self.run_op(self.seed + i)
            if trace:
                self._traced_op(self.seed + i)
            i += 1
            if time.perf_counter() - start >= seconds:
                break

    def _traced_op(self, op_seed: int):
        fringes: list = []
        with Tracer() as tracer:
            tracer.install(layers.targets(fringes))
            op = self.run_op(op_seed, tracer)
        op.summary = tracer.summary().scaled(op.factor)
        op.coverage = tracer.root_coverage()
        self.missing.update(tracer.missing)
        if self.fringes is None:
            self.fringes = fringes

    # -- traced run extras ---------------------------------------------------

    def traced_setup(self) -> Summary:
        with Tracer() as tracer:
            tracer.install(layers.targets([]))
            _, _, factor = self.bracket(tracer.call, "setup",
                                        self.workload.setup, self.work,
                                        self.seed)
        self.missing.update(tracer.missing)
        return tracer.summary().scaled(factor)

    def noci_ms(self) -> float | None:
        """Per-fringe ms of refitting the first traced op's fringes with
        ``compute_ci=False``: the fit without the discarded CI work."""
        from ddquad import estimator

        if "estimator.fringe_fit" in self.missing or not self.fringes:
            return None

        def refit():
            n = 0
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < NOCI_MIN_SECONDS:
                for data in self.fringes:
                    estimator.fit_fringe_mle(data, compute_ci=False)
                n += len(self.fringes)
            return n

        n, wall, factor = self.bracket(refit)
        return 1e3 * wall * factor / n

    def bootstrap_ms(self) -> float:
        """ms per resample of ``bootstrap_ci`` on the first refit dataset."""
        from ddquad import config, estimator, sampler

        campaign = sampler.campaign_from_csv(self.workload.data[0].read_text())
        model = config.ScenarioConfig().ion_model()
        zeeman2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
        _, wall, factor = self.bracket(
            lambda: estimator.bootstrap_ci(campaign, BOOTSTRAP_RESAMPLES,
                                           self.seed, zeeman2_hz=zeeman2))
        return 1e3 * wall * factor / BOOTSTRAP_RESAMPLES


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, setup_s: list) -> dict:
    timed = bench.ops[1:]
    attempted = len(bench.ops)
    ok = sum(op.ok for op in bench.ops)
    return {
        "op_p50_s": _metric(statistics.median(op.scaled_wall for op in timed),
                            "s"),
        "cpu_per_op_s": _metric(
            statistics.median(op.cpu * op.factor for op in timed), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_fraction": _metric(ok / attempted, "fraction"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
    }


def per_layer(bench: Bench, setup: Summary) -> dict:
    # ops after the warm-up come in (untraced, traced) pairs of one seed
    untraced, traced = bench.ops[1::2], bench.ops[2::2]
    rows = [layers.layer_values(setup.merged(op.summary), bench.missing)
            for op in traced]
    values = {}
    for name, (unit, *_rest) in layers.LAYER_METRICS.items():
        if name in layers.COUNT_METRICS:     # fixed op: repeats exactly
            v = rows[0][name]
        else:
            found = [r[name] for r in rows if r[name] is not None]
            v = statistics.median(found) if len(found) == len(rows) else None
        values[name] = (v, unit)
    extra = {
        "estimator.fringe_fit_noci_ms": bench.noci_ms(),
        "estimator.bootstrap_ms_per_resample":
            bench.bootstrap_ms() if bench.workload.name == "refit" else 0.0,
        "machine.probe_ms": statistics.median(bench.probe_readings),
        "machine.op_wall_p50_s": statistics.median(op.wall for op in untraced),
        "trace.span_coverage": min(op.coverage for op in traced),
        "trace.overhead_ratio": statistics.median(
            t.scaled_wall / u.scaled_wall for u, t in zip(untraced, traced)),
    }
    for name, (unit, _) in layers.EXTRA_METRICS.items():
        values[name] = (extra[name], unit)
    return {name: _metric(v, unit) for name, (v, unit) in values.items()
            if v is not None}


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # a checkout that is not a repository may sit inside one that is
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_SETTINGS,
        "probe_ref_ms": PROBE_REF_MS,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  work_root: Path = ROOT / ".bench_work",
                  smoke: bool = False) -> tuple:
    """(result, info) for one run; ``info`` is the environment line."""
    workload = WORKLOADS[name](smoke=smoke)
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    bench = Bench(workload, seed, work)
    try:
        if trace:
            setup = bench.traced_setup()
            bench.timed_ops(seconds, trace=True)
            metrics = per_layer(bench, setup)
        else:
            setup_s = bench.setup_seconds()
            bench.timed_ops(seconds)
            metrics = end_to_end(bench, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()       # only if no other run is using it
    failed = [op for op in bench.ops if not op.ok]
    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "ops": len(bench.ops),
        "machine": {
            "probe_ms_p50": statistics.median(bench.probe_readings),
            "op_wall_p50_s": statistics.median(op.wall for op in bench.ops[1:]),
        },
        "missing_spans": sorted(bench.missing),
        "failures": [f"op seed {op.seed}: {op.error}" for op in failed[:5]],
    }
    result = {"correct": not failed, "attempted": len(bench.ops),
              "failed": len(failed), "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ddquad" / "cli.py").is_file():
        print(f"error: no ddquad sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, info = run_benchmark(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
