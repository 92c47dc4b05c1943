"""mklridge benchmark: seeded cross-validated experiments, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload rank1_cv --seed 1 --seconds 42 --trace 0

Workloads are ``rank1_cv``, ``dense_cv`` and ``ngram_cv`` (see
``workloads.py``). The process pins BLAS to one thread and calls
``mklridge.experiment.run_experiment`` with ``jobs=1`` repeatedly on one
generated config: one untimed warm-up call, then timed calls until
``--seconds`` is used up. Every call writes its ``report.json`` into a
temporary directory under ``.bench_out/``.

With ``--trace 0`` it prints the end-to-end metrics: the median call
time rescaled to a reference host speed (``hostspeed.py``), fits per
second, set-up time of a fresh interpreter and peak RSS.
With ``--trace 1`` it runs untraced calls, then one call with timing
wrappers at every layer (``tracer.py``), prints per-layer metrics and
writes the spans to ``.bench_out/``. Both modes also print each method's
held-out RMSE.

Every call passes a correctness gate: no method failed, train and test
rows are disjoint, the KKT residuals are small, the criterion-7
inequality holds on ``rank1_cv``, and every report of the run, traced or
not, has the same bytes. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
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
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mklridge; "
    "mklridge.ExperimentConfig.from_json(sys.argv[2])"
)

# Converged fixed-point fits sit near 1e-13 (alpha) and 1e-6 (mu); a
# broken solve or an unconverged fit lands orders of magnitude higher.
KKT_ALPHA_TOL = 1e-8
KKT_MU_TOL = 1e-4
CRITERION7_MARGIN = 0.02


class GateError(Exception):
    """A report failed the benchmark's correctness gate."""


def check_report(workload, report):
    """Raise GateError unless the report passes the correctness gate."""
    for method, entry in report["methods"].items():
        if entry["failed"]:
            raise GateError(f"{method}: {entry['failed']} failed trial(s)")
        for trial in entry["trials"]:
            kkt = trial.get("kkt")
            if kkt is None:
                continue
            if not (kkt["alpha_residual"] <= KKT_ALPHA_TOL and kkt["mu_residual"] <= KKT_MU_TOL):
                raise GateError(f"{method} trial {trial['trial']}: KKT residuals {kkt}")
    for audit in report["audit"]:
        if audit["overlap"] != 0:
            raise GateError(f"trial {audit['trial']}: train and test rows overlap")
    if workload == "rank1_cv":
        l2 = report["methods"]["l2mkl"]["mean"]["rmse"]
        uniform = report["methods"]["uniform"]["mean"]["rmse"]
        if not l2 <= uniform + CRITERION7_MARGIN:
            raise GateError(f"rmse l2mkl {l2} > uniform {uniform} + {CRITERION7_MARGIN}")


class Runner:
    """Runs one workload's experiment repeatedly and gates every report."""

    def __init__(self, workload, config, workdir, experiment):
        self.workload = workload
        self.config = config
        self.out = workdir / "out"
        self.experiment = experiment
        self.times = []
        self.scaled = []
        self.probe_times = []
        self.attempted = 0
        self.failed = 0
        self.report = None
        self.report_bytes = None

    def call(self, sampler=None):
        """One timed run_experiment call, gated.

        Returns its wall time, or None when run_experiment raised. With a
        ``hostspeed.Sampler`` the host is probed during the call and the
        time spent in probes is left out of the returned time. A call
        that completes but fails the gate still returns its time and is
        counted in ``failed``. The function is looked up at call time, so
        a traced call goes through the tracer's wrapper.
        """
        config = self.experiment.ExperimentConfig.from_dict(dict(self.config, out=str(self.out)))
        self.attempted += 1
        try:
            with sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                report = self.experiment.run_experiment(config, jobs=1)
                elapsed = time.perf_counter() - t0
            if sampler is not None:
                elapsed -= sum(sampler.times)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        data = (self.out / "report.json").read_bytes()
        if self.report is None:
            self.report, self.report_bytes = report, data
        try:
            check_report(self.workload, report)
            if data != self.report_bytes:
                raise GateError("report.json differs from the run's first report")
        except GateError as exc:
            self.failed += 1
            print(f"correctness gate failed: {exc}", file=sys.stderr)
        return elapsed

    def loop(self, seconds):
        """One warm-up call, then untraced, probed calls until one more as
        slow as the slowest so far would overrun ``seconds``; at least one
        timed call. The warm-up call is gated and counted but not timed:
        on ``ngram_cv`` the first call of a process is 10-15% slower than
        the next ones, even rescaled."""
        start = time.perf_counter()
        self.call()
        slowest = time.perf_counter() - start
        sampler = hostspeed.Sampler()
        while True:
            t0 = time.perf_counter()
            elapsed = self.call(sampler)
            slowest = max(slowest, time.perf_counter() - t0)
            if elapsed is not None:
                self.times.append(elapsed)
                self.scaled.append(hostspeed.scale(elapsed, sampler.times))
                self.probe_times.extend(sampler.times)
            if time.perf_counter() - start + slowest > seconds:
                return


def measure_setup(config_path, samples):
    """Median wall time of fresh interpreters importing mklridge and
    validating the config. One unmeasured start fills the bytecode cache.

    Not rescaled by the host-speed probe: start-up is file mapping and
    page faults, and probes taken just before and after each start did
    not track its time (rescaling widened its spread)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    print(f"setup s per start: {', '.join(f'{t:.4f}' for t in times)}")
    return statistics.median(times)


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "jobs": 1,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s):
    experiment_s = statistics.median(runner.scaled)
    return {
        "experiment_s": metric(experiment_s, "s"),
        "cells_per_s": metric(workloads.fit_cells(runner.config) / experiment_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner, trace, traced_s):
    stats = tracer.layer_stats(trace.spans)
    fits = tracer.fit_outcomes(trace.spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "gflop": 0.0}

    def layer(name, field):
        return stats.get(name, zero)[field]

    metrics = {}
    for name, fields in (
        ("kernels.build_gram", ("calls", "self_s")),
        ("kernels.cross_gram", ("calls", "self_s")),
        ("kernels.combined_entries", ("calls", "self_s", "gflop")),
        ("kernels.subset", ("self_s",)),
        ("experiment.build_family", ("total_s",)),
        ("solver.fit_l1", ("calls", "total_s", "self_s")),
        ("solver.fit_l2", ("calls", "total_s", "self_s")),
        ("solver._solve_pd", ("calls", "self_s", "gflop")),
        ("solver.quad_forms", ("self_s",)),
        ("solver.predict_weighted", ("total_s",)),
        ("data.load_text_corpus", ("self_s",)),
        ("data.build_ngram_features", ("self_s",)),
        ("data.apply_vocabulary", ("self_s",)),
        ("diagnostics.kkt_residuals", ("self_s",)),
        ("diagnostics.orthogonality_check", ("self_s",)),
        ("experiment.predict_rows", ("self_s",)),
        ("experiment.write_json_atomic", ("self_s",)),
        ("experiment.run_experiment", ("self_s",)),
    ):
        for field in fields:
            unit = {"calls": "count", "gflop": "GFLOP"}.get(field, "s")
            metrics[f"{name}.{field}"] = metric(layer(name, field), unit)
    for method in ("l2mkl", "l1mkl", "uniform", "best_single"):
        name = f"experiment.method_trial.{method}"
        metrics[f"{name}.total_s"] = metric(layer(name, "total_s"), "s")
    for kind in ("solver.fit_l1", "solver.fit_l2"):
        metrics[f"{kind}.iters"] = metric(fits[kind]["iters"], "count")
        metrics[f"{kind}.unconverged"] = metric(fits[kind]["unconverged"], "count")
    metrics["solver.fit_l1.solves_per_iter"] = metric(fits["solver.fit_l1"]["solves_per_iter"],
                                                      "ratio")
    fit_ms = fits["fit_ms"]
    for q in (50, 90):
        value = float(np.percentile(fit_ms, q)) if fit_ms.size else 0.0
        metrics[f"solver.fit_ms.p{q}"] = metric(value, "ms")
    metrics["fit_fail_frac"] = metric(fits["fit_fail_frac"], "ratio")
    metrics["trace.experiment_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - statistics.median(runner.times), "s")
    metrics["wall.experiment_s"] = metric(statistics.median(runner.times), "s")
    metrics["host.probe_ms"] = metric(1e3 * statistics.fmean(runner.probe_times), "ms")
    metrics["trace.absent_sites"] = metric(len(trace.absent), "count")
    return metrics, stats


def print_shares(stats, traced_s):
    """Human-readable self-time shares of the traced call."""
    total = sum(s["self_s"] for s in stats.values())
    print(f"traced experiment_s {traced_s:.4f} s; sum of layer self times {total:.4f} s")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} calls {s['calls']:7d}  self {s['self_s']:9.4f} s"
              f"  {100.0 * s['self_s'] / traced_s:5.1f}%")


def write_spans(path, trace, env):
    t0 = trace.spans[0][2] if trace.spans else 0.0
    spans = [[n, p, s - t0, e - t0, i] for n, p, s, e, i in trace.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "absent": trace.absent, "spans": spans}, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "mklridge" / "__init__.py").is_file():
        print(f"error: no mklridge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, started):
    corpus = workdir / "corpus.txt"
    if args.workload == "ngram_cv":
        workloads.write_corpus(corpus, args.seed)
    config = workloads.make_config(args.workload, args.seed, corpus)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    setup_s = None if args.trace else measure_setup(config_path, SETUP_SAMPLES)

    import mklridge
    from mklridge import experiment

    if Path(mklridge.__file__).resolve().parent != (SRC / "mklridge").resolve():
        print(f"error: imported mklridge from {mklridge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(args.workload, config, workdir, experiment)
    # Set-up and input generation count against --seconds.
    remaining = args.seconds - (time.perf_counter() - started)
    if not args.trace:
        runner.loop(remaining)
    else:
        # Half the time gives the untraced median; the traced call follows.
        runner.loop(remaining / 2.0)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced_s = runner.call()
        finally:
            trace.uninstall()
    if not runner.times or (args.trace and traced_s is None):
        print("error: run_experiment raised on every call", file=sys.stderr)
        return 1

    if args.trace:
        metrics, stats = per_layer(runner, trace, traced_s)
        print_shares(stats, traced_s)
        if trace.absent:
            print("absent patch sites: " + ", ".join(trace.absent))
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", trace, env)
    else:
        metrics = end_to_end(runner, setup_s)
    print(f"wall s per call (probes left out): {', '.join(f'{t:.4f}' for t in runner.times)}")
    print(f"scaled s per call: {', '.join(f'{t:.4f}' for t in runner.scaled)}")
    print(f"mean probe {1e3 * statistics.fmean(runner.probe_times):.4f} ms over "
          f"{len(runner.probe_times)} probes; reference {hostspeed.REFERENCE_MS} ms")
    for method, entry in runner.report["methods"].items():
        print(f"rmse.{method} {entry['mean']['rmse']:.6g} y_units")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
