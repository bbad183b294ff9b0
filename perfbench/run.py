"""Benchmark of qellip's simulate -> CSV -> estimate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` next
to this directory. Prints a detail line (provenance, sample counts,
accuracy, digests) and, last, one JSON result line. See README.md here.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from stats import Tally, block_rate, median, negative_names, percentile, rms, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed from start to ready-to-measure; setup_s is their median.
SETUP_REPEATS = 5
# Op time per block for the throughput figures (stats.block_rate).
RATE_BLOCK_S = 2.0
# Seconds of ops on one CPU before the run moves to the next (CpuRotation).
ROTATE_EVERY_S = 0.25
# Accuracy and trust figures cover the first ops only, so that they do not
# depend on how many ops fit in the run.
ACCURACY_OPS = 1000
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.setup_once(sys.argv[2], int(sys.argv[3]))"
)

# (module, function, span name, count of work in the result or None)
TRACE_TARGETS = [
    ("qellip.cli", "main", "cli.main", None),
    ("qellip.cli", "load_config", "cli.load_config", None),
    ("qellip.cli", "counts_csv", "cli.counts_csv", len),
    ("qellip.cli", "parse_counts_csv", "cli.parse_counts_csv", len),
    ("qellip.experiment", "expected_counts", "experiment.expected_counts", None),
    ("qellip.experiment", "simulate_counts", "experiment.simulate_counts", None),
    ("qellip.estimate", "least_squares_fit", "estimate.least_squares_fit", None),
    ("qellip.estimate", "fit_negative_log_likelihood", "estimate.nll_eval", None),
    ("qellip.estimate", "subtract_accidentals", "estimate.subtract_accidentals", None),
    ("qellip.estimate", "three_angle_invert", "estimate.three_angle", None),
    ("qellip.samples", "film_stack_reflectance", "samples.film_stack_reflectance", None),
    ("qellip.samples", "psi_delta_from_coeffs", "samples.psi_delta_from_coeffs", None),
]


def load_program():
    """Put the checkout's src/ first on the path and import qellip from it."""
    if not (SRC / "qellip" / "__init__.py").is_file():
        sys.exit(f"error: no qellip package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qellip

    if Path(qellip.__file__).resolve().parent != SRC / "qellip":
        sys.exit(f"error: imported qellip from {qellip.__file__}, not {SRC}")


def setup_once(name: str, seed: int):
    """One set-up as a fresh interpreter pays it: import, inputs, warm-up."""
    load_program()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        WORKLOADS[name](Path(tmp), seed).setup()


def time_setups(name: str, seed: int) -> list:
    """Set-up times of fresh interpreters, each started on the next CPU this
    process may run on, as the ops are (see CpuRotation)."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    try:
        for k in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # the child inherits it
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), name, str(seed)],
                           check=True, stdout=subprocess.DEVNULL, timeout=120)
            samples.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


class CpuRotation:
    """Moves this single-threaded process to the next CPU it may run on
    once `period` seconds have passed, between ops only.

    On a shared host each vCPU has its own neighbours and slow spells; a run
    spread over all of them does not take its figures from one.
    """

    def __init__(self, period: float):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.period = period
        self.k = 0
        self.last = time.perf_counter()

    def step(self):
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.last >= self.period:
            self.k = (self.k + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.k]})
            self.last = now

    def release(self):
        os.sched_setaffinity(0, self.cpus)


def measure(wl, seconds: float, tracer, rotation=None):
    """Closed loop, one client: run ops back to back until `seconds` pass.

    An op that raises has failed; an op whose output fails its check has
    failed and is wrong. With a tracer, odd ops are traced and even ops are
    not, so both halves see the same machine state. Returns the tally and
    the op latencies of the untraced and traced ops.
    """
    tally = Tally()
    latencies = {False: [], True: []}
    min_ops = 1 if tracer is None else 2  # a traced run needs one op of each kind
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        with tracer.recording(i) if traced else nullcontext():
            error, wrong = None, False
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # the op reported failure; keep measuring
                error = f"{type(exc).__name__}: {exc}"
            latencies[traced].append(time.perf_counter() - t0)
            if error is None:
                try:
                    wl.check(i, out)
                except Exception as exc:  # a wrong output, or one a check cannot read
                    error, wrong = f"{type(exc).__name__}: {exc}", True
        if error is None:
            tally.ok()
        else:
            tally.fail(f"op {i}: {error}", wrong)
        if rotation is not None:
            rotation.step()
        i += 1
    return tally, latencies[False], latencies[True]


def end_to_end_metrics(wl, latencies, setup_samples) -> dict:
    rate = block_rate(latencies, RATE_BLOCK_S)
    return {
        "setup_s": (median(setup_samples), "s"),
        "latency_p50_s": (median(latencies), "s"),
        "throughput_records_per_s": (wl.records_per_op * rate, "1/s"),
        "experiments_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(wl, tracer, untraced, traced) -> dict:
    """Per-layer medians over the traced ops; zero where a layer did no work."""
    ops = sorted(tracer.ops)

    def per_op(f):
        return median([f(op) for op in ops])

    def busy(*names):
        return per_op(lambda op: sum(tracer.busy(op, n) for n in names))

    def cli_self(command):
        """Self time of the cli.main call that runs `command` in each op."""
        if command not in wl.cli_commands:
            return 0.0
        k = wl.cli_commands.index(command)

        def own(op):
            times = tracer.self_times(op, "cli.main")
            return times[k] if k < len(times) else 0.0  # the op failed before `command`

        return per_op(own)

    return {
        "cli.main.busy_s": (busy("cli.main"), "s"),
        "cli.load_config.busy_s": (busy("cli.load_config"), "s"),
        "cli.counts_csv.busy_s": (busy("cli.counts_csv"), "s"),
        "cli.csv_bytes": (per_op(lambda op: tracer.count(op, "cli.counts_csv")), "count"),
        "cli.parse_counts_csv.busy_s": (busy("cli.parse_counts_csv"), "s"),
        "cli.rows_parsed": (per_op(lambda op: tracer.count(op, "cli.parse_counts_csv")), "count"),
        "cli.simulate_other.derived_s": (cli_self("simulate"), "s"),
        "cli.estimate_other.derived_s": (cli_self("estimate"), "s"),
        "experiment.expected_counts.busy_s": (busy("experiment.expected_counts"), "s"),
        "experiment.simulate_counts.busy_s": (busy("experiment.simulate_counts"), "s"),
        "experiment.draws.derived_s": (
            per_op(lambda op: tracer.self_time(op, "experiment.simulate_counts")), "s"),
        "estimate.least_squares_fit.busy_s": (busy("estimate.least_squares_fit"), "s"),
        "estimate.nll_eval.busy_s": (busy("estimate.nll_eval"), "s"),
        "estimate.subtract_accidentals.busy_s": (busy("estimate.subtract_accidentals"), "s"),
        "estimate.three_angle.busy_s": (busy("estimate.three_angle"), "s"),
        "estimate.fit_failed_frac": (
            wl.fits_failed / wl.fits_attempted if wl.fits_attempted else 0.0, "frac"),
        "estimate.cov_outlier_frac": (cov_outliers(wl)[0], "frac"),
        "samples.stack_to_params.busy_s": (
            busy("samples.film_stack_reflectance", "samples.psi_delta_from_coeffs"), "s"),
        "trace_overhead_frac": (median(traced) / median(untraced) - 1.0, "frac"),
    }


def cov_outliers(wl):
    """(fraction, count, fits) of trust outliers among the first fits."""
    fits = wl.fits[:ACCURACY_OPS]
    count = sum(f.outlier for f in fits)
    return (count / len(fits) if fits else 0.0), count, len(fits)


def accuracy(wl):
    fits = wl.fits[:ACCURACY_OPS]
    if not fits:
        return None
    _, count, n = cov_outliers(wl)
    return {
        "psi_rmse_deg": {"value": rms(f.psi_err_deg for f in fits), "unit": "deg"},
        "delta_rmse_deg": {"value": rms(f.delta_err_deg for f in fits), "unit": "deg"},
        "fits": n,
        "cov_outliers": count,
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import qellip

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qellip": qellip.__version__,
        "git_commit": commit,
        "workload_seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from spans import Tracer

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    setup_samples = [] if args.trace else time_setups(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](Path(tmp), args.seed)
        wl.setup()
        # Inputs held by the harness are not the program's garbage; keep them
        # out of the collector's scans during the ops.
        gc.collect()
        gc.freeze()
        tracer = Tracer(TRACE_TARGETS) if args.trace else None
        rotation = CpuRotation(ROTATE_EVERY_S)
        try:
            tally, untraced, traced = measure(wl, args.seconds, tracer, rotation)
        finally:
            rotation.release()

    p99, p99_resolved = tail_percentile(untraced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_s_samples": setup_samples,
        "ops": {"untraced": len(untraced), "traced": len(traced)},
        # Reported, not gated: tails moved by up to 66 % between runs of the
        # same code on a shared host, where the median moved by 23 %.
        "latency_p90_s": {"value": percentile(untraced, 90.0), "unit": "s"},
        "latency_p99_s": {"value": p99, "unit": "s", "resolved": p99_resolved},
        "ops_per_busy_s": {"value": len(untraced) / sum(untraced), "unit": "1/s"},
        "failed_frac": {"value": tally.failed_frac, "unit": "frac"},
        "wrong_outputs": tally.wrong,
        "failures": tally.reasons,
        "fits": {"attempted": wl.fits_attempted, "failed": wl.fits_failed},
        "accuracy": accuracy(wl),
        "digests": wl.digests,
    }
    if args.trace:
        metrics = layer_metrics(wl, tracer, untraced, traced)
        detail["negative_derived"] = negative_names(
            {k: v for k, (v, _) in metrics.items() if k.endswith(".derived_s")})
    else:
        metrics = end_to_end_metrics(wl, untraced, setup_samples)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
