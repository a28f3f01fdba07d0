"""Benchmark of mmslab: four workloads, end-to-end and per-module metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): cli_plans, small_exact, large_search, grids_1d.
One client drives each workload in a closed loop from this process: the next
task starts when the previous one returned.  With ``--trace 0`` the fixed task
list runs a fixed number of batches per ``--seconds``, each on its own input
set, latencies are scaled to a reference machine speed (calibration.py) and
the end-to-end metrics are printed; with ``--trace 1`` the list runs once with spans around every
public mmslab call, between two untraced runs, and the per-module metrics
are printed.  Every output is checked; on seed DEFAULT_SEED outputs are also
compared with reference_seed1.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread for this process and every process it starts.  With the
# default two threads about one process in four stalls for ~0.4 s in its
# first BLAS calls, which would be timed as solver work.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# The runner and every process it starts run on one CPU, so the calibration
# kernel (calibration.py) times the same CPU as the task next to it; every
# process involved is single-threaded and runs one at a time.
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibration  # noqa: E402  (imports numpy and scipy, never mmslab)
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference_seed1.json")

WORKLOADS = ("cli_plans", "small_exact", "large_search", "grids_1d")
DEFAULT_SEED = 1   # outputs are compared with the recorded reference values
RECHECK_SEED = 2   # the second seed on which a claimed gain must also hold
SETUP_REPEATS = 3

# Batches, each on its own input set, in a 20-second run; a run of S seconds
# makes round(count * S / 20).  The count is fixed, not timed, so that every
# commit takes the same number of samples and so the same tail percentile.
# At the commit that defined the benchmark one batch took 9.2 s (cli_plans),
# 3.3 s (small_exact), 8.1 s (large_search) and 3.7 s (grids_1d) of wall time
# on the 2-core machine, with the calibration kernel at 9.5-10.7 ms; a whole
# run, set-up included, took 23, 26, 30 and 30 s.  cli_plans keeps two
# batches: with three its 27 samples would make the tail percentile p50.
# large_search takes three for 54 samples.
BATCHES_PER_20_S = {"cli_plans": 2, "small_exact": 7, "large_search": 3, "grids_1d": 7}
# grids_1d repeats its seed's one input set in every batch: on further input
# sets poincare_c22 hit a convergence failure of mmslab (README, "Known
# defect"), which takes 250-350 s to raise.
ONE_INPUT_SET = ("grids_1d",)
CHILD_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("task_ms_p50", "ms"),
    ("task_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

MODULES = spans.MODULES

# Public functions whose self time is reported as <module>.<function>.busy_s:
# the ones the workloads call, and the nested calls that carry their cost.
FUNCTIONS = (
    "core.validate", "core.check_valid", "core.space", "core.prokhorov", "core.mm_isomorphic",
    "core.load_space", "core.save_space",
    "observables.obs_diam", "observables.variance", "observables.p_deviation",
    "observables.p_variance", "observables.lipschitz_vertices", "observables.separation",
    "observables.separation_witness", "observables.obs_diam_projection_estimate",
    "boxmetric.box_upper", "boxmetric.box_lower", "boxmetric.box_exact_small",
    "order.dominates",
    "functional.poincare_c22", "functional.second_eigenvalue", "functional.log_sobolev_check",
    "functional.poincare_pq_lower", "functional.gaussian_domination_scale",
    "functional.unit_interval_grid", "functional.gaussian_grid",
    "atoms.member", "atoms.is_contraction",
    "generators.gaussian_sample",
    "cli.main", "cli.run_experiment",
)

COUNTS = (
    ("observables.lp_solves", "count"),
    ("observables.partial_diameter.calls", "count"),
    ("order.nodes_explored", "count"),
    ("generators.matrix_mb", "MB"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_units():
    units = {}
    for m in MODULES:
        units[f"{m}.busy_s"] = "s"
        units[f"{m}.calls"] = "count"
    for f in FUNCTIONS:
        units[f"{f}.busy_s"] = "s"
    units.update(COUNTS)
    return units


# ---------------------------------------------------------------------------
# environment record


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    pkg = os.path.join(SRC, "mmslab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": int(BLAS_THREADS),
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# measurement helpers


def batch_count(workload, seconds):
    return max(1, round(BATCHES_PER_20_S[workload] * seconds / 20.0))


def input_sets(workload, seconds):
    return 1 if workload in ONE_INPUT_SET else batch_count(workload, seconds)


def probe_setup(workload, seed, workdir, parts):
    """One set-up in a fresh process (import + building every input set), in
    seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir,
         str(parts)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail_latency(latencies):
    """Highest listed percentile with at least ten samples beyond it; the
    maximum when fewer than twenty samples exist."""
    import numpy

    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return float(numpy.percentile(latencies, p)), p
    return max(latencies), 100.0


def peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_reference(workload):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)[workload]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        raise RuntimeError(f"cannot read reference values for {workload}: {e}") from e


class Tally:
    """Attempted and failed task counts, with the first reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        for key, why in failures.items():
            self.reasons.setdefault(key, why)


def timed_run(wl, batches, reference, tally, workloads, pacer):
    """Run the task list once per batch, batch b on input set b (modulo the
    number of sets); latencies are scaled to the reference machine speed (see
    calibration.py), wall-clock values are kept in the detail.  Only part 0
    holds the inputs the reference was recorded on; every part passes the
    output checks."""
    walls, raw_walls, latencies, raw_latencies, per_task = [], [], [], [], {}
    for b in range(batches):
        part = b % len(wl.parts)
        tasks = wl.parts[part]
        raw_wall, lat, outs, errors = workloads.run_batch(tasks, pacer=pacer)
        scaled = pacer.scale(lat)
        tally.add(len(tasks), workloads.check_batch(tasks, outs, errors,
                                                    reference if part == 0 else None))
        walls.append(sum(scaled))
        raw_walls.append(raw_wall)
        latencies += scaled
        raw_latencies += lat
        for task, t in zip(tasks, scaled):
            per_task.setdefault(task.key, []).append(t)
    tail, tail_p = tail_latency(latencies)
    raw_tail, _ = tail_latency(raw_latencies)
    metrics = {
        "batch_s": statistics.median(walls),
        "task_ms_p50": 1000.0 * statistics.median(latencies),
        "task_ms_tail": 1000.0 * tail,
        "peak_rss_mb": peak_rss_mb(wl.in_process),
    }
    detail = {
        "batches": len(walls),
        "batch_s_samples": walls,
        "task_samples": len(latencies),
        "tail_percentile": tail_p,
        "wall_clock_batch_s": statistics.median(raw_walls),
        "wall_clock_task_ms_p50": 1000.0 * statistics.median(raw_latencies),
        "wall_clock_task_ms_tail": 1000.0 * raw_tail,
        "wall_clock_batch_s_samples": raw_walls,
        "kernel_ms_median": 1000.0 * statistics.median(pacer.samples),
        "task_median_ms": {k: 1000.0 * statistics.median(v) for k, v in per_task.items()},
    }
    return metrics, detail


def traced_run(wl, reference, tally, tracer, workloads, trace_path):
    """One traced batch between two untraced ones; the overhead ratio is
    traced time over the mean untraced time, which cancels slow drift in
    machine speed."""

    def plain_batch():
        wall, _, outs, errors = workloads.run_batch(wl.tasks)
        tally.add(len(wl.tasks), workloads.check_batch(wl.tasks, outs, errors, reference))
        return wall

    wall_before = plain_batch()

    child_dir = os.path.join(wl.workdir, "trace_children")
    os.makedirs(child_dir, exist_ok=True)
    for name in os.listdir(child_dir):
        if name.endswith(".json"):
            os.remove(os.path.join(child_dir, name))
    os.environ["PERFBENCH_TRACE_DIR"] = child_dir
    tracer.active = True
    try:
        wall_traced, _, outs, errors = workloads.run_batch(wl.tasks, tracer)
    finally:
        tracer.active = False
        del os.environ["PERFBENCH_TRACE_DIR"]
    tally.add(len(wl.tasks), workloads.check_batch(wl.tasks, outs, errors, reference))
    wall_plain = 0.5 * (wall_before + plain_batch())

    child_files = sorted(os.path.join(child_dir, n) for n in os.listdir(child_dir)
                         if n.endswith(".json"))
    for path in child_files:
        with open(path, encoding="utf-8") as fh:
            tracer.merge(json.load(fh))

    startup = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = workloads.run_cli(["--help"])
        startup.append(time.perf_counter() - t0)
        tally.add(1, {} if out.returncode == 0 else {"cli --help": f"exit {out.returncode}"})

    found = tracer.module_metrics()
    found["generators.matrix_mb"] = found.pop("generators.matrix_bytes") / 1e6
    found["cli.startup_ms"] = 1000.0 * statistics.median(startup)
    found["trace.overhead_ratio"] = wall_traced / wall_plain
    tracer.dump(trace_path, {"child_traces": child_files, "metrics": found})
    units = per_layer_units()
    metrics = {name: float(found.get(name, 0.0)) for name in units}
    lp_by_task = " ".join(f"{key}={c['observables.lp_solves']}"
                          for key, c in tracer.task_counts.items() if "observables.lp_solves" in c)
    detail = {"untraced_batch_s": wall_plain, "traced_batch_s": wall_traced,
              "lp_solves_by_task": lp_by_task or "none",
              "unlisted": {k: v for k, v in found.items() if k not in units}}
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.sched_setaffinity(0, {PINNED_CPU})
    if not os.path.isfile(os.path.join(SRC, "mmslab", "__init__.py")):
        print(f"perfbench: no mmslab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}_s{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    pacer = calibration.Pacer()
    pacer.warm_up()
    try:
        parts = input_sets(args.workload, args.seconds)
        raw_setup = []
        for _ in range(SETUP_REPEATS):
            pacer.before()
            raw_setup.append(probe_setup(args.workload, args.seed, workdir, parts))
        setup = pacer.scale(raw_setup)
        reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.path[:0] = [SRC, HERE]
    import mmslab
    import workloads

    if not os.path.abspath(mmslab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: mmslab imported from {mmslab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        wl = workloads.build(args.workload, args.seed, workdir, 1 if args.trace else parts)
    if tracer is not None:
        tracer.active = False
    if wl.in_process:
        workloads.warm_up()
    else:
        workloads.run_cli(["--help"])

    tally = Tally()
    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    if args.trace:
        metrics, detail = traced_run(wl, reference, tally, tracer, workloads,
                                     os.path.join(OUT, f"trace_{tag}.json"))
        units = per_layer_units()
    else:
        metrics, detail = timed_run(wl, batch_count(args.workload, args.seconds), reference,
                                    tally, workloads, pacer)
        metrics["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    env = environment()
    failed_ratio = tally.failed / tally.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": setup,
        "wall_clock_setup_samples_s": raw_setup,
        "failed_ratio": failed_ratio, "failures": tally.reasons, "detail": detail,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT, f"result_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment: {json.dumps(env)}")
    for key, value in detail.items():
        if not isinstance(value, (list, dict)):
            print(f"# {key}: {value}")
    for key, why in list(tally.reasons.items())[:20]:
        print(f"# FAILED {key}: {why}")
    for name in units:
        print(f"{name:45s} {metrics[name]:16.6f} {units[name]}")
    print(f"{'failed_ratio':45s} {failed_ratio:16.6f} ratio "
          f"({tally.failed} of {tally.attempted} tasks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
