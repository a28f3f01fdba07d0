"""Self-test of the benchmark's output checks and tracer.

Usage: python3 perfbench/selftest.py

Shows that a corrupted output value is caught (by the reference comparison
and by the heuristic <= exact cross-check), that CLI tasks exiting non-zero
are counted as failed, that the tracer counts 360 LP solves for one exact
obs_diam call at n = 6, that the pacer scales each latency by the kernel
times around it, and that BENCHMARK.json lists exactly the metrics run.py
reports.  Exits 0 when all of this holds, 1 otherwise.
"""

import dataclasses
import json
import os
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path[:0] = [run.SRC, run.HERE]
import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tasks(workload, keys):
    wl = workloads.build(workload, run.DEFAULT_SEED,
                         os.path.join(run.OUT, f"{workload}_s{run.DEFAULT_SEED}"))
    by_key = {t.key: t for t in wl.tasks}
    return [by_key[k] for k in keys]


def check_corruption(problems):
    exact, heur = "obs_diam_exact_n6_0", "obs_diam_heur_n6_0"
    tasks = _tasks("small_exact", (exact, heur))
    reference = run.load_reference("small_exact")
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        _, _, outs, errors = workloads.run_batch(tasks, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    lp = tracer.task_counts.get(exact, {}).get("observables.lp_solves")
    if lp != 360:
        problems.append(f"one exact obs_diam at n=6 counted {lp} LP solves, not 360")
    if workloads.check_batch(tasks, outs, errors, reference):
        problems.append("clean outputs were flagged")
    bad = dict(outs, **{exact: outs[exact] * (1 + 1e-6)})
    if exact not in workloads.check_batch(tasks, bad, errors, reference):
        problems.append("an exact value off by 1e-6 was not caught by the reference")
    bad = dict(outs, **{heur: outs[exact] + 1e-3})
    if heur not in workloads.check_batch(tasks, bad, errors):
        problems.append("a heuristic value above the exact one was not caught")


def check_exit_codes(problems):
    box, plan = _tasks("cli_plans", ("box_exact", "run_cube_vs_gaussian"))
    broken = [
        dataclasses.replace(box, call=lambda: workloads.run_cli(
            ["box", "no-such-file.json", "no-such-file.json", "--exact"])),
        dataclasses.replace(plan, call=lambda: workloads.run_cli(["run", "no_such_plan"])),
    ]
    _, _, outs, errors = workloads.run_batch(broken)
    failures = workloads.check_batch(broken, outs, errors)
    for task in broken:
        if outs[task.key].returncode == 0:
            problems.append(f"{task.key}: the broken command exited 0")
        if task.key not in failures:
            problems.append(f"{task.key}: a non-zero exit was not counted as failed")


def check_pacer(problems):
    pacer = calibration.Pacer(gap_s=0.0)
    pacer.before()
    pacer.before()
    scaled = pacer.scale([0.25, 0.5])
    k = pacer.samples
    want = [0.25 * calibration.REFERENCE_S / (0.5 * (k[0] + k[1])),
            0.5 * calibration.REFERENCE_S / (0.5 * (k[1] + k[2]))]
    if len(k) != 3 or scaled != want:
        problems.append(f"pacer scaled [0.25, 0.5] to {scaled} with kernel times {k}")


def check_benchmark_json(problems):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def main():
    problems = []
    check_corruption(problems)
    check_exit_codes(problems)
    check_pacer(problems)
    check_benchmark_json(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
