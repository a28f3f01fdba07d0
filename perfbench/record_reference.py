"""Record the reference outputs of every workload on the default seed.

Usage: python3 perfbench/record_reference.py

Runs each workload's task list once on run.DEFAULT_SEED, requires every
output check to pass, and writes the values to reference_seed1.json.  Run it
only when a change is meant to alter reported numbers, and say why.
"""

import json
import os
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path[:0] = [run.SRC, run.HERE]
import workloads  # noqa: E402


def main():
    reference = {}
    for name in run.WORKLOADS:
        workdir = os.path.join(run.OUT, f"{name}_s{run.DEFAULT_SEED}")
        wl = workloads.build(name, run.DEFAULT_SEED, workdir)
        _, _, outs, errors = workloads.run_batch(wl.tasks)
        failures = workloads.check_batch(wl.tasks, outs, errors)
        if failures:
            print(f"{name}: checks failed, nothing written: {failures}", file=sys.stderr)
            return 1
        reference[name] = {t.key: t.values(outs[t.key]) for t in wl.tasks}
        print(f"{name}: {len(wl.tasks)} tasks recorded")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
