"""Time one set-up of a workload in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir> <parts>

Set-up is importing mmslab and building the workload's inputs through
``generators`` and ``core.space`` (for cli_plans, also writing its input
files).  Prints {"setup_s": seconds} as one JSON line.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed, workdir, parts):
    start = time.perf_counter()
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import mmslab  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    workloads.build(workload, int(seed), workdir, int(parts))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
