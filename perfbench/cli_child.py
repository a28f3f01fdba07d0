"""Run ``mmslab`` in a fresh process, as the installed console script does.

Usage: python3 perfbench/cli_child.py <mmslab arguments>

The package is imported from the ``src`` directory of the checkout.  When
PERFBENCH_TRACE_DIR is set, the process wraps mmslab's public functions in
spans (see spans.py) and writes them to <dir>/<pid>.json on exit.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        from mmslab.cli import main as cli_main

        return cli_main(argv)
    sys.path.insert(1, HERE)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    from mmslab import cli

    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(os.path.join(trace_dir, f"{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
