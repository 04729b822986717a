"""Run one benchmark workload and print its result as the last output line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload annotate-project --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` binds spans to
the program's layer-boundary functions and prints the per-layer metrics,
including the tracing overhead it measured.  Lines before the last one
carry the machine facts and the run's details as JSON, including how fast
the shared machine ran (``machine_probe_ms``, see ``MachineGauge``).  The exit code is 1
when a correctness check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench.common import (  # noqa: E402
    SRC,
    THREAD_ENV,
    BenchmarkError,
    machine_facts,
    remove_work,
    require_program,
)

os.environ.update(THREAD_ENV)  # before numpy is first imported
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("annotate-project", "serve-mixed", "train-stream")


def _workload(name: str):
    if name == "annotate-project":
        from perfbench import annotate

        return annotate.run
    if name == "serve-mixed":
        from perfbench import serve

        return serve.run
    from perfbench import train

    return train.run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops the processes it started (``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_program()
        facts = machine_facts()
        from perfbench.result import result_line

        result = _workload(args.workload)(args.seed, args.seconds, bool(args.trace))
        line = result_line(result)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        remove_work()
    print(json.dumps({"facts": facts}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "detail": result["detail"]}))
    print(line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
