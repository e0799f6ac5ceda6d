"""Layered FCI benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sigma-halffill --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs wall-clock span shims around the program's public
entry points, reports the per-layer metrics and writes a Chrome trace to
``perfbench/out/``.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; provenance and progress
go to standard error.  See ``perfbench/README.md``.
"""

import os

# BLAS threads are fixed before numpy is imported anywhere in this process;
# spawned workers inherit the environment and are also passed blas_threads=1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads  # imports numpy and repro: after the BLAS pinning

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


# spawned pool workers re-import this file as __mp_main__: nothing may run
# outside the guard
if __name__ == "__main__":
    sys.exit(main())
