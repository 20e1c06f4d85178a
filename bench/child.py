"""Run one workload in this (fresh) process and print one JSON line.

``run.py`` starts one of these per measurement, one at a time, so every
workload gets its own interpreter, its own imports and its own peak
RSS.  Set-up time runs from the first line of this file to the moment
the workload is ready for its warm-up traffic.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

# Single-threaded by construction: the box has two cores and the
# generator shares them with the program, so BLAS may not fan out.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float)
    length.add_argument("--units", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from measure import Budget
    from workloads import WORKLOADS, SimWorkload

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if isinstance(workload, SimWorkload):
        import sim_driver as driver
    else:
        import real_driver as driver

    if args.setup_only:
        driver.set_up(workload, args.seed)
        result = {"setup_s": time.perf_counter() - STARTED}
    else:
        if args.units is not None:
            budget = Budget(units=args.units)
        else:
            budget = Budget(seconds=args.seconds or 10.0)
        result = driver.run(workload, args.seed, budget, bool(args.trace),
                            STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
