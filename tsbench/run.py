#!/usr/bin/env python3
"""Benchmark tsagg on one workload and print its metrics.

    python3 tsbench/run.py --workload {year,fleet,trials} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; tsagg is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around every public tsagg function.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Instances, outputs, the run's
environment and the spans go to ``.bench_work/`` in the repository root.

The numpy kernel backend, one tsagg worker thread and single-threaded BLAS
are pinned before numpy is imported, so runs on the 2-core reference box
compare like for like.
"""

import argparse
import os
import sys
from pathlib import Path

PINNED_ENV = {
    "TSAGG_NUMBA": "0",
    "TSAGG_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("year", "fleet", "trials")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; rounds stop before exceeding it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tsagg" / "__init__.py").is_file():
        print(f"error: tsagg sources not found under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before anything imports numpy
    sys.path[:0] = [str(src), str(ROOT)]
    from tsbench import bench

    return bench.run(args, ROOT, PINNED_ENV)


if __name__ == "__main__":
    sys.exit(main())
