#!/usr/bin/env python3
"""Record the output digests that benchmark runs are checked against.

    python3 tsbench/record_digests.py --seeds 0-99 [--workload year ...]

For each workload and seed this runs ``compare``, ``solve-full`` and
``plot`` once on the benchmark instance, checks them against the
merit-order oracle, and stores the digests of their outputs (the per-hour
basis sequence and the report, cluster, summary and SVG bytes) in
``tsbench/digests.json``.  A later run whose outputs differ for a recorded
seed counts those operations as failed, so re-record only when a change to
tsagg's outputs is intended.  Seeds 0-99 take about 15 minutes on two
cores.
"""

import os

from run import PINNED_ENV, ROOT, WORKLOADS

os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tsbench import bench, speed  # noqa: E402

WORKERS = 2  # one per core of the 2-core reference machine


def record_one(workload: str, seed: int) -> tuple[str, int, dict, list[str]]:
    work = ROOT / ".bench_work" / f"record-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    config = bench.write_instance(workload, seed, work / "instance")
    ctx = bench.make_context(workload, seed, work, config, speed.Gauge())
    ctx.recorded = {}
    bench.op_compare(ctx)
    bench.op_solve_full(ctx)
    bench.op_plot(ctx, None)
    shutil.rmtree(work, ignore_errors=True)
    return workload, seed, dict(ctx.seen), ctx.problems


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, required=True,
                        help="inclusive range such as 0-99")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    digests = bench.load_digests()
    tasks = [(w, s) for w in (args.workload or WORKLOADS) for s in args.seeds]
    failed = False
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        futures = [pool.submit(record_one, w, s) for w, s in tasks]
        for future in futures:
            workload, seed, seen, problems = future.result()
            if problems:
                failed = True
                print(f"{workload} seed {seed}: not recorded: {problems}", file=sys.stderr)
                continue
            digests.setdefault(workload, {})[str(seed)] = seen
            print(f"{workload} seed {seed}: {seen}")
    bench.DIGESTS_PATH.write_text(_format(digests))
    return 1 if failed else 0


def _format(digests: dict) -> str:
    """JSON with one line per seed, seeds in numeric order."""
    blocks = []
    for workload in sorted(digests):
        table = digests[workload]
        rows = [
            f"  {json.dumps(seed)}: {json.dumps(table[seed], sort_keys=True)}"
            for seed in sorted(table, key=int)
        ]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
