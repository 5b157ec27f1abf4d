"""Output bytes of the benchmark's operations against its recorded digests.

Runs ``compare``, ``solve-full`` and ``plot`` on seeds of each benchmark
workload, the same steps ``tsbench/record_digests.py`` records, and
requires every output digest to equal ``tsbench/digests.json``: a change to
any basis, report, cluster file, summary or plot byte fails here.  Seed 0
runs by default; every recorded seed, 0-99, is checked by the ``slow`` test:

    python3 -m pytest -m slow tests/test_bench_digests.py
"""

import pytest

from tsbench import bench, speed

WORKLOADS = ["year", "fleet", "trials"]


def _check_digests(workload, seed, tmp_path):
    recorded = bench.load_digests()[workload][str(seed)]
    config = bench.write_instance(workload, seed, tmp_path / "instance")
    ctx = bench.make_context(workload, seed, tmp_path, config, speed.Gauge())
    bench.op_compare(ctx)
    bench.op_solve_full(ctx)
    bench.op_plot(ctx, None)
    assert ctx.problems == []
    assert ctx.seen == recorded


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_recorded_digests(workload, tmp_path):
    _check_digests(workload, 0, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_recorded_digests_all_seeds(workload, seed, tmp_path):
    _check_digests(workload, seed, tmp_path)
