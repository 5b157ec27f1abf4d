"""Output bytes of the benchmark's operations against its recorded digests.

Runs ``compare``, ``solve-full`` and ``plot`` on seed 0 of each benchmark
workload, the same steps ``tsbench/record_digests.py`` records, and
requires every output digest to equal ``tsbench/digests.json``: a change to
any basis, report, cluster file, summary or plot byte fails here.
"""

import pytest

from tsbench import bench, speed


@pytest.mark.parametrize("workload", ["year", "fleet", "trials"])
def test_outputs_match_recorded_digests(workload, tmp_path):
    recorded = bench.load_digests()[workload]["0"]
    config = bench.write_instance(workload, 0, tmp_path / "instance")
    ctx = bench.make_context(workload, 0, tmp_path, config, speed.Gauge())
    bench.op_compare(ctx)
    bench.op_solve_full(ctx)
    bench.op_plot(ctx, None)
    assert ctx.problems == []
    assert ctx.seen == recorded
