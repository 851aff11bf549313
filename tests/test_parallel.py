"""The ordered parallel map: job validation, the worker cap, ordering."""

from __future__ import annotations

import os

import pytest

from minorsieve.parallel import parallel_map, worker_count


@pytest.mark.parametrize("jobs", [0, -1])
def test_nonpositive_jobs_rejected_before_serial_shortcut(jobs):
    with pytest.raises(ValueError, match="jobs"):
        parallel_map(abs, [1], jobs)
    with pytest.raises(ValueError, match="jobs"):
        worker_count(jobs, 0)


def test_worker_count_is_capped():
    # pure arithmetic: no pool is started for the huge request
    cpus = len(os.sched_getaffinity(0))
    assert worker_count(100_000, 100_000) == cpus
    assert worker_count(100_000, 1) == 1
    assert worker_count(1, 100_000) == 1
    assert worker_count(2, 0) == 1


def test_results_keep_input_order():
    items = list(range(-20, 20))
    assert parallel_map(abs, items, 2) == [abs(x) for x in items]
