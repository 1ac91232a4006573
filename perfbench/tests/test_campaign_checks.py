"""A pool that silently runs evaluations in-process is a failed
operation of the campaign workload."""

import threading

from repro.hpc import ParallelEvaluator

import wl_campaign


class _UnpicklableEvaluator:
    """Holds a lock, so it cannot be shipped to pool workers."""

    def __init__(self):
        self.lock = threading.Lock()


def test_a_pool_that_could_not_spawn_is_reported():
    pool = ParallelEvaluator(_UnpicklableEvaluator(), n_workers=2)
    try:
        faults = wl_campaign._pool_faults(pool, [])
    finally:
        pool.close()
    assert faults == ["the pool degraded to in-process evaluation"]


def test_in_process_fallbacks_are_reported():
    class Healthy:
        _degraded = False
        _next_worker_index = wl_campaign.WORKERS

    assert wl_campaign._pool_faults(Healthy(), [{"recovered": False}]) == []
    assert wl_campaign._pool_faults(
        Healthy(), [{"recovered": True}, {"recovered": False}]) == \
        ["1 evaluations fell back to in-process"]
