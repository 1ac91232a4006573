"""The serve workload gives the serving tier and the load generator the
same CPUs on every set-up, not only on the first."""

import os
import sys

import pytest

import wl_serve

_PRINT_AFFINITY = ("import os; "
                   "print(' '.join(map(str, sorted(os.sched_getaffinity(0)))))")


def _child_cpus(proc):
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0
    return set(map(int, out.split()))


def test_split_cpus():
    assert wl_serve._split_cpus({3, 1, 2}) == ({1}, {2, 3})
    assert wl_serve._split_cpus({5}) == ({5}, {5})


def test_every_setup_splits_the_saved_cpu_set():
    cpus = frozenset(os.sched_getaffinity(0))
    generator, server = wl_serve._split_cpus(cpus)
    try:
        for _ in range(2):
            proc = wl_serve._start_pinned(
                [sys.executable, "-c", _PRINT_AFFINITY], dict(os.environ),
                cpus)
            assert _child_cpus(proc) == server
            assert os.sched_getaffinity(0) == generator
            # A second split, made while this thread is pinned, still
            # divides the whole saved set.
            assert wl_serve._split_cpus(cpus) == (generator, server)
    finally:
        os.sched_setaffinity(0, cpus)


def test_teardown_gives_the_thread_all_cpus_back(tmp_path):
    cpus = frozenset(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs two CPUs to pin to a strict subset")
    registry = tmp_path / "registry"
    registry.mkdir()
    try:
        proc = wl_serve._start_pinned([sys.executable, "-c", "pass"],
                                      dict(os.environ), cpus)
        proc.wait(timeout=30)
        assert os.sched_getaffinity(0) != cpus
        wl_serve.teardown({"registry_dir": str(registry), "cpus": cpus})
        assert os.sched_getaffinity(0) == cpus
        proc.stdout.close()
    finally:
        os.sched_setaffinity(0, cpus)
