"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from noisedistill import parallel


@pytest.fixture
def set_cpus(monkeypatch):
    """Set ``parallel.CPUS`` for one test, with a pool of ``CPUS - 1`` workers
    that is shut down afterwards."""
    pools = []

    def set_to(cpus):
        pools.append(ThreadPoolExecutor(max_workers=max(1, cpus - 1)))
        monkeypatch.setattr(parallel, "CPUS", cpus)
        monkeypatch.setattr(parallel, "_POOL", pools[-1])

    yield set_to
    for pool in pools:
        pool.shutdown()
