"""One thread pool for the package's data-parallel loops.

``map_groups`` spreads a list of independent work items over every CPU the
process may use: the forward-only row blocks of ``nets.DenseNet`` and the
instances of the verify battery's Monte Carlo oracle.  The work is NumPy and
BLAS calls that release the interpreter lock, so threads overlap it.  Each
item is computed exactly as on one thread, so results do not depend on the
number of CPUs.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

# CPUs this process may run on; ``map_groups`` splits its items into at most
# this many groups, one per thread.
CPUS = len(os.sched_getaffinity(0))


def _new_pool() -> None:
    """Build ``_POOL``, which runs every group but the caller's; its threads
    start on first use.  A forked child builds its own: it inherits the
    parent's pool but none of its threads, and would wait on it forever."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(1, CPUS - 1), thread_name_prefix="noisedistill")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def map_groups(fn, items: list, scratch) -> list:
    """``[fn(item, s) for item in items]`` on up to ``CPUS`` threads, with
    ``s`` the scratch value of the item's group.

    ``items`` is cut into at most ``CPUS`` contiguous groups of near-equal
    length, and ``scratch()`` is called on the calling thread once per group
    before any work starts (so working memory the group reuses comes from the
    caller's allocator).  The calling thread runs the first group and pool
    workers the rest, each under a copy of the caller's context, which carries
    numpy's error state.  Every group is waited for before this returns or
    raises, so no worker still runs on the caller's data; the first error in
    item order is re-raised.  Results come back in item order.  ``fn`` must
    not call ``map_groups``: a worker that waits on its own pool can deadlock.
    """
    n_groups = max(1, min(CPUS, len(items)))
    cuts = [j * len(items) // n_groups for j in range(n_groups + 1)]
    groups = [(items[lo:hi], scratch()) for lo, hi in zip(cuts, cuts[1:])]

    def run(group, s):
        return [fn(item, s) for item in group]

    futures = []  # none with one group: it runs inline
    try:
        for group in groups[1:]:
            futures.append(_POOL.submit(contextvars.copy_context().run, run, *group))
        first = run(*groups[0])
    finally:  # no worker may still run on the caller's data once this call ends
        wait(futures)
    return first + [result for future in futures for result in future.result()]
