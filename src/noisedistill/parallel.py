"""The package's data-parallel loops: threads for NumPy-bound work, forked
processes for Python-bound work.

``map_groups`` spreads a list of independent work items over every CPU the
process may use on threads: the forward-only row blocks of ``nets.DenseNet``
and the instances of the verify battery's Monte Carlo oracle.  That work is
NumPy and BLAS calls that release the interpreter lock, so threads overlap it.
``map_processes`` spreads work whose time goes to the interpreter itself, such
as the verify battery's descent starts on 8 x 2 matrices, over forked child
processes, since the interpreter lock lets only one thread run Python code at
a time.  Both cut their items into the same contiguous groups, and each item
is computed exactly as on one CPU, so results do not depend on the number of
CPUs.
"""

from __future__ import annotations

import contextvars
import os
import pickle
from concurrent.futures import ThreadPoolExecutor, wait

# CPUs this process may run on; each map splits its items into at most this
# many groups, one per thread or process.
CPUS = len(os.sched_getaffinity(0))


def _new_pool() -> None:
    """Build ``_POOL``, which runs every group but the caller's; its threads
    start on first use.  A forked child builds its own: it inherits the
    parent's pool but none of its threads, and would wait on it forever."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(1, CPUS - 1), thread_name_prefix="noisedistill")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _groups(items):
    """``items`` cut into at most ``CPUS`` contiguous groups of near-equal
    length, by slicing (so a ``range`` stays lazy); always at least one."""
    n_groups = max(1, min(CPUS, len(items)))
    cuts = [j * len(items) // n_groups for j in range(n_groups + 1)]
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


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
    call neither map: a worker that waits on its own pool can deadlock.
    """
    groups = [(group, scratch()) for group in _groups(items)]

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


def map_processes(fn, items) -> list:
    """``[fn(group) for group in groups]`` over the contiguous groups that
    ``map_groups`` would cut ``items`` into, one process per group.

    The caller runs the first group; every other group runs in a child forked
    from the caller, which sends its pickled result (or exception) back
    through a pipe and leaves through ``os._exit``, so none of the caller's
    cleanup code runs twice.  Nothing forks when there is one group.  Only the
    results cross between processes, so ``fn`` may be a closure and ``items``
    a ``range``; what a child prints or records is lost.  Every pipe is read
    to its end and every child reaped before this returns or raises; when the
    caller's own group raises, the children are killed first.  The first
    error in group order is re-raised with its type, and a child that ended
    without a result raises ``RuntimeError`` naming how it ended.  ``fn`` must
    call neither map, and no other thread may be running ``map_groups`` work
    when this is called, since a forked child keeps only the calling thread.
    """
    groups = _groups(items)
    children = []  # (pid, read end of its pipe), in group order
    try:
        for group in groups[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(fn, group, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        first = fn(groups[0])
    except BaseException:
        import signal  # here and in _describe only: importing it costs every start-up 1.5 ms

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:  # no child may outlive this call
        ended = [_reap(pid, pipe) for pid, pipe in children]
    results = [first]
    for payload, status in ended:
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 and payload):
            raise RuntimeError(f"a worker process ended without a result: {_describe(status)}")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results.append(value)
    return results


def _run_child(fn, group, read_fd: int, write_fd: int) -> None:
    """The forked child's whole life: run ``fn(group)``, write ``(True,
    result)`` or ``(False, exception)`` to the pipe, and exit with status 0
    only if that was written in full."""
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, fn(group))
        except BaseException as exc:  # sent to the caller, which re-raises it
            outcome = (False, exc)
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:  # the caller still learns what went wrong
            payload = pickle.dumps((False, RuntimeError(f"a worker's result could not be pickled: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, pipe) -> tuple[bytes, int]:
    """Read a child's pipe to its end, then wait for the child; returns what
    it wrote and its wait status."""
    try:
        with pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return payload, status


def _describe(status: int) -> str:
    """How a child with wait status ``status`` ended, in words."""
    import signal

    if os.WIFSIGNALED(status):
        number = os.WTERMSIG(status)
        return f"killed by signal {number} ({signal.Signals(number).name})"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
