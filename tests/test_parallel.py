"""The shared thread and process maps, and the verify checks that run on them."""

import gc
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from noisedistill import parallel
from noisedistill.errors import PreconditionError
from noisedistill.linear_theory import GeneratorParams, LinearModel, loss_closed_form, loss_monte_carlo
from noisedistill.rng import derive
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import retract
from noisedistill.verify import check_closed_vs_monte_carlo, check_descent_recovery


class TestMapGroups:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
    def test_results_come_back_in_item_order(self, cpus, n, set_cpus):
        set_cpus(cpus)
        scratch_threads = []

        def scratch():
            scratch_threads.append(threading.get_ident())
            return len(scratch_threads) - 1

        got = parallel.map_groups(lambda item, group: (item * item, group), list(range(n)), scratch)
        assert [square for square, _ in got] == [k * k for k in range(n)]
        groups = [group for _, group in got]
        assert groups == sorted(groups)  # contiguous groups, in order
        assert len(scratch_threads) == max(1, min(cpus, n))
        assert set(scratch_threads) == {threading.get_ident()}  # allocated by the caller

    @pytest.mark.parametrize("failing_group", [0, 1])
    def test_error_is_raised_after_every_group_has_finished(self, failing_group, set_cpus):
        set_cpus(3)  # groups [0, 1], [2, 3], [4, 5]; group 0 runs on the caller
        finished = []

        def work(item, _):
            if item == 2 * failing_group:
                raise KeyError(item)
            time.sleep(0.05)
            finished.append(item)
            return item

        with pytest.raises(KeyError):
            parallel.map_groups(work, list(range(6)), lambda: None)
        expected = {0, 1, 2, 3, 4, 5} - {2 * failing_group, 2 * failing_group + 1}
        assert set(finished) == expected

    def test_first_error_in_item_order_wins(self, set_cpus):
        set_cpus(3)

        def work(item, _):
            if item == 1:
                time.sleep(0.05)  # the later group fails first in time
                raise KeyError(item)
            if item == 2:
                raise ValueError(item)
            return item

        with pytest.raises(KeyError):
            parallel.map_groups(work, [0, 1, 2], lambda: None)

    def test_workers_run_under_the_callers_error_state(self, set_cpus):
        """Only the second item overflows and it runs on a worker, which sees
        ``over="raise"`` only through the caller's context."""
        set_cpus(2)
        threads = []

        def scale(x, _):
            threads.append(threading.get_ident())
            return np.float64(x) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                parallel.map_groups(scale, [1.0, 1e308], lambda: None)
        assert len(set(threads)) == 2
        with np.errstate(over="ignore"):
            assert parallel.map_groups(scale, [1.0, 1e308], lambda: None) == [10.0, np.inf]


@pytest.fixture
def no_child_left():
    """After the test, every child has been reaped and no file was left open."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("no_child_left")
class TestMapProcesses:
    @pytest.mark.parametrize("cpus, n", [(1, 7), (2, 7), (3, 7), (5, 3)])
    def test_results_come_back_in_group_order(self, cpus, n, set_cpus):
        set_cpus(cpus)
        got = parallel.map_processes(lambda group: (list(group), os.getpid()), list(range(n)))
        assert len(got) == min(cpus, n)
        assert [item for group, _ in got for item in group] == list(range(n))
        assert all(group for group, _ in got)
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid() and len(set(pids)) == len(pids)  # the caller runs the first group

    def test_a_range_is_cut_without_being_built(self, set_cpus):
        set_cpus(3)
        got = parallel.map_processes(lambda group: (type(group), len(group)), range(10**12))
        assert got == [(range, 333333333333), (range, 333333333333), (range, 333333333334)]

    def test_one_group_forks_nothing(self, set_cpus):
        set_cpus(4)
        assert parallel.map_processes(lambda group: (list(group), os.getpid()), [5]) == [([5], os.getpid())]

    def test_an_error_in_a_child_arrives_with_its_type_and_message(self, set_cpus):
        set_cpus(3)

        def work(group):
            if group[0] == 2:
                raise PreconditionError(f"bad group starting at {group[0]}")
            return list(group)

        with pytest.raises(PreconditionError, match="^bad group starting at 2$"):
            parallel.map_processes(work, list(range(6)))

    def test_an_error_in_the_callers_group_wins_and_kills_the_children(self, set_cpus):
        set_cpus(3)

        def work(group):
            if group[0] == 0:
                raise KeyError("caller")
            if group[0] == 2:
                raise ValueError("child")
            time.sleep(60)  # killed, not waited for
            return list(group)

        start = time.monotonic()
        with pytest.raises(KeyError, match="caller"):
            parallel.map_processes(work, list(range(6)))
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("end, words", [(lambda: os.kill(os.getpid(), signal.SIGKILL), "SIGKILL"),
                                            (lambda: os._exit(3), "exit status 3")])
    def test_a_child_that_ends_without_a_result_raises(self, end, words, set_cpus):
        set_cpus(2)

        def work(group):
            if group[0] != 0:
                end()
            return list(group)

        with pytest.raises(RuntimeError, match=f"ended without a result: .*{words}"):
            parallel.map_processes(work, list(range(4)))

    def test_forks_after_map_groups_has_started_the_pool_thread(self, set_cpus):
        set_cpus(2)
        assert parallel.map_groups(lambda item, _: item + 1, [0, 1], lambda: None) == [1, 2]
        assert threading.active_count() > 1
        got = parallel.map_processes(lambda group: [float(np.linalg.eigvalsh(np.diag([k, 1.0]))[0])
                                                    for k in group], [0.5, 2.0, 3.0, 0.25])
        assert got == [[0.5, 1.0], [1.0, 0.25]]


def serial_closed_vs_monte_carlo(seed, schedule, instances, n):
    """``check_closed_vs_monte_carlo``'s value as one loop on the calling thread:
    the reference for its threaded form."""
    rng = derive(seed, 6)
    worst = 0.0
    for i in range(instances):
        e = retract(np.zeros((6, 2)), rng.standard_normal((6, 2)))
        model = LinearModel(basis=e, sigma=float(rng.uniform(0.1, 0.8)))
        u = retract(np.zeros((6, 2)), rng.standard_normal((6, 2)))
        p = GeneratorParams(u=u, v=rng.standard_normal((6, 2)))
        closed = loss_closed_form(model, p, schedule)
        est, stderr = loss_monte_carlo(model, p, schedule, n, derive(seed, 7, i))
        worst = max(worst, abs(closed - est) / (4.0 * stderr))
    return worst


@pytest.mark.parametrize("seed", [1, 5])
def test_monte_carlo_check_is_the_same_on_any_cpu_count(seed, set_cpus):
    schedule = NoiseSchedule()
    want = serial_closed_vs_monte_carlo(seed, schedule, 7, 9000)
    for cpus in (1, 2, 3):
        set_cpus(cpus)
        assert check_closed_vs_monte_carlo(seed, schedule, instances=7, n=9000).value == want, cpus


@pytest.mark.usefixtures("no_child_left")
def test_descent_check_is_the_same_on_any_cpu_count(set_cpus):
    results = []
    for cpus in (1, 2):
        set_cpus(cpus)
        results.append(check_descent_recovery(4, 1, 0.5, NoiseSchedule(), seeds=5, max_iters=2000))
    assert results[0] == results[1]
    assert results[0].detail == "5/5 converged"
