"""The shared thread-group helper and the Monte Carlo check that runs on it."""

import threading
import time

import numpy as np
import pytest

from noisedistill import parallel
from noisedistill.linear_theory import GeneratorParams, LinearModel, loss_closed_form, loss_monte_carlo
from noisedistill.rng import derive
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import retract
from noisedistill.verify import check_closed_vs_monte_carlo


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
