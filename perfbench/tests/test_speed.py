"""The speed meter: samples only inside its block, in forked workers too."""

import multiprocessing
import signal
import statistics
import time

import pytest

from perfbench.speed import REFERENCE_KERNEL_S, LocalSpeed, SpeedMeter


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_samples_inside_its_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter(interval_s=0.01) as meter:
        _busy(0.3)
    taken = len(meter.samples)
    _busy(0.05)

    assert taken >= 10
    assert len(meter.samples) == taken == len(meter.stamps)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert meter.speed() == pytest.approx(
        statistics.fmean(REFERENCE_KERNEL_S / s for s in meter.samples)
    )


def test_forked_worker_ships_its_samples_home(tmp_path):
    with SpeedMeter(tmp_path, interval_s=0.01) as meter:
        child = multiprocessing.get_context("fork").Process(target=_busy, args=(0.3,))
        child.start()
        child.join(timeout=30)
    assert child.exitcode == 0

    speeds = meter.speeds()
    assert set(speeds) == {meter.pid, child.pid}
    stamps, values = speeds[child.pid]
    assert len(stamps) == len(values) >= 10
    assert stamps == sorted(stamps)


def test_local_speed_averages_the_samples_around_a_span():
    meter = SpeedMeter()
    meter.stamps = [1.0, 2.0, 3.0, 4.0]
    meter.samples = [REFERENCE_KERNEL_S / v for v in (1.0, 2.0, 4.0, 8.0)]
    local = LocalSpeed(meter)  # samples within 0.1 s of a span count

    assert local.around(meter.pid, 1.95, 3.05) == pytest.approx(3.0)
    assert local.around(meter.pid, 3.95, 4.0) == pytest.approx(8.0)
    # No sample near the span: the process's mean.
    assert local.around(meter.pid, 2.4, 2.6) == pytest.approx(3.75)
    # A process that took no samples: the meter's mean.
    assert local.around(meter.pid + 1, 2.4, 2.6) == pytest.approx(meter.speed())
