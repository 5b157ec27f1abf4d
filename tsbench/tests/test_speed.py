"""The machine-speed gauge scales operation times by nearby readings."""

import pytest

from tsbench import speed


def test_scale_uses_the_mean_reading_within_the_window():
    gauge = speed.Gauge()
    w = speed.WINDOW_S
    gauge.readings = [
        (100.0 - w - 1.0, 9.0),  # too early to count
        (100.0 - w, 0.02),
        (101.0, 0.06),
        (110.0 + w, 0.04),
        (110.0 + w + 1.0, 9.0),  # too late to count
    ]
    scaled = gauge.scale(100.0, 110.0, 2.0)
    assert scaled == pytest.approx(2.0 * speed.REFERENCE_S / 0.04)


def test_take_reads_for_its_duty_share_and_at_least_once():
    gauge = speed.Gauge()
    assert len(gauge.readings) == 1
    gauge.take(0.0)
    assert len(gauge.readings) == 2
    start = len(gauge.readings)
    gauge.take(0.5 / speed.DUTY)  # asks for about 0.5 s of readings
    spent = sum(s for _t, s in gauge.readings[start:])
    assert 0.5 <= spent < 0.5 + 3 * max(s for _t, s in gauge.readings)


def test_a_steady_machine_scales_by_reference_over_reading():
    gauge = speed.Gauge()
    gauge.readings = [(t, speed.REFERENCE_S) for t in range(0, 20)]
    assert gauge.scale(5.0, 6.0, 1.25) == pytest.approx(1.25)
