"""Tests of the host-speed probe.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import signal
import time

import pytest

import pace


def test_scale_puts_work_in_nominal_seconds():
    # Ticks at half and at full speed: the host ran at 0.75 of nominal.
    mixed = {"probe_s": 3 * pace.NOMINAL_S, "probes": 2, "speed": 0.5 + 1.0}
    assert pace.scale(4.0, mixed) == pytest.approx(3.0)
    assert pace.scale(4.0, {"probe_s": 3 * pace.NOMINAL_S, "probes": 3, "speed": 3.0}) == pytest.approx(4.0)


def test_probe_sums_speeds_not_times():
    times = iter([0.0, 2 * pace.NOMINAL_S, 10.0, 10.0 + pace.NOMINAL_S])
    probe = pace.Probe(clock=lambda: next(times))
    probe._tick(signal.SIGALRM, None)
    probe._tick(signal.SIGALRM, None)
    assert probe.count == 2
    assert probe.seconds == pytest.approx(3 * pace.NOMINAL_S)
    assert probe.speed == pytest.approx(1.5)


def test_merge_adds_processes_and_skips_silent_ones():
    parts = [{"probe_s": 0.5, "probes": 2, "speed": 1.5}, {}, {"probe_s": 0.25, "probes": 1, "speed": 0.5}]
    assert pace.merge(parts) == {"probe_s": 0.75, "probes": 3, "speed": 2.0}


def test_probe_samples_while_running_and_restores_the_handler():
    probe = pace.Probe()
    probe.start()
    try:
        end = time.perf_counter() + 8 * pace.INTERVAL
        while time.perf_counter() < end:
            pass
    finally:
        figures = probe.stop()
    assert figures["probes"] >= 4
    assert 0 < figures["probe_s"] < 8 * pace.INTERVAL
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_kgw_under_the_probe_prints_the_same_bytes(capsys):
    from f1kgw import cli

    assert cli.main(["k0"]) == 0
    plain = capsys.readouterr().out
    assert pace.main(["k0"]) == 0
    probed = capsys.readouterr()
    assert probed.out == plain
    assert probed.err.startswith(pace.MARK)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
