"""Tests for the wall-clock phase timer."""

from repro.obs.timers import PhaseTimer


def _fake_clock(times):
    """Zero-arg clock yielding successive values from ``times``."""
    it = iter(times)
    return lambda: next(it)


def test_phase_timer_accumulates_wall_and_sim():
    timer = PhaseTimer(wall_clock=_fake_clock([0.0, 1.0, 5.0, 7.0]))
    sim = _fake_clock([100.0, 250.0, 300.0, 450.0])
    with timer.phase("simulate", sim_clock=sim):
        pass
    with timer.phase("simulate", sim_clock=sim):
        pass
    report = timer.report()
    assert report == {
        "simulate": {"wall_s": 3.0, "sim_us": 300.0, "count": 2}
    }


def test_phase_timer_records_even_on_exception():
    timer = PhaseTimer(wall_clock=_fake_clock([0.0, 2.0]))
    try:
        with timer.phase("build"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert timer.report()["build"]["count"] == 1
    assert timer.report()["build"]["wall_s"] == 2.0


def test_phase_timer_merge():
    a = PhaseTimer(wall_clock=_fake_clock([0.0, 1.0]))
    with a.phase("build"):
        pass
    b = PhaseTimer(wall_clock=_fake_clock([0.0, 4.0]))
    with b.phase("build"):
        pass
    a.merge(b)
    assert a.report()["build"] == {"wall_s": 5.0, "sim_us": 0.0, "count": 2}
    # merging a plain report dict works the same way
    a.merge({"verify": {"wall_s": 0.5, "sim_us": 0.0, "count": 1}})
    assert a.report()["verify"]["count"] == 1
