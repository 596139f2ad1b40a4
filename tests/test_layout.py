"""Row layout shared by the four filters (`model.walk_events`)."""

import dataclasses

import numpy as np
import pytest

from schedfilt import grid, kalman, model, particle, simulate

FILTERS = ("kalman", "ks", "zakai", "grid")

# ou_kalman fires its events at 0.5, 1.0 and 1.5
CASES = {
    # reporting times without 0 still give a t = 0 row; the reporting time
    # 1.0 is an event time, so it gives the event's pre/post rows only
    "no_zero": ([0.25, 1.0, 2.0], [(0.0, "interior"), (0.25, "interior"), (0.5, "pre"), (0.5, "post"),
                                   (1.0, "pre"), (1.0, "post"), (1.5, "pre"), (1.5, "post"), (2.0, "interior")]),
    # a repeated reporting time, and 0 itself, add no row
    "duplicate": ([0.0, 0.25, 0.25, 2.0, 2.0], [(0.0, "interior"), (0.25, "interior"), (0.5, "pre"), (0.5, "post"),
                                                (1.0, "pre"), (1.0, "post"), (1.5, "pre"), (1.5, "post"),
                                                (2.0, "interior")]),
    # events after the last reporting time are still applied
    "events_after_last": ([0.25], [(0.0, "interior"), (0.25, "interior"), (0.5, "pre"), (0.5, "post"),
                                   (1.0, "pre"), (1.0, "post"), (1.5, "pre"), (1.5, "post")]),
}


def _run(method, scenario, events, reporting_times):
    """Trajectory and event records (None for the grid, which keeps none)."""
    if method == "kalman":
        rep = scenario.reporting_times if reporting_times is None else reporting_times
        traj = kalman.run_filter(scenario, events, rep)
        return traj, traj.events
    if method == "grid":
        return grid.grid_run_filter(scenario, events, reporting_times, n_nodes=400, domain=(-2.0, 4.0)), None
    traj = particle.run_particle_filter(
        scenario, events, method=method, n_particles=200, reporting_times=reporting_times
    )
    return traj, traj.events


def _check_event_rows(traj, records, n_events):
    """Each event gives a pre row then a post row at the same time, the
    update moved the filter, and there is one record an event."""
    assert traj.times.shape[0] == len(traj.sides) == traj.means.shape[0]
    pre = [k for k, side in enumerate(traj.sides) if side == "pre"]
    assert len(pre) == traj.sides.count("post") == n_events
    for k in pre:
        assert traj.sides[k + 1] == "post"
        assert traj.times[k + 1] == traj.times[k]
        assert np.all(traj.means[k + 1] != traj.means[k])
    if records is not None:
        assert len(records) == n_events


@pytest.fixture(scope="module")
def ou_events(ou_scenario):
    events = simulate.simulate_path(ou_scenario, path_id=0).events
    assert [e.time for e in events] == [0.5, 1.0, 1.5]
    return events


@pytest.mark.parametrize("method", FILTERS)
def test_row_layout(method, ou_scenario, ou_events):
    for case, (rep, rows) in CASES.items():
        traj, records = _run(method, ou_scenario, ou_events, rep)
        assert traj.sides == [side for _, side in rows], case
        np.testing.assert_allclose(traj.times, [t for t, _ in rows], rtol=0, atol=1e-12, err_msg=case)
        _check_event_rows(traj, records, len(ou_events))

    traj, records = _run(method, ou_scenario, [], [0.5, 2.0])
    assert traj.sides == ["interior"] * 3
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 2.0], rtol=0, atol=1e-12)
    _check_event_rows(traj, records, 0)

    # the default reporting grid holds the event times: no interior row there
    traj, records = _run(method, ou_scenario, ou_events, None)
    assert np.all(np.diff(traj.times) >= -1e-12)
    _check_event_rows(traj, records, len(ou_events))
    for ev in ou_events:
        at_event = np.nonzero(np.isclose(traj.times, ev.time))[0]
        assert [traj.sides[k] for k in at_event] == ["pre", "post"]


def test_row_times_are_the_walks(ou_scenario, ou_events):
    # the second event 4e-13 after the first, closer than the 1e-12 below
    # which the grid does not propagate, and reporting times off the dt
    # lattice: every filter reports the times the walk is at
    first, second, third = ou_events
    events = [first, dataclasses.replace(second, time=first.time + 4e-13), third]
    reporting = [0.1234, 0.77, 1.9]
    times, sides, _, _ = model.walk_events(events, reporting, lambda t: None, lambda e, i: None, lambda side: None)
    assert times[4:6] == [first.time + 4e-13] * 2 and sides[4:6] == ["pre", "post"]
    for method in FILTERS:
        traj, _ = _run(method, ou_scenario, events, reporting)
        np.testing.assert_array_equal(traj.times, times, err_msg=method)
        assert traj.sides == sides, method


def test_walk_returns_each_update_once_in_event_order(ou_events):
    # events given out of order are applied, and their records returned,
    # in time order, one record an event, numbered from 1
    shuffled = [ou_events[2], ou_events[0], ou_events[1]]
    calls = []

    def update(event, index):
        calls.append((event.time, index))
        return calls[-1]

    times, sides, rows, records = model.walk_events(shuffled, [0.25, 2.0], lambda t: None, update, lambda side: side)
    assert records == calls == [(0.5, 1), (1.0, 2), (1.5, 3)]
    assert rows == sides and len(times) == len(sides) == 2 * len(ou_events) + 3
    _, _, _, records = model.walk_events([], [0.25], lambda t: None, update, lambda side: None)
    assert records == [] and len(calls) == 3
