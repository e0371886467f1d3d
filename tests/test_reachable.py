"""Piecewise-constant schedules, reachable samples, steering."""

from __future__ import annotations

import numpy as np
import pytest

from liewedge import reachable
from liewedge.channels import NAMES, ChannelSpec, build_system, example2, sigma
from liewedge.lindblad import ControlSystem, cptp_audit, lindbladian
from liewedge.matcore import expm, fro
from liewedge.reachable import (U_MAX, Schedule, contraction_audit, propagate,
                                random_schedule, sample_reachable, steer)

RNG = np.random.default_rng(62)


def _qubit_system(gamma: float = 0.4) -> ControlSystem:
    return ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                         controls=(sigma("x") / 2.0,),
                         lindblad_ops=((sigma("z") / 2.0, gamma),))


def test_schedule_validation_and_totals():
    s = Schedule(((0.5, (1.0,)), (0.25, (-2.0,))))
    assert s.n_segments == 2
    assert np.isclose(s.total_duration, 0.75)
    with pytest.raises(ValueError):
        Schedule(((-0.1, (1.0,)),))


@pytest.mark.parametrize("segments,message", [
    (((np.nan, (0.0,)),), "segment 0 has a non-finite duration nan"),
    (((0.1, (0.0,)), (np.inf, (1.0,))), "segment 1 has a non-finite duration inf"),
    (((0.1, (0.0,)), (0.2, (1.0, np.nan))), r"segment 1 has non-finite amplitudes \(1.0, nan\)"),
    (((0.1, -np.inf),), r"segment 0 has non-finite amplitudes \(-inf,\)"),
    (((0.1, (0.0,)), (-0.2, (1.0,))), r"segment 1 has a negative duration -0\.2"),
])
def test_schedule_rejects_non_finite_entries(segments, message):
    with pytest.raises(ValueError, match=message):
        Schedule(segments)


def test_propagate_matches_manual_product():
    sys = _qubit_system()
    sched = Schedule(((0.3, (0.7,)), (0.2, (-1.1,))))
    t = propagate(sys, sched)
    l1 = lindbladian(sys, (0.7,))
    l2 = lindbladian(sys, (-1.1,))
    manual = expm(-0.2 * l2) @ expm(-0.3 * l1)
    assert np.max(np.abs(t - manual)) < 1e-12


@pytest.mark.parametrize("segments, message", [
    (((0.1, (1.0, 2.0)),), "segment 0 has 2 amplitudes for 1 controls"),
    (((0.1, (1.0,)), (0.2, ())), "segment 1 has 0 amplitudes for 1 controls"),
])
def test_propagate_validates_amplitude_count(segments, message):
    sys = _qubit_system()
    with pytest.raises(ValueError, match=message):
        propagate(sys, Schedule(segments))


def test_sample_reachable_reproducible_and_cptp():
    sys = _qubit_system()
    a = sample_reachable(sys, 6, 3, seed=5)
    b = sample_reachable(sys, 6, 3, seed=5)
    for s, t in zip(a, b):
        assert np.array_equal(s, t)
    c = sample_reachable(sys, 6, 3, seed=6)
    assert not np.array_equal(a[0], c[0])
    for s in a:
        audit = cptp_audit(s)
        assert audit["is_tp"] and audit["is_cp"]


def test_sample_reachable_r3_shapes_and_contraction():
    sys = example2()
    samples = sample_reachable(sys, 5, 4, seed=2)
    for s in samples:
        assert s.shape == (3, 3)
        assert np.linalg.norm(s, 2) <= 1.0 + 1e-10


def test_sample_reachable_validates_depth():
    with pytest.raises(ValueError):
        sample_reachable(_qubit_system(), 3, 0)


def test_sample_reachable_validates_count():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"count must be an integer >= 1, got {n}"):
            sample_reachable(_qubit_system(), n, 3)


def test_contraction_audit_monotone():
    sys = _qubit_system()
    sched = Schedule(((0.4, (0.9,)), (0.6, (-0.3,))))
    audit = contraction_audit(sys, sched, grid=80)
    assert audit["monotone"]
    assert audit["max_increment"] <= 1e-9
    assert audit["final"] <= audit["initial"] + 1e-12
    assert len(audit["times"]) == len(audit["s"]) == 80


def test_contraction_audit_closed_system_is_constant():
    sys = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                        controls=(sigma("x") / 2.0,), lindblad_ops=())
    sched = Schedule(((1.0, (0.5,)),))
    audit = contraction_audit(sys, sched, grid=40)
    svals = np.asarray(audit["s"])
    assert np.max(np.abs(svals - svals[0])) < 1e-10


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])

_AMPLITUDE_DAMPING = {
    "amp_damp": ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                           controls=(sigma("x") / 2.0,), lindblad_ops=((_LOWER, 0.3),)),
    "amp_damp_two_qubit": ControlSystem(rep="two_qubit", drift_H=np.kron(sigma("z"), sigma("z")) / 2.0,
                               controls=(np.kron(sigma("x"), np.eye(2)) / 2.0,),
                               lindblad_ops=((np.kron(_LOWER, np.eye(2)), 0.3),)),
}


_QUBIT_GRID = {f"{channel}-{axes}-{drift}": ChannelSpec(channel, control_axes=tuple(axes),
                                                        drift_axis=drift)
               for channel in ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing")
               for axes in ("x", "y", "z", "xy", "xz", "yz", "xyz")
               for drift in (None, "x", "y", "z")}


@pytest.mark.parametrize("name", [*_AMPLITUDE_DAMPING,
                                  *(n for n in NAMES if ChannelSpec(name=n).rep != "r3"),
                                  *_QUBIT_GRID])
def test_contraction_audit_refuses_exactly_the_non_unital_systems(name):
    """Amplitude damping leaks the identity into the traceless sector, so
    the witness s(t) is not monotone and the audit refuses it; every named
    quantum system, and every qubit channel under any control axes and
    drift, is unital and audits."""
    if name in _AMPLITUDE_DAMPING:
        sys = _AMPLITUDE_DAMPING[name]
    else:
        sys = build_system(_QUBIT_GRID.get(name) or ChannelSpec(name=name))
    sched = random_schedule(sys.n_controls, 3, 1.0, 5)
    if name in _AMPLITUDE_DAMPING:
        with pytest.raises(ValueError, match="contraction audit requires unital dynamics"):
            contraction_audit(sys, sched)
    else:
        assert contraction_audit(sys, sched)["monotone"]


def _strang_schedule(n: int, dt: float) -> Schedule:
    """n symmetrized steps (+1 half, -1 full, +1 half) as a flat schedule."""
    segs = [(dt / 2.0, (1.0,))]
    for k in range(n):
        segs.append((dt, (-1.0,)))
        if k < n - 1:
            segs.append((dt, (1.0,)))
    segs.append((dt / 2.0, (1.0,)))
    return Schedule(tuple(segs))


def test_trotter_defect_scales_second_order():
    """Symmetrized control switching between u = +1 and u = -1 converges to
    the averaged (drift-only) generator at second order in the step size."""
    sys = _qubit_system()
    # each symmetrized step covers 2*dt, so n steps of dt = 1/n cover t = 2
    target = expm(-2.0 * lindbladian(sys))
    counts = (4, 8, 16, 32)
    defects = []
    for n in counts:
        total = propagate(sys, _strang_schedule(n, 1.0 / n))
        defects.append(np.max(np.abs(total - target)))
    slopes = np.diff(np.log(defects)) / np.diff(np.log(1.0 / np.asarray(counts)))
    assert abs(np.mean(slopes) - 2.0) < 0.2


def test_sampled_products_stay_in_the_channel_semigroup():
    """Products of reachable samples are again CPTP: the sampled set sits
    inside a semigroup, not just a star-shaped neighborhood of identity."""
    sys = _qubit_system()
    samples = sample_reachable(sys, 4, 2, seed=9)
    for s in samples:
        for t in samples:
            audit = cptp_audit(s @ t)
            assert audit["is_tp"] and audit["is_cp"]


def test_steer_zero_switches_reports_identity_distance():
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.5, (0.3,)),)))
    sched, dist = steer(sys, target, 0)
    assert sched.n_segments == 0
    diff = target - np.eye(4)
    assert np.isclose(dist, np.linalg.norm(diff))


def test_steer_recovers_single_switch_target():
    sys = _qubit_system()
    truth = Schedule(((0.37, (0.8,)),))
    target = propagate(sys, truth)
    sched, dist = steer(sys, target, 1, budget=8, seed=3)
    assert dist <= 1e-12
    assert sched.n_segments == 1


def test_steer_validates_inputs():
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.1, (0.0,)),)))
    with pytest.raises(ValueError):
        steer(sys, target, -1)
    with pytest.raises(ValueError, match=r"target has shape \(3, 3\)"):
        steer(sys, np.eye(3), 1)


@pytest.mark.parametrize("switches", [0, 2])
def test_steer_rejects_a_target_from_another_carrier(switches):
    """A 3x3 target cannot be a qubit channel; it is refused before any
    propagation, however many switches are asked for."""
    with pytest.raises(ValueError, match=r"target has shape \(3, 3\), but the "
                                         r"system's generators have shape \(4, 4\)"):
        steer(_qubit_system(), np.eye(3), switches)


@pytest.mark.parametrize("budget", [0, -2])
def test_steer_rejects_a_budget_below_one(budget):
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.1, (0.0,)),)))
    with pytest.raises(ValueError, match=f"budget must be an integer >= 1, got {budget}"):
        steer(sys, target, 1, budget=budget)


def _forbid_propagation(monkeypatch):
    def refuse(*args):
        raise AssertionError("propagate was called")

    monkeypatch.setattr(reachable, "propagate", refuse)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("switches", [0, 2])
def test_steer_rejects_a_non_finite_target_before_propagating(monkeypatch, bad, switches):
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.1, (0.0,)),)))
    target[1, 2] = bad
    _forbid_propagation(monkeypatch)
    with pytest.raises(ValueError, match="target has non-finite entries"):
        steer(sys, target, switches)


@pytest.mark.parametrize("u_max", [0.0, -1.0, np.inf, np.nan])
def test_steer_rejects_a_bad_amplitude_bound(monkeypatch, u_max):
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.1, (0.0,)),)))
    _forbid_propagation(monkeypatch)
    with pytest.raises(ValueError, match="u_max must be positive and finite"):
        steer(sys, target, 1, u_max=u_max)


def test_steer_recovers_the_depolarizing_benchmark_target():
    depol = build_system(ChannelSpec(name="depolarizing", rates=(0.2, 0.2, 0.2),
                                     control_axes=("x",), drift_axis="z"))
    truth = Schedule(((0.3, (1.2,)), (0.25, (-0.7,))))
    sched, dist = steer(depol, propagate(depol, truth), 2, budget=5, seed=0)
    assert sched.n_segments == 2
    assert dist <= 1e-12


def test_steer_recovers_a_three_switch_example2_target():
    """The first four of the default 20 seeded restarts reach the target."""
    sys = example2()
    target = propagate(sys, random_schedule(1, 3, 1.0, 8, u_max=2.0))
    sched, dist = steer(sys, target, 3, budget=4, seed=0)
    assert sched.n_segments == 3
    assert dist < 1e-10


def _count_restarts(monkeypatch) -> list:
    calls = []
    solve = reachable.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(reachable, "least_squares", counted)
    return calls


def test_steer_stops_after_the_restart_that_converges(monkeypatch):
    """Criterion 11's target is reached by the first of 8 restarts; no
    other restart runs."""
    calls = _count_restarts(monkeypatch)
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.37, (0.8,)),)))
    _, dist = steer(sys, target, 1, budget=8, seed=3)
    assert dist <= 1e-12
    assert len(calls) == 1


def test_steer_runs_every_restart_short_of_the_target(monkeypatch):
    """Half the identity is no channel of the system: all restarts run."""
    calls = _count_restarts(monkeypatch)
    _, dist = steer(_qubit_system(), 0.5 * np.eye(4), 1, budget=3, seed=0)
    assert dist > 1e-12
    assert len(calls) == 3


@pytest.mark.parametrize("name,value", [("phase_flip", 3.0), ("two_qubit_C", 15.0),
                                        ("example2", 3.0)])
def test_contraction_audit_empty_schedule_is_constant(name, value):
    audit = contraction_audit(build_system(ChannelSpec(name=name)), Schedule(()), grid=6)
    assert audit["times"] == [0.0] * 6
    assert np.allclose(audit["s"], value, rtol=0.0, atol=1e-12)
    assert audit["s"] == [audit["s"][0]] * 6
    assert audit["monotone"] and audit["max_increment"] == 0.0


def test_random_schedule_bounds_and_sampling_stream():
    sys = _qubit_system()
    sched = random_schedule(2, 7, 0.7, 4, u_max=0.5)
    assert sched.n_segments == 7
    for dur, u in sched.segments:
        assert 0.0 < dur <= 0.1 and len(u) == 2
        assert all(-0.5 <= v <= 0.5 for v in u)
    default = random_schedule(1, 50, 1.0, 4)
    assert max(abs(u[0]) for _, u in default.segments) <= U_MAX
    child = np.random.SeedSequence(8).spawn(3)[1]
    sample = sample_reachable(sys, 3, 2, seed=8)[1]
    direct = propagate(sys, random_schedule(1, 2, 1.0, child))
    assert np.array_equal(sample, direct)


@pytest.mark.parametrize("kwargs, message", [
    ({"switches": 1.5}, r"switches must be an integer >= 0, got 1\.5"),
    ({"switches": True}, "switches must be an integer >= 0, got True"),
    ({"budget": 2.5}, r"budget must be an integer >= 1, got 2\.5"),
    ({"budget": True}, "budget must be an integer >= 1, got True"),
])
def test_steer_rejects_a_count_that_is_not_an_integer(monkeypatch, kwargs, message):
    """A fractional switch count or budget leaked a TypeError, and a bool
    switch count ran as one switch; now each is refused by name before any
    propagation."""
    sys = _qubit_system()
    target = propagate(sys, Schedule(((0.1, (0.0,)),)))
    _forbid_propagation(monkeypatch)
    kwargs = {"switches": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        steer(sys, target, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 2.5}, r"count must be an integer >= 1, got 2\.5"),
    ({"n": True}, "count must be an integer >= 1, got True"),
    ({"depth": 1.5}, r"depth must be an integer >= 1, got 1\.5"),
    ({"u_max": -1.0}, r"u_max must be nonnegative and finite, got -1\.0"),
    ({"u_max": np.inf}, "u_max must be nonnegative and finite, got inf"),
    ({"u_max": np.nan}, "u_max must be nonnegative and finite, got nan"),
])
def test_sample_reachable_rejects_bad_settings_by_name(kwargs, message):
    """A fractional count leaked a TypeError and a negative amplitude bound
    numpy's "high - low < 0"; each is now refused by name."""
    kwargs = {"n": 2, "depth": 2, **kwargs}
    with pytest.raises(ValueError, match=message):
        sample_reachable(_qubit_system(), **kwargs)


@pytest.mark.parametrize("depth, message", [
    (-2, "depth must be an integer >= 1, got -2"),
    (0, "depth must be an integer >= 1, got 0"),
    (2.0, r"depth must be an integer >= 1, got 2\.0"),
])
def test_random_schedule_rejects_a_depth_below_one(depth, message):
    """A negative depth returned an empty schedule."""
    with pytest.raises(ValueError, match=message):
        random_schedule(1, depth, 1.0, 0)


@pytest.mark.parametrize("horizon, message", [
    (-1.0, r"horizon must be nonnegative and finite, got -1\.0"),
    (np.inf, "horizon must be nonnegative and finite, got inf"),
    (np.nan, "horizon must be nonnegative and finite, got nan"),
])
def test_a_horizon_that_is_not_nonnegative_and_finite_is_refused_by_name(horizon, message):
    """A negative horizon surfaced as a negative segment duration and an
    infinite one as a non-finite segment, neither naming the horizon."""
    with pytest.raises(ValueError, match=message):
        random_schedule(1, 2, horizon, 0)
    with pytest.raises(ValueError, match=message):
        sample_reachable(_qubit_system(), 2, 2, horizon=horizon)


def test_a_zero_horizon_gives_zero_durations():
    assert all(d == 0.0 for d, _ in random_schedule(2, 3, 0.0, 0).segments)
    assert len(sample_reachable(_qubit_system(), 2, 2, horizon=0)) == 2


def test_random_schedule_takes_a_zero_amplitude_bound():
    sched = random_schedule(2, 3, 1.0, 0, u_max=0.0)
    assert all(u == (0.0, 0.0) for _, u in sched.segments)


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": 2.5}, r"grid must be an integer >= 2, got 2\.5"),
    ({"grid": 1}, "grid must be an integer >= 2, got 1"),
    ({"grid": True}, "grid must be an integer >= 2, got True"),
    ({"tol": -1.0}, r"tol must be positive and finite, got -1\.0"),
    ({"tol": np.nan}, "tol must be positive and finite, got nan"),
])
def test_contraction_audit_rejects_bad_settings_by_name(kwargs, message):
    """A fractional grid ran with its integer part and a negative tol was
    accepted; each is now refused by name."""
    with pytest.raises(ValueError, match=message):
        contraction_audit(_qubit_system(), Schedule(((0.4, (0.9,)),)), **kwargs)

