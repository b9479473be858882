import math
import random

import numpy as np
import pytest

from icohsim.fockoracle import (
    IDLER_SLOT,
    LOSS_SLOT,
    MONITOR_SLOT,
    build_state,
    detection_moments,
)

from conftest import config_with


def phase_scan(config, n=48):
    """Moment rows (p_a, p_b, p_ab) over one pump wavelength of delay."""
    lam_p = config.pump_wavelength
    return detection_moments(build_state(config, np.arange(n) * lam_p / n))


def visibility(values):
    lo, hi = min(values), max(values)
    return (hi - lo) / (hi + lo)


def test_zero_gain_gives_pure_vacuum():
    cfg = config_with(gain1=0.0, gain2=0.0)
    state = build_state(cfg)
    assert list(state.amplitudes) == [(0, 0, 0, 0)]
    assert state.amplitudes[(0, 0, 0, 0)].tolist() == [1.0 + 0j]
    p_a, p_b, p_ab = detection_moments(state)[:, 0]
    assert p_a == 0.0
    assert p_b == 0.0
    assert p_ab == 0.0


def test_ideal_port_amplitude_at_zero_delay():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    state = build_state(cfg)
    one_photon = [0, 0, 0, 0]
    one_photon[MONITOR_SLOT] = 1
    one_photon[IDLER_SLOT] = 1
    (amp,) = state.amplitudes[tuple(one_photon)]
    # both crystals' biphotons add coherently on the monitored port
    assert abs(amp) ** 2 == pytest.approx(2 * k * k, rel=1e-9)


def test_norm_stays_near_one():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k, eta=0.6)
    state = build_state(cfg, 50e-9, 70e-9)
    assert abs(state.norm_squared()[0] - 1.0) < 3 * k * k


def test_ideal_phase_scan_has_unit_visibility():
    cfg = config_with(gain1=1e-5, gain2=1e-5)
    scans = phase_scan(cfg)
    assert visibility(scans[0]) > 1.0 - 1e-6
    assert visibility(scans[2]) > 1.0 - 1e-6


def test_blocked_idler_kills_the_fringe():
    cfg = config_with(gain1=1e-4, gain2=1e-4, eta=0.0)
    scans = phase_scan(cfg)
    p_a = scans[0]
    assert visibility(p_a) < 1e-9
    # two independent pair sources still produce singles
    assert min(p_a) > 0


def test_attenuated_link_visibility_pairing():
    # transmission 0.7: singles fringe contrast drops to 0.7 while the
    # coincidence contrast only drops to 2*0.7/(1+0.49).
    k = 1e-5
    cfg = config_with(gain1=k, gain2=k, eta=0.7)
    scans = phase_scan(cfg, n=360)
    assert visibility(scans[0]) == pytest.approx(0.7, abs=1e-9)
    assert visibility(scans[2]) == pytest.approx(0.9395973154362416, abs=1e-3)


def test_loss_slot_collects_blocked_photons():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.0)
    state = build_state(cfg)
    (leaked,) = sum(
        occ[LOSS_SLOT] * abs(a) ** 2 for occ, a in state.amplitudes.items()
    )
    assert leaked == pytest.approx((1e-3) ** 2, rel=1e-5)


def test_signal_delay_shifts_fringe():
    k = 1e-4
    lam_s = 808e-9
    cfg = config_with(gain1=k, gain2=k)
    base, half, full = detection_moments(
        build_state(cfg, delta_x_s=np.array([0.0, lam_s / 2, lam_s]))
    )[0]
    assert half < 1e-3 * base
    assert full == pytest.approx(base, rel=1e-9)


def test_truncation_bounds_hold():
    cfg = config_with(gain1=1e-2, gain2=1e-2, eta=0.5)
    state = build_state(cfg, 100e-9)
    for occ in state.amplitudes:
        assert max(occ) <= 2
        assert sum(occ) <= 4


def test_gain_guard():
    cfg = config_with(gain1=0.05, gain2=0.001)
    with pytest.raises(ValueError, match="truncation"):
        build_state(cfg)


def test_moments_linear_in_pair_probability():
    # p_a scales as |K|^2 at leading order
    lo = config_with(gain1=1e-4, gain2=1e-4)
    hi = config_with(gain1=2e-4, gain2=2e-4)
    m_lo = detection_moments(build_state(lo))[:, 0]
    m_hi = detection_moments(build_state(hi))[:, 0]
    assert m_hi[0] / m_lo[0] == pytest.approx(4.0, rel=1e-6)
    assert m_hi[1] / m_lo[1] == pytest.approx(4.0, rel=1e-6)


def test_batch_equals_one_setting_calls_exactly():
    rng = random.Random(2014)
    for _ in range(30):
        k = 10 ** rng.uniform(-4.0, math.log10(6e-4))
        cfg = config_with(
            gain1=k,
            gain2=k,
            eta=rng.choice((0.0, 1.0, rng.uniform(0.0, 1.0))),
            splitter_ratio=rng.uniform(0.01, 0.99),
        )
        m = rng.randint(1, 40)
        delta_x_p, delta_x_s = np.array(
            [(rng.uniform(-1e-6, 1e-6), rng.uniform(-2e-6, 2e-6)) for _ in range(m)]
        ).T
        batch = detection_moments(build_state(cfg, delta_x_p, delta_x_s))
        assert batch.shape == (3, len(delta_x_p))
        assert np.all(np.isfinite(batch))
        for column, xp, xs in zip(batch.T.tolist(), delta_x_p.tolist(), delta_x_s.tolist()):
            assert column == detection_moments(build_state(cfg, xp, xs))[:, 0].tolist()
