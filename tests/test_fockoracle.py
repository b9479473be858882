import math
import random

import numpy as np
import pytest

from icohsim.config import ConfigError
from icohsim.fockoracle import (
    CAMERA_SLOT,
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


def holds_pair_invariant(occ):
    """Every signal photon has its idler, detected or lost; at most two pairs,
    and only crystal 1's idler can be lost."""
    signals = occ[CAMERA_SLOT] + occ[MONITOR_SLOT]
    return signals == occ[IDLER_SLOT] + occ[LOSS_SLOT] <= 2 and occ[LOSS_SLOT] <= 1


# (sig1, sig2, idler, loss): vacuum; one pair, its signal at either output port
# and its idler detected or lost; two pairs, their signals split over the
# ports and crystal 1's idler detected or lost.
GENERIC_OCCUPATIONS = {
    (0, 0, 0, 0),
    (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1),
    (2, 0, 2, 0), (1, 1, 2, 0), (0, 2, 2, 0),
    (2, 0, 1, 1), (1, 1, 1, 1), (0, 2, 1, 1),
}


def test_zero_gain_gives_pure_vacuum():
    cfg = config_with(gain1=0.0, gain2=0.0)
    state = build_state(cfg)
    assert list(state) == [(0, 0, 0, 0)]
    assert state[(0, 0, 0, 0)].tolist() == [1.0 + 0j]
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
    (amp,) = state[tuple(one_photon)]
    # both crystals' biphotons add coherently on the monitored port
    assert abs(amp) ** 2 == pytest.approx(2 * k * k, rel=1e-9)


def test_norm_stays_near_one():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k, eta=0.6)
    state = build_state(cfg, 50e-9, 70e-9)
    (norm_squared,) = sum(abs(amp) ** 2 for amp in state.values())
    assert abs(norm_squared - 1.0) < 3 * k * k


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
        occ[LOSS_SLOT] * abs(a) ** 2 for occ, a in state.items()
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
    for occ in state:
        assert holds_pair_invariant(occ), occ


def test_generic_configs_reach_exactly_the_eleven_occupations():
    # both gains, eta and the splitter ratio strictly inside their ranges
    rng = random.Random(38)
    for _ in range(40):
        cfg = config_with(
            gain1=10 ** rng.uniform(-4.0, -2.0),
            gain2=10 ** rng.uniform(-4.0, -2.0),
            eta=rng.uniform(0.01, 0.99),
            splitter_ratio=rng.uniform(0.01, 0.99),
        )
        m = rng.randint(1, 8)
        state = build_state(cfg, np.array([rng.uniform(-1e-6, 1e-6) for _ in range(m)]),
                            np.array([rng.uniform(-2e-6, 2e-6) for _ in range(m)]))
        assert set(state) == GENERIC_OCCUPATIONS


def test_gain_guard():
    cfg = config_with(gain1=0.05, gain2=0.001)
    with pytest.raises(ConfigError, match=r"^crystal1\.gain = 0\.05 is above the oracle's first-order gain limit"):
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


def test_pruned_edge_configs_keep_paired_live_amplitudes_and_exact_columns():
    # Where terms are pruned: a zero gain, a blocked or lossless link, and the
    # balanced splitter, whose |1,1> coefficient cancels exactly.  With equal
    # gains through a lossless link, the camera port's one-pair amplitude also
    # cancels at zero delay, so some settings are exactly zero.
    rng = random.Random(27)
    for gain1, gain2 in ((0.0, 3e-4), (3e-4, 0.0), (0.0, 0.0), (3e-4, 3e-4), (1e-4, 6e-4)):
        for eta in (0.0, 1.0):
            cfg = config_with(gain1=gain1, gain2=gain2, eta=eta, splitter_ratio=0.5)
            for _ in range(3):
                m = rng.randint(1, 40)
                delta_x_p, delta_x_s = np.array(
                    [(rng.choice((0.0, rng.uniform(-1e-6, 1e-6))), rng.choice((0.0, rng.uniform(-2e-6, 2e-6))))
                     for _ in range(m)]
                ).T
                states = [build_state(cfg, delta_x_p, delta_x_s)]
                states += [build_state(cfg, xp, xs) for xp, xs in zip(delta_x_p.tolist(), delta_x_s.tolist())]
                for state in states:
                    for occ, amp in state.items():
                        assert holds_pair_invariant(occ), occ
                        assert np.any(amp), occ
                batch, *singles = (detection_moments(state) for state in states)
                assert batch.T.tolist() == [single[:, 0].tolist() for single in singles]
