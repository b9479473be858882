import math
import random

import numpy as np
import pytest

from icohsim.expectation import (
    RatePrediction,
    coincidence_rate,
    compose_setup,
    phase_averaged_rates,
    singles_rate,
    setup_operators,
)
from icohsim.fockoracle import build_state, detection_moments
from icohsim.operators import (
    IO1,
    SO1,
    SO2,
    BeamSplitterParams,
    DelaySetting,
    beam_splitter,
    free_mode,
    spdc,
)

from conftest import config_with

# Rates (p_a, p_b, p_ab) recorded from the engine this one replaced, a general
# ladder-term algebra, at each of GOLDEN_DELAYS (delta_x_p, delta_x_s) for
# configs spanning eta < 1, unequal splitters, gains up to 0.08 and a
# truncation degree above 1.
GOLDEN_DELAYS = [(0.0, 0.0), (1.3e-07, -2.9e-07), (-4.1e-07, 6.5e-07)]
GOLDEN = [
    (
        dict(gain1=0.001, gain2=0.001),
        [
            (2.0000000000000008e-06, 2e-06, 2.000004000000001e-06),
            (8.442362608890034e-07, 2e-06, 8.442379493615251e-07),
            (1.967614991458359e-06, 2e-06, 1.967618926688342e-06),
        ],
    ),
    (
        dict(gain1=0.001, gain2=0.001, eta=0.7),
        [
            (1.7000000000000005e-06, 1.49e-06, 1.4450025330000003e-06),
            (8.909653826223023e-07, 1.49e-06, 6.359667101607223e-07),
            (1.677330494020851e-06, 1.49e-06, 1.422332993243287e-06),
        ],
    ),
    (
        dict(gain1=0.02, gain2=0.005, eta=0.45, splitter_ratio=0.3),
        [
            (0.0003287431812546026, 0.00010600000000000002, 0.00010547802803181554),
            (0.0002810758078749506, 0.00010600000000000002, 5.780560191058528e-05),
            (0.0003274075204773877, 0.00010600000000000002, 0.00010414222567455838),
        ],
    ),
    (
        dict(gain1=0.08, gain2=0.08, eta=0.9, splitter_ratio=0.8),
        [
            (0.011008000000000002, 0.011584, 0.010892316672000002),
            (0.005682240690176525, 0.011584, 0.005504863766331532),
            (0.010858769880640115, 0.011584, 0.01074135787093745),
        ],
    ),
    (
        dict(gain1=0.05, gain2=0.08, eta=0.0, splitter_ratio=0.6),
        [
            (0.004840000000000001, 0.0064, 0.003870976000000001),
            (0.004840000000000001, 0.0064, 0.003870976000000001),
            (0.004840000000000001, 0.0064, 0.003870976000000001),
        ],
    ),
    (
        dict(gain1=0.0003, gain2=0.06, eta=0.25, splitter_ratio=0.05, truncation_degree=2),
        [
            (0.00018204700452459325, 0.003600005625, 0.0001826222185148962),
            (0.0001797799687209662, 0.003600005625, 0.00018034702136962403),
            (0.0001819834811838099, 0.003600005625, 0.0001825584664897287),
        ],
    ),
]


@pytest.mark.parametrize("overrides, rates", GOLDEN, ids=[f"config{n}" for n in range(len(GOLDEN))])
def test_rates_match_recorded_engine_outputs(overrides, rates):
    cfg = config_with(**overrides)
    for delays, want in zip(GOLDEN_DELAYS, rates):
        got = compose_setup(cfg, DelaySetting(*delays))
        assert (got.p_a, got.p_b, got.p_ab) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_singles_rate_of_pure_annihilator_is_zero():
    assert singles_rate(free_mode(SO1)) == 0.0


def test_singles_rate_counts_creation_amplitudes_coherently():
    # both arms carry an io1 creator; the recombined port adds them as amplitudes
    k = 0.01
    s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
    s2, _ = spdc(free_mode(SO2), free_mode(IO1), k)
    bs = BeamSplitterParams.from_transmitted_fraction(0.5)
    out, _ = beam_splitter(s2, s1, bs)
    assert singles_rate(out) == pytest.approx(abs((bs.t + bs.r) * k) ** 2, rel=1e-14)
    out_opposed, _ = beam_splitter(s2, -s1, bs)
    assert singles_rate(out_opposed) <= 1e-30


def test_ideal_singles_rate_extremes():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    top = compose_setup(cfg, DelaySetting())
    assert top.p_a == pytest.approx(2 * k * k, rel=1e-12)
    bottom = compose_setup(cfg, DelaySetting(delta_x_p=cfg.pump_wavelength / 2))
    assert bottom.p_a <= 1e-12 * top.p_a


def test_phase_grid_matches_cosine_law():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_p, lam_s = cfg.pump_wavelength, cfg.signal_filter.center_wavelength
    rng = random.Random(3)
    for _ in range(50):
        phi_p = rng.uniform(0, 2 * math.pi)
        phi_s = rng.uniform(0, 2 * math.pi)
        delays = DelaySetting(
            delta_x_p=phi_p * lam_p / (2 * math.pi),
            delta_x_s=phi_s * lam_s / (2 * math.pi),
        )
        got = compose_setup(cfg, delays).p_a
        want = k * k * (1 + math.cos(phi_p - phi_s))
        assert got == pytest.approx(want, abs=2 * k * k * 1e-12)


def test_coincidence_trivial_zero():
    assert coincidence_rate(free_mode(SO1), free_mode(IO1)) == 0.0


def test_coincidence_shares_phase_dependence_with_singles():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k, eta=0.8)
    lam_p = cfg.pump_wavelength
    phases = np.linspace(0, 2 * math.pi, 37)
    singles = []
    coinc = []
    for phi in phases:
        p = compose_setup(cfg, DelaySetting(delta_x_p=phi * lam_p / (2 * math.pi)))
        singles.append(p.p_a)
        coinc.append(p.p_ab)
    assert int(np.argmax(singles)) == int(np.argmax(coinc))
    assert int(np.argmin(singles)) == int(np.argmin(coinc))


def test_visibility_pairing_closed_forms():
    k = 1e-3
    for eta in (1.0, 0.9, 0.7, 0.4, 0.0):
        cfg = config_with(gain1=k, gain2=k, eta=eta)
        hi = compose_setup(cfg, DelaySetting())
        lo = compose_setup(cfg, DelaySetting(delta_x_p=cfg.pump_wavelength / 2))
        vis_singles = (hi.p_a - lo.p_a) / (hi.p_a + lo.p_a)
        assert vis_singles == pytest.approx(eta, abs=1e-12)
        vis_coinc = (hi.p_ab - lo.p_ab) / (hi.p_ab + lo.p_ab)
        expected = 2 * eta / (1 + eta * eta) if eta > 0 else 0.0
        # O(K^2) shift from the double-pair term in the exact contraction
        assert vis_coinc == pytest.approx(expected, abs=5 * k * k)


def test_fringe_period_follows_the_scanned_axis():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_p = cfg.pump_wavelength
    lam_s = cfg.signal_filter.center_wavelength
    probe = compose_setup(cfg, DelaySetting(delta_x_p=0.31 * lam_p)).p_a
    shifted = compose_setup(cfg, DelaySetting(delta_x_p=1.31 * lam_p)).p_a
    assert shifted == pytest.approx(probe, rel=1e-9)
    probe_s = compose_setup(cfg, DelaySetting(delta_x_s=0.2 * lam_s)).p_a
    shifted_s = compose_setup(cfg, DelaySetting(delta_x_s=1.2 * lam_s)).p_a
    assert shifted_s == pytest.approx(probe_s, rel=1e-9)
    # and the pump-axis period is NOT the signal wavelength
    mismatched = compose_setup(cfg, DelaySetting(delta_x_p=0.31 * lam_p + lam_s)).p_a
    assert abs(mismatched - probe) > 0.1 * probe


def test_idler_singles_independent_of_delays():
    k1, k2 = 1e-3, 7e-4
    cfg = config_with(gain1=k1, gain2=k2)
    rng = random.Random(9)
    expected = k1 * k1 + k2 * k2
    for _ in range(20):
        delays = DelaySetting(
            delta_x_p=rng.uniform(-1e-6, 1e-6), delta_x_s=rng.uniform(-1e-6, 1e-6)
        )
        assert compose_setup(cfg, delays).p_b == pytest.approx(expected, rel=1e-12)


def test_truncation_degree_zero_removes_all_pairs():
    cfg = config_with(gain1=1e-3, gain2=1e-3, truncation_degree=0)
    p = compose_setup(cfg, DelaySetting())
    assert p.p_a == 0.0
    assert p.p_b == 0.0
    assert p.p_ab == 0.0
    # every degree >= 1 is the exact result
    delays = DelaySetting(delta_x_p=1.1e-7, delta_x_s=-3.7e-7)
    exact = [
        compose_setup(config_with(gain1=0.03, gain2=0.07, eta=0.6, truncation_degree=d), delays)
        for d in (1, 2, 3)
    ]
    for p in exact[1:]:
        for field in ("p_a", "p_b", "p_ab"):
            assert getattr(p, field) == pytest.approx(getattr(exact[0], field), rel=1e-15)


def test_phase_averaged_rates_are_the_baseline():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.8)
    base = phase_averaged_rates(cfg)
    k = 1e-3
    assert base.p_a == pytest.approx(k * k, rel=1e-9)  # (t^2 + r^2) |K|^2
    rng = random.Random(17)
    for _ in range(5):
        delays = DelaySetting(delta_x_p=rng.uniform(0, 1e-6))
        again = phase_averaged_rates(cfg, delays)
        assert again.p_a == pytest.approx(base.p_a, rel=1e-9)


def test_agrees_with_fock_oracle_on_default_grid():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_s = cfg.signal_filter.center_wavelength
    engine = []
    oracle = []
    for frac in np.linspace(0, 1, 16, endpoint=False):
        delays = DelaySetting(delta_x_s=frac * lam_s)
        engine.append(compose_setup(cfg, delays))
        oracle.append(detection_moments(build_state(cfg, delays)))
    for field in ("p_a", "p_b", "p_ab"):
        e = np.array([getattr(p, field) for p in engine])
        o = np.array([getattr(p, field) for p in oracle])
        scale = max(e.max(), o.max())
        # leading orders agree; the two truncation schemes differ at O(K^4)
        assert np.max(np.abs(e - o)) <= 2.05 * k * k * scale


def test_oracle_agreement_over_randomized_configs():
    rng = random.Random(41)
    for _ in range(20):
        k = 10 ** rng.uniform(-4, math.log10(6e-4))
        cfg = config_with(
            gain1=k,
            gain2=k,
            eta=rng.uniform(0.0, 1.0),
            splitter_ratio=rng.uniform(0.25, 0.75),
        )
        delays = DelaySetting(
            delta_x_p=rng.uniform(-2 * cfg.pump_wavelength, 2 * cfg.pump_wavelength),
            delta_x_s=rng.uniform(-2e-6, 2e-6),
        )
        e = compose_setup(cfg, delays)
        o = detection_moments(build_state(cfg, delays))
        for field in ("p_a", "p_b", "p_ab"):
            ev, ov = getattr(e, field), getattr(o, field)
            scale = max(abs(ev), abs(ov), phase_averaged_rates(cfg).p_a)
            assert abs(ev - ov) <= 1e-6 * scale


def test_setup_operators_expose_detected_channels():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    out_a, i2 = setup_operators(cfg, DelaySetting())
    assert out_a.shape == i2.shape == (2, 4)
    assert singles_rate(out_a) == pytest.approx(compose_setup(cfg, DelaySetting()).p_a)
    assert i2[0, IO1] == 1.0


def test_rate_prediction_rejects_negative():
    with pytest.raises(ValueError):
        RatePrediction(-1.0, 0.0, 0.0)
