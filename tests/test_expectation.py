import math
import random

import numpy as np
import pytest

from icohsim.expectation import (
    check_rates,
    coincidence_rate,
    singles_rate,
    setup_operators,
    setup_rates,
)
from icohsim.fockoracle import build_state, detection_moments
from icohsim.operators import (
    IO1,
    SO1,
    SO2,
    BeamSplitterParams,
    beam_splitter,
    free_mode,
    spdc,
)
from icohsim.spectral import compile_model

from conftest import config_with

# Rates (p_a, p_b, p_ab) recorded from the engine this one replaced, a general
# ladder-term algebra, at each of GOLDEN_DELAYS (delta_x_p, delta_x_s) for
# configs spanning eta < 1, unequal splitters and gains up to 0.08.
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
        dict(gain1=0.0003, gain2=0.06, eta=0.25, splitter_ratio=0.05),
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
        got = setup_rates(cfg, *delays)[:, 0].tolist()
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    top, bottom = setup_rates(cfg, np.array([0.0, cfg.pump_wavelength / 2]))[0]
    assert top == pytest.approx(2 * k * k, rel=1e-12)
    assert bottom <= 1e-12 * top


def test_phase_grid_matches_cosine_law():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_p, lam_s = cfg.pump_wavelength, cfg.signal_filter.center_wavelength
    rng = random.Random(3)
    for _ in range(50):
        phi_p = rng.uniform(0, 2 * math.pi)
        phi_s = rng.uniform(0, 2 * math.pi)
        got = setup_rates(
            cfg,
            delta_x_p=phi_p * lam_p / (2 * math.pi),
            delta_x_s=phi_s * lam_s / (2 * math.pi),
        )[0, 0]
        want = k * k * (1 + math.cos(phi_p - phi_s))
        assert got == pytest.approx(want, abs=2 * k * k * 1e-12)


def test_coincidence_trivial_zero():
    assert coincidence_rate(free_mode(SO1), free_mode(IO1)) == 0.0


def test_coincidence_shares_phase_dependence_with_singles():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k, eta=0.8)
    lam_p = cfg.pump_wavelength
    phases = np.linspace(0, 2 * math.pi, 37)
    singles, _, coinc = setup_rates(cfg, phases * lam_p / (2 * math.pi))
    assert int(np.argmax(singles)) == int(np.argmax(coinc))
    assert int(np.argmin(singles)) == int(np.argmin(coinc))


def test_visibility_pairing_closed_forms():
    k = 1e-3
    for eta in (1.0, 0.9, 0.7, 0.4, 0.0):
        cfg = config_with(gain1=k, gain2=k, eta=eta)
        hi, lo = setup_rates(cfg, np.array([0.0, cfg.pump_wavelength / 2])).T
        vis_singles = (hi[0] - lo[0]) / (hi[0] + lo[0])
        assert vis_singles == pytest.approx(eta, abs=1e-12)
        vis_coinc = (hi[2] - lo[2]) / (hi[2] + lo[2])
        expected = 2 * eta / (1 + eta * eta) if eta > 0 else 0.0
        # O(K^2) shift from the double-pair term in the exact contraction
        assert vis_coinc == pytest.approx(expected, abs=5 * k * k)


def test_fringe_period_follows_the_scanned_axis():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_p = cfg.pump_wavelength
    lam_s = cfg.signal_filter.center_wavelength
    probe, shifted, mismatched = setup_rates(
        cfg, np.array([0.31 * lam_p, 1.31 * lam_p, 0.31 * lam_p + lam_s])
    )[0]
    assert shifted == pytest.approx(probe, rel=1e-9)
    probe_s, shifted_s = setup_rates(cfg, delta_x_s=np.array([0.2 * lam_s, 1.2 * lam_s]))[0]
    assert shifted_s == pytest.approx(probe_s, rel=1e-9)
    # and the pump-axis period is NOT the signal wavelength
    assert abs(mismatched - probe) > 0.1 * probe


def test_idler_singles_independent_of_delays():
    k1, k2 = 1e-3, 7e-4
    cfg = config_with(gain1=k1, gain2=k2)
    rng = random.Random(9)
    expected = k1 * k1 + k2 * k2
    for _ in range(20):
        p_b = setup_rates(cfg, rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))[1, 0]
        assert p_b == pytest.approx(expected, rel=1e-12)


def test_zero_gains_remove_all_pairs():
    cfg = config_with(gain1=0.0, gain2=0.0)
    for delays in ((0.0, 0.0), (1.1e-7, -3.7e-7)):
        p_a, p_b, p_ab = setup_rates(cfg, *delays)[:, 0]
        assert p_a == 0.0
        assert p_b == 0.0
        assert p_ab == 0.0


def test_phase_averaged_rates_are_the_baseline():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.8)
    base = compile_model(cfg).baseline
    k = 1e-3
    assert base[0] == pytest.approx(k * k, rel=1e-9)  # (t^2 + r^2) |K|^2
    rng = random.Random(17)
    for _ in range(5):
        x = rng.uniform(0, 1e-6)
        here, flipped = setup_rates(cfg, np.array([x, x + cfg.pump_wavelength / 2.0]))[0]
        assert (here + flipped) / 2.0 == pytest.approx(base[0], rel=1e-9)


def test_agrees_with_fock_oracle_on_default_grid():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_s = cfg.signal_filter.center_wavelength
    delta_x_s = np.linspace(0, 1, 16, endpoint=False) * lam_s
    engine = setup_rates(cfg, delta_x_s=delta_x_s)
    oracle = detection_moments(build_state(cfg, delta_x_s=delta_x_s))
    for e, o in zip(engine, oracle):
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
        delta_x_p = rng.uniform(-2 * cfg.pump_wavelength, 2 * cfg.pump_wavelength)
        delta_x_s = rng.uniform(-2e-6, 2e-6)
        e = setup_rates(cfg, delta_x_p, delta_x_s)[:, 0].tolist()
        o = detection_moments(build_state(cfg, delta_x_p, delta_x_s))[:, 0].tolist()
        for ev, ov in zip(e, o):
            scale = max(abs(ev), abs(ov), compile_model(cfg).baseline[0])
            assert abs(ev - ov) <= 1e-6 * scale


def test_setup_operators_expose_detected_channels():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    out_a, i2 = setup_operators(cfg)
    assert out_a.shape == i2.shape == (1, 2, 4)
    assert singles_rate(out_a[0]) == pytest.approx(setup_rates(cfg)[0, 0])
    assert i2[0, 0, IO1] == 1.0


def random_batch(rng, m):
    """Pump and signal delay arrays of m random settings."""
    return np.array(
        [(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-4, 1e-4)) for _ in range(m)]
    ).T


def test_batch_equals_one_setting_calls_exactly():
    rng = random.Random(1402)
    for _ in range(60):
        cfg = config_with(
            gain1=10 ** rng.uniform(-5, math.log10(0.08)),
            gain2=10 ** rng.uniform(-5, math.log10(0.08)),
            eta=rng.choice((0.0, 1.0, rng.uniform(0.0, 1.0))),
            splitter_ratio=rng.uniform(0.01, 0.99),
        )
        delta_x_p, delta_x_s = random_batch(rng, rng.randint(1, 40))
        batch = setup_rates(cfg, delta_x_p, delta_x_s)
        assert batch.shape == (3, len(delta_x_p))
        for column, xp, xs in zip(batch.T.tolist(), delta_x_p.tolist(), delta_x_s.tolist()):
            assert column == setup_rates(cfg, xp, xs)[:, 0].tolist()


def test_scalar_delays_broadcast_against_an_array():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.6)
    delta_x_s = np.linspace(-1e-6, 1e-6, 7)
    batch = setup_rates(cfg, 1e-7, delta_x_s)
    assert batch.shape == (3, 7)
    assert np.array_equal(batch, setup_rates(cfg, np.full(7, 1e-7), delta_x_s))


def test_check_rates_rejects_negative():
    with pytest.raises(ValueError):
        check_rates(np.array([[-1.0], [0.0], [0.0]]))


def test_check_rates_names_the_first_bad_column():
    check_rates(np.array([[1.0, 0.0], [0.0, -1e-16], [2.0, 0.0]]))  # roundoff passes
    rates = np.ones((3, 4))
    rates[2, 1] = -1.0
    rates[1, 2] = math.nan
    rates[0, 3] = -2.0
    with pytest.raises(ValueError, match=r"^rate p_ab=-1\.0 must be finite and non-negative$"):
        check_rates(rates)
    rates[1, 1] = math.inf
    with pytest.raises(ValueError, match=r"^rate p_b=inf must be finite and non-negative$"):
        check_rates(rates)
    rates[:, 1] = 1.0
    with pytest.raises(ValueError, match=r"^rate p_b=nan must be finite and non-negative$"):
        check_rates(rates)
