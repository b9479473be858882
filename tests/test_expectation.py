import math
import random

import numpy as np
import pytest

from icohsim.config import MIN_GAIN
from icohsim.expectation import fringe_law, setup_operators
from icohsim.fockoracle import build_state, detection_moments
from icohsim.operators import (
    IO1,
    PUMP,
    SIGNAL,
    SO1,
    SO2,
    beam_splitter,
    free_mode,
    spdc,
)
from icohsim.spectral import compile_model

from conftest import ORACLE_K2_BOUND, config_with, dense, fresh_import


def rates_of(s, i):
    """(p_a, p_b, p_ab) of the (2, 4) coefficient arrays of s and i at one setting:
    the contraction of channels with no phasor, whose baseline is the whole rate."""

    def channel(coefficients):
        return [(row, mode, 0, 0, complex(c)) for (row, mode), c in np.ndenumerate(coefficients)]

    base, amplitude = fringe_law(channel(s), channel(i))
    assert amplitude == (0j, 0j, 0j)
    return base


def test_the_engine_imports_no_numpy():
    # the symbolic engine stands on the config and the operators alone, in plain Python
    modules = "['icohsim', 'icohsim.config', 'icohsim.expectation', 'icohsim.operators']"
    assert fresh_import("icohsim.expectation") == [modules, "False"]


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

# Configs where a term vanishes or a splitter port nearly closes: no crystal 1,
# no crystal 2, a blocked idler link, and splitter ratios 0.01 and 0.99.  Their
# gains are low enough for the Fock oracle's 1e-6 agreement too.
EDGE_CONFIGS = [
    dict(gain1=0.0, gain2=4e-4, eta=0.6, splitter_ratio=0.4),
    dict(gain1=3e-4, gain2=0.0, eta=0.8, splitter_ratio=0.55),
    dict(gain1=5e-4, gain2=2e-4, eta=0.0),
    dict(gain1=2e-4, gain2=5e-4, eta=0.9, splitter_ratio=0.01),
    dict(gain1=2e-4, gain2=5e-4, eta=0.9, splitter_ratio=0.99),
]
GOLDEN += zip(
    EDGE_CONFIGS,
    [
        [
            (6.400000000000002e-08, 1.6e-07, 6.400001024000001e-08),
            (6.399999999999999e-08, 1.6e-07, 6.400001023999998e-08),
            (6.400000000000002e-08, 1.6e-07, 6.400001024000004e-08),
        ],
        [
            (4.049999999999999e-08, 5.759999999999999e-08, 2.5920002332799993e-08),
            (4.049999999999999e-08, 5.759999999999999e-08, 2.5920002332800003e-08),
            (4.049999999999998e-08, 5.759999999999999e-08, 2.5920002332799993e-08),
        ],
        [
            (1.4500000000000004e-07, 4e-08, 2.00000058e-08),
            (1.4500000000000004e-07, 4e-08, 2.00000058e-08),
            (1.45e-07, 4e-08, 2.0000005800000006e-08),
        ],
        [
            (6.000977386791917e-08, 2.824e-07, 5.24857908146793e-08),
            (3.9310306655700504e-08, 2.824e-07, 3.17863177569311e-08),
            (5.9429765688227754e-08, 2.824000000000001e-07, 5.190578247119357e-08),
        ],
        [
            (2.6580977386791913e-07, 2.824e-07, 2.657338489325993e-07),
            (2.451103066557005e-07, 2.824e-07, 2.450343758748511e-07),
            (2.652297656882278e-07, 2.824000000000001e-07, 2.651538405891137e-07),
        ],
    ],
)


@pytest.mark.parametrize("overrides, rates", GOLDEN, ids=[f"config{n}" for n in range(len(GOLDEN))])
def test_rates_match_recorded_engine_outputs(overrides, rates):
    cfg = config_with(**overrides)
    for delays, want in zip(GOLDEN_DELAYS, rates):
        got = compile_model(cfg).monochromatic(*delays)[:, 0].tolist()
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_singles_rate_of_pure_annihilator_is_zero():
    assert rates_of(dense(free_mode(SO1)), np.zeros((2, 4)))[0] == 0.0


def test_singles_rate_counts_creation_amplitudes_coherently():
    # both arms carry an io1 creator; the recombined port adds them as amplitudes
    k = 0.01
    s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
    s2, _ = spdc(free_mode(SO2), free_mode(IO1), k)
    out, _ = beam_splitter(s2, s1, 0.5)
    no_idler = np.zeros((2, 4))
    assert rates_of(dense(out), no_idler)[0] == pytest.approx(2 * k * k, rel=1e-14)
    out_opposed, _ = beam_splitter(s2, [term[:4] + (-term[4],) for term in s1], 0.5)
    assert rates_of(dense(out_opposed), no_idler)[0] <= 1e-30


def test_ideal_singles_rate_extremes():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    top, bottom = compile_model(cfg).monochromatic(np.array([0.0, cfg.pump_wavelength / 2]))[0]
    assert top == pytest.approx(2 * k * k, rel=1e-12)
    assert bottom <= 1e-12 * top


def test_phase_grid_matches_cosine_law():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_p, lam_s = cfg.pump_wavelength, cfg.signal_filter_center
    rng = random.Random(3)
    for _ in range(50):
        phi_p = rng.uniform(0, 2 * math.pi)
        phi_s = rng.uniform(0, 2 * math.pi)
        got = compile_model(cfg).monochromatic(
            delta_x_p=phi_p * lam_p / (2 * math.pi),
            delta_x_s=phi_s * lam_s / (2 * math.pi),
        )[0, 0]
        want = k * k * (1 + math.cos(phi_p - phi_s))
        assert got == pytest.approx(want, abs=2 * k * k * 1e-12)


def test_coincidence_trivial_zero():
    assert rates_of(dense(free_mode(SO1)), dense(free_mode(IO1)))[2] == 0.0


def test_coincidence_rate_equals_the_outer_product_contraction():
    # The double-pair term ||M + M^T||^2 / 2 with M = outer(i's creation row, s's
    # creation row), formed explicitly, on random channels where both terms matter.
    rng = np.random.default_rng(29)
    s, i = (rng.normal(size=(64, 2, 4)) + 1j * rng.normal(size=(64, 2, 4)) for _ in range(2))
    vacuum_amp = np.sum(i[:, 0, :] * s[:, 1, :], axis=-1)
    pairs = i[:, 1, :, None] * s[:, 1, None, :]
    double_pair = 0.5 * np.sum(np.abs(pairs + np.swapaxes(pairs, -1, -2)) ** 2, axis=(-2, -1))
    reference = np.abs(vacuum_amp) ** 2 + double_pair
    rates = np.array([rates_of(s_n, i_n) for s_n, i_n in zip(s, i)]).T
    assert rates[2] == pytest.approx(reference, rel=1e-14)
    assert rates[:2] == pytest.approx(np.sum(np.abs(np.stack([s[:, 1], i[:, 1]])) ** 2, axis=-1), rel=1e-14)


def test_a_stray_monomial_raises():
    # a signal carrying 1 and u_p u_s puts u_p u_s and its conjugate on p_a
    s = [(1, IO1, 0, 0, 1e-3), (1, IO1, 1, 1, 1e-3)]
    with pytest.raises(ValueError, match=r"^rate p_a has a stray u_p\^-?1 u_s\^-?1 term"):
        fringe_law(s, [])
    # an idler that fringes too passes alone, but squares the fringe on p_ab
    s = [(1, IO1, *PUMP, 1e-3), (1, IO1, *SIGNAL, 1e-3)]
    i = [(1, SO1, *PUMP, 1e-3), (1, SO1, *SIGNAL, 1e-3)]
    assert fringe_law(i, [])[1][0] == pytest.approx(2e-6, rel=1e-15)
    with pytest.raises(ValueError, match=r"^rate p_ab has a stray u_p\^-?2 u_s\^-?2 term"):
        fringe_law(s, i)


def test_coincidence_shares_phase_dependence_with_singles():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k, eta=0.8)
    lam_p = cfg.pump_wavelength
    phases = np.linspace(0, 2 * math.pi, 37)
    singles, _, coinc = compile_model(cfg).monochromatic(phases * lam_p / (2 * math.pi))
    assert int(np.argmax(singles)) == int(np.argmax(coinc))
    assert int(np.argmin(singles)) == int(np.argmin(coinc))


def test_visibility_pairing_closed_forms():
    k = 1e-3
    for eta in (1.0, 0.9, 0.7, 0.4, 0.0):
        cfg = config_with(gain1=k, gain2=k, eta=eta)
        hi, lo = compile_model(cfg).monochromatic(np.array([0.0, cfg.pump_wavelength / 2])).T
        vis_singles = (hi[0] - lo[0]) / (hi[0] + lo[0])
        assert vis_singles == pytest.approx(eta, abs=1e-12)
        vis_coinc = (hi[2] - lo[2]) / (hi[2] + lo[2])
        expected = 2 * eta / (1 + eta * eta) if eta > 0 else 0.0
        # O(K^2) shift from the double-pair term in the exact contraction
        assert vis_coinc == pytest.approx(expected, abs=5 * k * k)


def test_fringe_period_follows_the_scanned_axis():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_p = cfg.pump_wavelength
    lam_s = cfg.signal_filter_center
    probe, shifted, mismatched = compile_model(cfg).monochromatic(
        np.array([0.31 * lam_p, 1.31 * lam_p, 0.31 * lam_p + lam_s])
    )[0]
    assert shifted == pytest.approx(probe, rel=1e-9)
    probe_s, shifted_s = compile_model(cfg).monochromatic(delta_x_s=np.array([0.2 * lam_s, 1.2 * lam_s]))[0]
    assert shifted_s == pytest.approx(probe_s, rel=1e-9)
    # and the pump-axis period is NOT the signal wavelength
    assert abs(mismatched - probe) > 0.1 * probe


def test_idler_singles_independent_of_delays():
    k1, k2 = 1e-3, 7e-4
    cfg = config_with(gain1=k1, gain2=k2)
    rng = random.Random(9)
    expected = k1 * k1 + k2 * k2
    for _ in range(20):
        p_b = compile_model(cfg).monochromatic(rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))[1, 0]
        assert p_b == pytest.approx(expected, rel=1e-12)


def test_zero_gains_remove_all_pairs():
    cfg = config_with(gain1=0.0, gain2=0.0)
    for delays in ((0.0, 0.0), (1.1e-7, -3.7e-7)):
        p_a, p_b, p_ab = compile_model(cfg).monochromatic(*delays)[:, 0]
        assert p_a == 0.0
        assert p_b == 0.0
        assert p_ab == 0.0


@pytest.mark.parametrize("ratio, eta, splitter_ratio", [(1.0, 0.7, 0.5), (0.37, 0.93, 0.21)])
def test_singles_visibility_holds_as_the_gains_scale_down_to_min_gain(ratio, eta, splitter_ratio):
    # rates are in units of K^2: scaling both gains, a decade at a time from
    # 1e-3 down to the floor, leaves the singles |A| / B as it was
    def visibility(gain):
        model = compile_model(config_with(gain1=gain, gain2=ratio * gain, eta=eta, splitter_ratio=splitter_ratio))
        return abs(model.amplitude[0]) / model.baseline[0]

    gains = [float(f"1e{exponent}") for exponent in range(-3, -151, -1)]
    assert gains[-1] == MIN_GAIN
    reference = visibility(gains[0])
    for gain in gains:
        assert visibility(gain) == pytest.approx(reference, rel=1e-12), gain


def test_phase_averaged_rates_are_the_baseline():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.8)
    base = compile_model(cfg).baseline
    k = 1e-3
    assert base[0] == pytest.approx(k * k, rel=1e-9)  # (t^2 + r^2) |K|^2
    rng = random.Random(17)
    for _ in range(5):
        x = rng.uniform(0, 1e-6)
        here, flipped = compile_model(cfg).monochromatic(np.array([x, x + cfg.pump_wavelength / 2.0]))[0]
        assert (here + flipped) / 2.0 == pytest.approx(base[0], rel=1e-9)


def test_agrees_with_fock_oracle_on_default_grid():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_s = cfg.signal_filter_center
    delta_x_s = np.linspace(0, 1, 16, endpoint=False) * lam_s
    engine = compile_model(cfg).monochromatic(delta_x_s=delta_x_s)
    oracle = detection_moments(build_state(cfg, delta_x_s=delta_x_s))
    for e, o in zip(engine, oracle):
        scale = max(e.max(), o.max())
        # leading orders agree; the two truncation schemes differ at O(K^4)
        assert np.max(np.abs(e - o)) <= ORACLE_K2_BOUND * k * k * scale


def test_oracle_agreement_over_randomized_configs():
    rng = random.Random(41)
    for n in range(20 + len(EDGE_CONFIGS)):
        if n < 20:
            k = 10 ** rng.uniform(-4, math.log10(6e-4))
            overrides = dict(
                gain1=k,
                gain2=k,
                eta=rng.uniform(0.0, 1.0),
                splitter_ratio=rng.uniform(0.25, 0.75),
            )
        else:
            overrides = EDGE_CONFIGS[n - 20]
        cfg = config_with(**overrides)
        delta_x_p = rng.uniform(-2 * cfg.pump_wavelength, 2 * cfg.pump_wavelength)
        delta_x_s = rng.uniform(-2e-6, 2e-6)
        e = compile_model(cfg).monochromatic(delta_x_p, delta_x_s)[:, 0].tolist()
        o = detection_moments(build_state(cfg, delta_x_p, delta_x_s))[:, 0].tolist()
        # both sides give rates that are finite and not negative, with no check after them
        assert all(math.isfinite(rate) and rate >= 0 for rate in e + o), (overrides, e, o)
        for ev, ov in zip(e, o):
            scale = max(abs(ev), abs(ov), compile_model(cfg).baseline[0])
            assert abs(ev - ov) <= 1e-6 * scale


def test_setup_operators_expose_detected_channels():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.6)
    out_a, i2 = setup_operators(cfg)
    # the detected port's creation row is fixed 4-vectors times u_p or u_s, and
    # the idler's rows are fixed 4-vectors times 1 or u_p
    assert {term[2:4] for term in out_a if term[0] == 1} == {PUMP, SIGNAL}
    assert {term[2:4] for term in i2 if term[0] == 1} == {(0, 0), PUMP}
    assert {term[2:4] for term in i2 if term[0] == 0} == {(0, 0)}
    assert dense(i2)[0, IO1] == 0.6
    # evaluated at one setting's phasors they give that setting's rates
    rng = random.Random(6)
    for _ in range(10):
        delta_x_p, delta_x_s = rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6)
        u_p = np.exp(2j * math.pi * delta_x_p / cfg.pump_wavelength)
        u_s = np.exp(2j * math.pi * delta_x_s / cfg.signal_filter_center)
        got = compile_model(cfg).monochromatic(delta_x_p, delta_x_s)[:, 0]
        assert got == pytest.approx(rates_of(dense(out_a, u_p, u_s), dense(i2, u_p, u_s)), rel=1e-13)


def random_batch(rng, m):
    """Pump and signal delay arrays of m random settings."""
    return np.array(
        [(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-4, 1e-4)) for _ in range(m)]
    ).T


def test_batch_equals_one_setting_calls_exactly():
    rng = random.Random(1402)
    for _ in range(60):
        cfg = config_with(
            gain1=rng.choice((0.0, 10 ** rng.uniform(-5, math.log10(0.08)))),
            gain2=rng.choice((0.0, 10 ** rng.uniform(-5, math.log10(0.08)))),
            eta=rng.choice((0.0, 1.0, rng.uniform(0.0, 1.0))),
            splitter_ratio=rng.uniform(0.01, 0.99),
        )
        delta_x_p, delta_x_s = random_batch(rng, rng.randint(1, 40))
        batch = compile_model(cfg).monochromatic(delta_x_p, delta_x_s)
        assert batch.shape == (3, len(delta_x_p))
        for column, xp, xs in zip(batch.T.tolist(), delta_x_p.tolist(), delta_x_s.tolist()):
            assert column == compile_model(cfg).monochromatic(xp, xs)[:, 0].tolist()


@pytest.mark.parametrize(
    "pump_is_array, signal_is_array",
    [(True, False), (False, True), (False, False), (True, True)],
    ids=["array-scalar", "scalar-array", "scalar-scalar", "array-array"],
)
def test_scalar_delays_broadcast_against_an_array(pump_is_array, signal_is_array):
    # each batch is bit-equal to the rates of its delays broadcast to (m,)
    # arrays by hand
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.6)
    delta_x_p = np.linspace(-3e-7, 4e-7, 7) if pump_is_array else 1e-7
    delta_x_s = np.linspace(-1e-6, 1e-6, 7) if signal_is_array else -2e-7
    m = 7 if pump_is_array or signal_is_array else 1
    batch = compile_model(cfg).monochromatic(delta_x_p, delta_x_s)
    assert batch.shape == (3, m)
    expected = compile_model(cfg).monochromatic(np.broadcast_to(delta_x_p, (m,)), np.broadcast_to(delta_x_s, (m,)))
    assert batch.tobytes() == expected.tobytes()


def test_delay_arrays_of_unequal_lengths_raise():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    with pytest.raises(ValueError):
        compile_model(cfg).monochromatic(np.zeros(3), np.zeros(2))
