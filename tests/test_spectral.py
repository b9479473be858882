import math
import random
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

import icohsim.cli
import icohsim.spectral
from icohsim.config import ConfigError, parse_config
from icohsim.counting import detected
from icohsim.expectation import fringe_law, setup_operators
from icohsim.scan import run_scan
from icohsim.spectral import FringeModel, coherence_length, compile_model, envelope

from conftest import DEFAULT_SEED, config_with, dense

DEFAULT_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "default.ini")
C = 299_792_458.0  # m/s
# frequency FWHMs (Hz): the default pump and signal filter, and a wide filter
PUMP = 45e9
SIGNAL = parse_config("[scan]\n").signal_filter_fwhm()
WIDE = 2.25e12


def spectral_average(config, delta_x_p=0.0, delta_x_s=0.0, nodes=32):
    """Monochromatic engine rates averaged over the pump and signal spectra.

    The reference the envelope law is checked against; it reads only the
    spectra's center wavelengths and frequency FWHMs.  Both spectra are
    Gaussian with standard deviation FWHM / (2 sqrt(2 ln 2)), averaged
    independently by Gauss-Hermite quadrature.  At frequency nu a delay dx adds the phase
    2 pi dx nu / c, which the engine gives for the delay dx nu / nu_0 at the
    center frequency nu_0, so one engine call covers all m * nodes^2
    settings.  Returns shape (3, m) for the delays broadcast to (m,).
    """
    x, w = hermegauss(nodes)
    w = w / w.sum()

    def frequency_ratios(center, fwhm):  # nu / nu_0 at each node
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return 1.0 + sigma * x * center / C

    delta_x_p, delta_x_s = np.broadcast_arrays(np.atleast_1d(delta_x_p), np.atleast_1d(delta_x_s))
    pump_ratios = frequency_ratios(config.pump_wavelength, config.pump_bandwidth)
    signal_ratios = frequency_ratios(config.signal_filter_center, config.signal_filter_fwhm())
    pump_delays = delta_x_p[:, None, None] * pump_ratios[:, None]
    signal_delays = delta_x_s[:, None, None] * signal_ratios
    pump_delays, signal_delays = np.broadcast_arrays(pump_delays, signal_delays)
    rates = compile_model(config).monochromatic(pump_delays.ravel(), signal_delays.ravel())
    return np.einsum("cmij,i,j->cm", rates.reshape(3, -1, nodes, nodes), w, w)


def phase_averaged_baseline(config):
    """Each channel's mean over the fringe phase, straight from the engine."""
    return compile_model(config).monochromatic(np.array([0.0, config.pump_wavelength / 2.0])).mean(axis=1)


def test_frequency_fwhm_conversions():
    # the [signal_filter] keys convert once, at parsing: dnu = c * bandwidth / center^2
    assert SIGNAL == C * 2e-9 / 808e-9**2
    assert SIGNAL == pytest.approx(9.19e11, rel=1e-2)
    assert parse_config("[pump]\nbandwidth_ghz = 45\n[scan]\n").pump_bandwidth == PUMP
    wide = parse_config("[signal_filter]\ncenter_nm = 632\nbandwidth_nm = 3\n[scan]\n")
    assert wide.signal_filter_fwhm() == pytest.approx(WIDE, rel=1e-2)


def test_profile_validation():
    with pytest.raises(ConfigError, match="narrowband"):
        parse_config("[signal_filter]\ncenter_nm = 808\nbandwidth_nm = 900\n[scan]\n")


def test_envelope_basics():
    assert envelope(PUMP, 0.0) == 1.0
    xs = np.linspace(0, 5e-3, 40)
    values = envelope(PUMP, xs)
    assert values.shape == xs.shape
    assert np.all(np.diff(values) <= 0)  # decreasing
    np.testing.assert_allclose(values, [envelope(PUMP, x) for x in xs], rtol=1e-15, atol=0)
    for x in (1e-4, 2.3e-3):
        assert envelope(PUMP, x) == envelope(PUMP, -x)  # even
    assert envelope(PUMP, 1.0) < 1e-300 or envelope(PUMP, 1.0) == 0.0


def test_pump_envelope_plateau_values():
    assert envelope(PUMP, 600e-6) == pytest.approx(0.9715392928694486, rel=1e-12)
    assert envelope(PUMP, 600e-6) > 0.9
    assert envelope(PUMP, 1e-3) == pytest.approx(0.9229277283354025, rel=1e-12)


def test_envelope_half_maximum_at_coherence_length():
    for fwhm in (PUMP, SIGNAL, WIDE):
        lc = coherence_length(fwhm)
        assert envelope(fwhm, lc) == pytest.approx(0.5, rel=1e-12)


def test_coherence_length_values():
    assert coherence_length(PUMP) == pytest.approx(2.9397728396474937e-3, rel=1e-12)
    assert coherence_length(SIGNAL) == pytest.approx(1.44045e-4, rel=1e-4)
    # infinitely wide spectrum has no coherence at all
    assert coherence_length(1e30) < 1e-15


def test_pump_to_signal_coherence_ratio_exceeds_five():
    assert coherence_length(PUMP) / coherence_length(SIGNAL) > 5.0


def test_modulated_rates_reduce_to_monochromatic_at_zero_delay():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.8)
    assert np.array_equal(compile_model(cfg).rates(), compile_model(cfg).monochromatic()[:, 0])


def test_modulated_signal_scan_flattens_far_out():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    model = compile_model(cfg)
    base = model.rates()[0] / 2.0
    lam_s = cfg.signal_filter_center
    far = 1e-3
    values = model.rates(delta_x_s=far + np.linspace(0, 1, 9) * lam_s)[0]
    ripple = (max(values) - min(values)) / 2
    assert ripple < 1e-10 * base


def test_modulated_pump_scan_keeps_contrast_at_one_millimeter():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_p = cfg.pump_wavelength
    model = compile_model(cfg)

    def local_visibility(x0):
        values = model.rates(x0 + np.linspace(0, 1, 33) * lam_p)[0]
        return (max(values) - min(values)) / (max(values) + min(values))

    assert local_visibility(1e-3) >= 0.89 * local_visibility(0.0)


def test_envelopes_separate_by_axis():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    # scanning the signal delay must not engage the pump envelope: compare
    # fringe contrast at a signal offset against the signal envelope alone
    lam_s = cfg.signal_filter_center
    x0 = 5e-5
    values = compile_model(cfg).rates(delta_x_s=x0 + np.linspace(0, 1, 65) * lam_s)[0]
    vis = (max(values) - min(values)) / (max(values) + min(values))
    # the envelope drifts slightly across the one-period window, so compare
    # at the percent level only
    assert vis == pytest.approx(envelope(cfg.signal_filter_fwhm(), x0), rel=1e-2)


def test_idler_channel_untouched_by_envelopes():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    model = compile_model(cfg)
    a = model.rates()[1]
    b = model.rates(delta_x_s=3e-4, delta_x_p=1e-3)[1]
    assert a == pytest.approx(b, rel=1e-12)


def _random_config(rng):
    eta = (0.0, 1.0, rng.uniform(0.0, 1.0))[rng.integers(3)]
    center = rng.uniform(700e-9, 900e-9)
    bandwidth = rng.uniform(0.5e-9, 10e-9)
    return config_with(
        gain1=rng.uniform(1e-4, 0.08),
        gain2=rng.uniform(1e-4, 0.08),
        eta=eta,
        splitter_ratio=rng.uniform(0.01, 0.99),
        pump_bandwidth=rng.uniform(20e9, 100e9),
        signal_filter_center=center,
        signal_filter_bandwidth=bandwidth,
    )


def _coherence_lengths(rng, fwhm, m):
    """m delays of random sign, 0 to 3 half-maximum delays 2 ln2 c / (pi dnu) long."""
    unit = 2.0 * math.log(2.0) * C / (math.pi * fwhm)
    return rng.choice([-1.0, 1.0], m) * rng.uniform(0.0, 3.0, m) * unit


def test_compiled_model_matches_per_point_rates_on_random_configs():
    # the envelope law against the engine averaged over both spectra, with
    # random filter widths and both delays non-zero
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        cfg = _random_config(rng)
        dxp = _coherence_lengths(rng, cfg.pump_bandwidth, 5)
        dxs = _coherence_lengths(rng, cfg.signal_filter_fwhm(), 5)
        compiled = compile_model(cfg).rates(dxp, dxs)
        assert compiled.shape == (3, 5)
        reference = spectral_average(cfg, dxp, dxs)
        tolerance = 1e-10 * phase_averaged_baseline(cfg)[:, None]
        assert np.all(np.abs(compiled - reference) <= tolerance), cfg


def test_compiled_law_matches_per_setting_contractions():
    # B and A against the engine's channels evaluated at pump phases 0, pi/2
    # and pi (u_s = 1) and contracted there: with R(dphi) = B + Re(A e^{i dphi}),
    # B = (R_0 + R_pi) / 2 and A = (R_0 - R_pi) / 2 + i (B - R_pi/2).  They
    # agree within 4.0e-16 of B; the bound is 1e-15.
    rng = np.random.default_rng(7)
    for _ in range(60):
        cfg = _random_config(rng)
        out_a, i2 = setup_operators(cfg)
        rates = []
        for u_p in (1.0, 1j, -1.0):
            s, i = dense(out_a, u_p), dense(i2, u_p)
            p_a, p_b = np.sum(np.abs(s[1]) ** 2), np.sum(np.abs(i[1]) ** 2)
            p_ab = abs(np.sum(s[1] * i[0])) ** 2 + p_a * p_b + abs(np.vdot(s[1], i[1])) ** 2
            rates.append([p_a, p_b, p_ab])
        r0, r_quarter, r_pi = np.array(rates)
        base = (r0 + r_pi) / 2.0
        amplitude = (r0 - r_pi) / 2.0 + 1j * (base - r_quarter)
        model = compile_model(cfg)
        assert np.all(np.abs(model.baseline - base) <= 1e-15 * base), cfg
        assert np.all(np.abs(model.amplitude - amplitude) <= 1e-15 * base), cfg


def test_default_amplitudes_are_real():
    # real gains and a real splitter leave no quadrature term, exactly
    assert compile_model(config_with()).amplitude.imag.tolist() == [0.0, 0.0, 0.0]


def test_dark_fringes_of_visibility_one_give_no_negative_rate():
    # At eta = 1 and K2 = K1 sqrt((1 - r) / r) the visibility is 1, and every
    # other half-wave pump delay is a dark fringe, where the law is zero and
    # roundoff can leave B + Re(A e^{i dphi}) a few ulps below it.  The law is
    # clamped at 0, so no rate, monochromatic, envelope-damped or calibrated,
    # is negative or -0.0.  Without the clamp about 1 draw in 25 gives one.
    rng = random.Random(20261020)
    for _ in range(3000):
        ratio = rng.uniform(0.05, 0.95)
        gain = 10 ** rng.uniform(-4.0, -2.0)
        cfg = config_with(
            pump_bandwidth=1e6, splitter_ratio=ratio, gain1=gain, gain2=gain * math.sqrt((1 - ratio) / ratio)
        )
        model = compile_model(cfg)
        delays = 0.5 * cfg.pump_wavelength * np.arange(-8, 9)
        rates = model.rates(delta_x_p=delays)
        assert rates[0, 1::2].max() <= 1e-12 * model.baseline[0], cfg  # the odd points are dark
        calibrated = detected(rates, model.baseline, cfg.rate_a_cal, cfg.rate_b_cal)
        for values in (rates, model.monochromatic(delays, np.zeros_like(delays)), calibrated):
            assert not np.signbit(values).any(), cfg


@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_run_scan_equals_per_point_path(axis):
    cfg = config_with(axis=axis)
    record = run_scan(cfg)
    baseline = phase_averaged_baseline(cfg)
    rates = (cfg.rate_a_cal, cfg.rate_b_cal)
    # relative to each channel's calibrated baseline: fringe minima reach ~1e-4 of it
    tolerance = 1e-12 * detected(baseline.reshape(3, 1), baseline, *rates)
    delays = {"delta_x_p" if axis == "pump" else "delta_x_s": record.delays}
    # far inside both coherence lengths, 8 nodes per spectrum are already exact
    expected = detected(spectral_average(cfg, **delays, nodes=8), baseline, *rates)
    assert np.all(np.abs(record.rates - expected) <= tolerance)


def test_compile_model_makes_one_contraction_per_scan(monkeypatch, capsys):
    contractions, batches = [], []
    monochromatic = FringeModel.monochromatic

    def counted_law(s, i):
        contractions.append(1)
        return fringe_law(s, i)

    def counted_batch(model, delta_x_p=0.0, delta_x_s=0.0):
        batches.append(1)
        return monochromatic(model, delta_x_p, delta_x_s)

    monkeypatch.setattr(icohsim.spectral, "fringe_law", counted_law)
    monkeypatch.setattr(FringeModel, "monochromatic", counted_batch)
    cfg = config_with(axis="pump")
    compile_model(cfg)
    assert contractions == [1]
    for n in (9, 401, 4001):
        contractions.clear()
        record = run_scan(config_with(axis="pump", start=-1e-6, stop=1e-6, step=2e-6 / (n - 1)), DEFAULT_SEED)
        assert record.rates.shape[1] == n
        assert contractions == [1]
    assert batches == []
    # oracle-check evaluates the monochromatic law once, and report only the envelope law
    for command, evaluations in (["oracle-check", "--points", "16"], [1]), (["report"], []):
        contractions.clear()
        batches.clear()
        assert icohsim.cli.main([*command, "--config", DEFAULT_CONFIG]) == 0
        assert contractions == [1]
        assert batches == evaluations
    capsys.readouterr()
