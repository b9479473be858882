import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

import icohsim.expectation
import icohsim.spectral
from icohsim.config import ConfigError, parse_config
from icohsim.counting import calibrate
from icohsim.expectation import setup_rates
from icohsim.scan import run_scan
from icohsim.spectral import (
    SpectralProfile,
    coherence_length,
    compile_model,
    envelope,
    profile_for_coherence_length,
)

from conftest import config_with

C = 299_792_458.0  # m/s
PUMP = SpectralProfile(355e-9, fwhm_frequency=45e9)
SIGNAL = parse_config("[scan]\n").signal_filter
WIDE = SpectralProfile(632e-9, fwhm_frequency=2.25e12)


def spectral_average(config, delta_x_p=0.0, delta_x_s=0.0, nodes=32):
    """Monochromatic engine rates averaged over the pump and signal spectra.

    The reference the envelope law is checked against; it reads only the
    profiles' centers and FWHMs.  Both spectra are Gaussian with standard
    deviation FWHM / (2 sqrt(2 ln 2)), averaged independently by
    Gauss-Hermite quadrature.  At frequency nu a delay dx adds the phase
    2 pi dx nu / c, which the engine gives for the delay dx nu / nu_0 at the
    center frequency nu_0, so one engine call covers all m * nodes^2
    settings.  Returns shape (3, m) for the delays broadcast to (m,).
    """
    x, w = hermegauss(nodes)
    w = w / w.sum()

    def frequency_ratios(profile):  # nu / nu_0 at each node
        sigma = profile.fwhm_frequency / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return 1.0 + sigma * x * profile.center_wavelength / C

    delta_x_p, delta_x_s = np.broadcast_arrays(np.atleast_1d(delta_x_p), np.atleast_1d(delta_x_s))
    pump_delays = delta_x_p[:, None, None] * frequency_ratios(config.pump_profile())[:, None]
    signal_delays = delta_x_s[:, None, None] * frequency_ratios(config.signal_filter)
    pump_delays, signal_delays = np.broadcast_arrays(pump_delays, signal_delays)
    rates = setup_rates(config, pump_delays.ravel(), signal_delays.ravel())
    return np.einsum("cmij,i,j->cm", rates.reshape(3, -1, nodes, nodes), w, w)


def phase_averaged_baseline(config):
    """Each channel's mean over the fringe phase, straight from the engine."""
    return setup_rates(config, np.array([0.0, config.pump_wavelength / 2.0])).mean(axis=1)


def test_frequency_fwhm_conversions():
    # the [signal_filter] keys convert once, at parsing: dnu = c * bandwidth / center^2
    assert SIGNAL.center_wavelength == 808e-9
    assert SIGNAL.fwhm_frequency == C * 2e-9 / 808e-9**2
    assert SIGNAL.fwhm_frequency == pytest.approx(9.19e11, rel=1e-2)
    assert parse_config("[pump]\nbandwidth_ghz = 45\n[scan]\n").pump_profile() == PUMP
    wide = parse_config("[signal_filter]\ncenter_nm = 632\nbandwidth_nm = 3\n[scan]\n")
    assert wide.signal_filter.fwhm_frequency == pytest.approx(WIDE.fwhm_frequency, rel=1e-2)


def test_profile_validation():
    with pytest.raises(ValueError, match="center_wavelength"):
        SpectralProfile(0.0, 1e9)
    with pytest.raises(ValueError, match="fwhm_frequency"):
        SpectralProfile(808e-9, -1e9)
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
    for profile in (PUMP, SIGNAL, WIDE):
        lc = coherence_length(profile)
        assert envelope(profile, lc) == pytest.approx(0.5, rel=1e-12)


def test_coherence_length_values():
    assert coherence_length(PUMP) == pytest.approx(2.9397728396474937e-3, rel=1e-12)
    assert coherence_length(SIGNAL) == pytest.approx(1.44045e-4, rel=1e-4)
    # infinitely wide spectrum has no coherence at all
    broad = SpectralProfile(808e-9, fwhm_frequency=1e30)
    assert coherence_length(broad) < 1e-15


def test_pump_to_signal_coherence_ratio_exceeds_five():
    assert coherence_length(PUMP) / coherence_length(SIGNAL) > 5.0


def test_profile_rescaling_hits_requested_coherence_length():
    rescaled = profile_for_coherence_length(PUMP, 1.4e-3)
    assert coherence_length(rescaled) == pytest.approx(1.4e-3, rel=1e-12)
    with pytest.raises(ValueError):
        profile_for_coherence_length(PUMP, -1.0)


def test_modulated_rates_reduce_to_monochromatic_at_zero_delay():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.8)
    assert np.array_equal(compile_model(cfg).rates(), setup_rates(cfg)[:, 0])


def test_modulated_signal_scan_flattens_far_out():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    model = compile_model(cfg)
    base = model.rates()[0] / 2.0
    lam_s = cfg.signal_filter.center_wavelength
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
    lam_s = cfg.signal_filter.center_wavelength
    x0 = 5e-5
    values = compile_model(cfg).rates(delta_x_s=x0 + np.linspace(0, 1, 65) * lam_s)[0]
    vis = (max(values) - min(values)) / (max(values) + min(values))
    # the envelope drifts slightly across the one-period window, so compare
    # at the percent level only
    assert vis == pytest.approx(envelope(cfg.signal_filter, x0), rel=1e-2)


def test_idler_channel_untouched_by_envelopes():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    model = compile_model(cfg)
    a = model.rates()[1]
    b = model.rates(delta_x_s=3e-4, delta_x_p=1e-3)[1]
    assert a == pytest.approx(b, rel=1e-12)


def test_coherence_override_changes_pump_envelope():
    cfg = config_with(gain1=1e-3, gain2=1e-3, coherence_length_override=1.4e-3)
    profile = cfg.pump_profile()
    assert coherence_length(profile) == pytest.approx(1.4e-3, rel=1e-12)
    assert envelope(profile, 600e-6) < envelope(PUMP, 600e-6)


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
        signal_filter=SpectralProfile(center, C * bandwidth / center**2),
    )


def _coherence_lengths(rng, profile, m):
    """m delays of random sign, 0 to 3 half-maximum delays 2 ln2 c / (pi dnu) long."""
    unit = 2.0 * math.log(2.0) * C / (math.pi * profile.fwhm_frequency)
    return rng.choice([-1.0, 1.0], m) * rng.uniform(0.0, 3.0, m) * unit


def test_compiled_model_matches_per_point_rates_on_random_configs():
    # the envelope law against the engine averaged over both spectra, with
    # random filter widths and both delays non-zero
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        cfg = _random_config(rng)
        dxp = _coherence_lengths(rng, cfg.pump_profile(), 5)
        dxs = _coherence_lengths(rng, cfg.signal_filter, 5)
        compiled = compile_model(cfg).rates(dxp, dxs)
        assert compiled.shape == (3, 5)
        reference = spectral_average(cfg, dxp, dxs)
        tolerance = 1e-10 * phase_averaged_baseline(cfg)[:, None]
        assert np.all(np.abs(compiled - reference) <= tolerance), cfg


def test_compiled_baseline_is_the_phase_averaged_baseline():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = _random_config(rng)
        r0, r_pi = setup_rates(cfg, np.array([0.0, cfg.pump_wavelength / 2.0])).T
        assert np.array_equal(compile_model(cfg).baseline, (r0 + r_pi) / 2.0)


@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_run_scan_equals_per_point_path(axis):
    cfg = config_with()
    record = run_scan(cfg, axis=axis, sample=False)
    baseline = phase_averaged_baseline(cfg)
    cc = calibrate(cfg.detectors, baseline)
    # relative to each channel's calibrated baseline: fringe minima reach ~1e-4 of it
    tolerance = 1e-12 * cc.detected(baseline.reshape(3, 1))
    delays = {"delta_x_p" if axis == "pump" else "delta_x_s": record.delays}
    # far inside both coherence lengths, 8 nodes per spectrum are already exact
    expected = cc.detected(spectral_average(cfg, **delays, nodes=8))
    assert np.all(np.abs(record.rates - expected) <= tolerance)


def test_compile_model_makes_one_engine_pass_of_three_settings_per_scan(monkeypatch):
    batches = []

    def counted_batch(config, delta_x_p=0.0, delta_x_s=0.0):
        rates = setup_rates(config, delta_x_p, delta_x_s)
        batches.append(rates.shape[1])
        return rates

    for module in (icohsim.spectral, icohsim.expectation):
        monkeypatch.setattr(module, "setup_rates", counted_batch)
    cfg = config_with()
    compile_model(cfg)
    assert batches == [3]
    for n in (9, 401, 4001):
        batches.clear()
        grid = np.linspace(-1e-6, 1e-6, n)
        record = run_scan(cfg, axis="pump", grid=grid)
        assert record.rates.shape[1] == n
        assert batches == [3]
