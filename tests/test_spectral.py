import numpy as np
import pytest

import icohsim.expectation
import icohsim.spectral
from icohsim.counting import calibrate
from icohsim.expectation import compose_setup, phase_averaged_rates, setup_rates
from icohsim.operators import DelaySetting
from icohsim.scan import run_scan
from icohsim.spectral import (
    SPEED_OF_LIGHT,
    SpectralProfile,
    coherence_length,
    compile_model,
    envelope,
    frequency_fwhm,
    modulated_rates,
    profile_for_coherence_length,
)

from conftest import config_with

PUMP = SpectralProfile(355e-9, fwhm_frequency=45e9)
SIGNAL = SpectralProfile(808e-9, fwhm_wavelength=2e-9)
IDLER = SpectralProfile(632e-9, fwhm_wavelength=3e-9)


def test_frequency_fwhm_conversions():
    assert frequency_fwhm(SIGNAL) == pytest.approx(
        SPEED_OF_LIGHT * 2e-9 / 808e-9**2
    )
    assert frequency_fwhm(SIGNAL) == pytest.approx(9.19e11, rel=1e-2)
    assert frequency_fwhm(PUMP) == 45e9
    assert frequency_fwhm(IDLER) == pytest.approx(2.25e12, rel=1e-2)


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(808e-9)  # no width
    with pytest.raises(ValueError):
        SpectralProfile(808e-9, fwhm_wavelength=2e-9, fwhm_frequency=1e9)
    with pytest.raises(ValueError, match="narrowband"):
        SpectralProfile(808e-9, fwhm_wavelength=900e-9)


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
    for profile in (PUMP, SIGNAL, IDLER):
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
    zero = DelaySetting()
    assert modulated_rates(cfg, zero) == compose_setup(cfg, zero)


def test_modulated_signal_scan_flattens_far_out():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    base = modulated_rates(cfg, DelaySetting()).p_a / 2.0
    lam_s = cfg.signal_filter.center_wavelength
    far = 1e-3
    values = [
        modulated_rates(cfg, DelaySetting(delta_x_s=far + f * lam_s)).p_a
        for f in np.linspace(0, 1, 9)
    ]
    ripple = (max(values) - min(values)) / 2
    assert ripple < 1e-10 * base


def test_modulated_pump_scan_keeps_contrast_at_one_millimeter():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_p = cfg.pump_wavelength

    def local_visibility(x0):
        values = [
            modulated_rates(cfg, DelaySetting(delta_x_p=x0 + f * lam_p)).p_a
            for f in np.linspace(0, 1, 33)
        ]
        return (max(values) - min(values)) / (max(values) + min(values))

    assert local_visibility(1e-3) >= 0.89 * local_visibility(0.0)


def test_envelopes_separate_by_axis():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    # scanning the signal delay must not engage the pump envelope: compare
    # fringe contrast at a signal offset against the signal envelope alone
    lam_s = cfg.signal_filter.center_wavelength
    x0 = 5e-5
    values = [
        modulated_rates(cfg, DelaySetting(delta_x_s=x0 + f * lam_s)).p_a
        for f in np.linspace(0, 1, 65)
    ]
    vis = (max(values) - min(values)) / (max(values) + min(values))
    # the envelope drifts slightly across the one-period window, so compare
    # at the percent level only
    assert vis == pytest.approx(envelope(cfg.signal_filter, x0), rel=1e-2)


def test_idler_channel_untouched_by_envelopes():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    a = modulated_rates(cfg, DelaySetting()).p_b
    b = modulated_rates(cfg, DelaySetting(delta_x_s=3e-4, delta_x_p=1e-3)).p_b
    assert a == pytest.approx(b, rel=1e-12)


def test_coherence_override_changes_pump_envelope():
    cfg = config_with(gain1=1e-3, gain2=1e-3, coherence_length_override=1.4e-3)
    profile = cfg.pump_profile()
    assert coherence_length(profile) == pytest.approx(1.4e-3, rel=1e-12)
    assert envelope(profile, 600e-6) < envelope(PUMP, 600e-6)


def _random_config(rng):
    eta = (0.0, 1.0, rng.uniform(0.0, 1.0))[rng.integers(3)]
    return config_with(
        gain1=rng.uniform(1e-4, 0.08),
        gain2=rng.uniform(1e-4, 0.08),
        eta=eta,
        splitter_ratio=rng.uniform(0.01, 0.99),
    )


def test_compiled_model_matches_per_point_rates_on_random_configs():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        cfg = _random_config(rng)
        dxp = rng.uniform(-1e-3, 1e-3, 5)
        dxs = rng.uniform(-1e-4, 1e-4, 5)
        model = compile_model(cfg)
        compiled = model.rates(dxp, dxs)
        assert compiled.shape == (3, 5)
        base = np.array([model.baseline.p_a, model.baseline.p_b, model.baseline.p_ab])
        for k in range(5):
            ref = modulated_rates(cfg, DelaySetting(delta_x_p=dxp[k], delta_x_s=dxs[k]))
            reference = np.array([ref.p_a, ref.p_b, ref.p_ab])
            assert np.all(np.abs(compiled[:, k] - reference) <= 1e-10 * base), cfg


def test_compiled_baseline_is_the_phase_averaged_baseline():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = _random_config(rng)
        assert compile_model(cfg).baseline == phase_averaged_rates(cfg)


@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_run_scan_equals_per_point_path(axis):
    cfg = config_with()
    record = run_scan(cfg, axis=axis, sample=False)
    baseline = phase_averaged_rates(cfg)
    cc = calibrate(cfg.detectors, baseline)
    # relative to each channel's calibrated baseline: fringe minima reach ~1e-4 of it
    tolerance = 1e-12 * np.array(cc.detected_rates(baseline))
    for x, got in zip(record.delays, record.rates.T):
        setting = DelaySetting(delta_x_p=x) if axis == "pump" else DelaySetting(delta_x_s=x)
        expected = cc.detected_rates(modulated_rates(cfg, setting))
        assert np.all(np.abs(got - expected) <= tolerance)


def test_compile_model_makes_one_engine_pass_of_three_settings_per_scan(monkeypatch):
    batches = []
    points = []

    def counted_batch(config, delays):
        batches.append(len(delays))
        return setup_rates(config, delays)

    def counted_point(config, delays):
        points.append(delays)
        return compose_setup(config, delays)

    for module in (icohsim.spectral, icohsim.expectation):
        monkeypatch.setattr(module, "setup_rates", counted_batch)
        monkeypatch.setattr(module, "compose_setup", counted_point)
    cfg = config_with()
    compile_model(cfg)
    assert batches == [3]
    for n in (9, 401, 4001):
        batches.clear()
        grid = np.linspace(-1e-6, 1e-6, n)
        record = run_scan(cfg, axis="pump", grid=grid)
        assert record.rates.shape[1] == n
        assert batches == [3]
    assert points == []
