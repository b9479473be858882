import itertools
import math

import numpy as np
import pytest

from icohsim.config import MAX_GAIN, MAX_RATE, MAX_SECONDS, MIN_SPLITTER_FRACTION, ConfigError
from icohsim.counting import (
    accidental_rate,
    count_means,
    detected,
    double_pair_probability,
    sample_scan,
)
from icohsim.scan import run_scan
from icohsim.spectral import compile_model

from conftest import config_with

ONES = np.ones(3)


DWELL = 0.5


def scan_means(rates, cfg, points=1, baseline=ONES):
    """Expected counts (4, points) in DWELL of a scan whose points all have rates (p_a, p_b, p_ab),
    calibrated on the model baseline ``baseline``."""
    calibrated = detected(np.tile(np.reshape(rates, (3, 1)), points), baseline, cfg.rate_a_cal, cfg.rate_b_cal)
    return count_means(calibrated, cfg.window, DWELL)


def sample_point(rates, cfg, seed, baseline=ONES):
    """Counts [A, B, coincidences] of a one-point scan drawn with ``seed``."""
    return sample_scan(scan_means(rates, cfg, baseline=baseline), seed)[:, 0].tolist()


def test_accidental_rate_values():
    assert accidental_rate(42e3, 110e3, 2e-9) == 42000.0 * 110000.0 * 2e-9
    assert accidental_rate(42e3, 110e3, 2e-9) == pytest.approx(9.24, rel=1e-12)
    assert accidental_rate(0.0, 5e6, 1e-9) == 0.0
    assert accidental_rate(1e6, 1e6, 1e-9) == pytest.approx(1e3)


def test_double_pair_probability_formula():
    assert double_pair_probability(0.0, 2e-9) == 0.0
    mu = 0.01
    assert double_pair_probability(5e6, 2e-9) == pytest.approx(
        1 - math.exp(-mu) * (1 + mu), rel=1e-12
    )
    assert double_pair_probability(5e6, 2e-9) == pytest.approx(4.9668e-5, rel=1e-4)
    assert double_pair_probability(5e6, 2e-9) < 1e-2
    assert double_pair_probability(1.1e5, 2e-9) == pytest.approx(2.4196e-8, rel=1e-4)


def test_double_pair_probability_monotone():
    rates = np.linspace(0, 5e7, 40)
    values = [double_pair_probability(r, 2e-9) for r in rates]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2


def test_sampling_is_deterministic():
    means = scan_means([1.0, 1.0, 0.9], config_with(), 10)
    first = sample_scan(means, 99)
    assert np.array_equal(sample_scan(means, 99), first)


def test_different_points_and_seeds_differ():
    cfg = config_with()
    a, b = sample_scan(scan_means(ONES, cfg, 2), 7).T.tolist()
    other = sample_point(ONES, cfg, 8)
    assert a[:2] != b[:2] or a != other


def test_zero_model_baseline_degenerates_to_flat_calibrated_rates():
    counts_a, _, coincidences = sample_point(np.zeros(3), config_with(), 123, baseline=np.zeros(3))
    # degenerate calibration keeps the detectors at their calibrated
    # baselines but produces no true coincidences
    assert counts_a > 0
    assert coincidences <= 20  # accidentals only, rate 9.24/s * 0.5 s


def test_mean_within_three_sigma_over_1000_draws():
    draws = sample_scan(scan_means(ONES, config_with(), 1000), 2024)[0]
    mean = 42000 * 0.5
    bound = 3 * math.sqrt(mean) / math.sqrt(1000)
    assert abs(draws.mean() - mean) < bound


def test_mean_and_variance_at_five_sigma_over_1e4_draws():
    draws = sample_scan(scan_means(ONES, config_with(rate_a_cal=2000.0), 10_000), 31337)[0]
    mu = 2000.0 * 0.5
    n = len(draws)
    assert abs(draws.mean() - mu) < 5 * math.sqrt(mu / n)
    var_se = math.sqrt((mu + 2 * mu * mu) / n)
    assert abs(draws.var(ddof=1) - mu) < 5 * var_se


def test_accidentals_expected_value():
    cfg = config_with(rate_a_cal=42e3, rate_b_cal=110e3, window=2e-9)
    accidentals_expected = scan_means(ONES, cfg)[3, 0]
    assert accidentals_expected == pytest.approx(9.24 * 0.5, rel=1e-9)


def test_overflow_guard():
    # accidentals, r_a r_b window dwell, would pass the sampler's limit from in-range
    # values; the config's window rule refuses them
    message = r"^detectors\.window_ns holds 2e\+03 counts per window at the larger of "
    with pytest.raises(ConfigError, match=message):
        config_with(rate_a_cal=1e12, rate_b_cal=1e12, dwell=1e4)
    # the rule's edge: below one count per window, the largest window, is allowed
    largest = math.nextafter(1 / MAX_RATE, 0.0)
    config_with(rate_a_cal=MAX_RATE, rate_b_cal=MAX_RATE, window=largest)
    with pytest.raises(ConfigError, match=r"^detectors\.window_ns holds 1 counts per window "):
        config_with(rate_a_cal=MAX_RATE, rate_b_cal=MAX_RATE, window=math.nextafter(largest, 1.0))


def test_the_largest_expected_count_a_config_admits_is_below_2_62():
    # The largest rates, window and dwell the rules admit, over the corners of the
    # gains, eta and the splitter, at every fringe phase: the largest expected
    # count, and the coincidences' sum of true and accidental counts, stay below
    # 2**62, so the sampler's int64 draws and their sum are representable.
    window = math.nextafter(1 / MAX_RATE, 0.0)
    gains = [1e-9, 1e-3, math.nextafter(MAX_GAIN, 0.0)]
    largest = 0.0
    for gain1, gain2, eta, ratio in itertools.product(gains, gains, [0.0, 0.5, 1.0],
                                                      [MIN_SPLITTER_FRACTION, 0.25, 0.5, 0.75,
                                                       1.0 - MIN_SPLITTER_FRACTION]):
        cfg = config_with(gain1=gain1, gain2=gain2, eta=eta, splitter_ratio=ratio, rate_a_cal=MAX_RATE,
                          rate_b_cal=MAX_RATE, window=window, dwell=MAX_SECONDS)
        model = compile_model(cfg)
        rates = model.monochromatic(0.0, np.linspace(0.0, cfg.signal_filter_center, 1001))
        means = count_means(detected(rates, model.baseline, MAX_RATE, MAX_RATE), window, MAX_SECONDS)
        largest = max(largest, means.max(), (means[2] + means[3]).max())
    # a coincidence fringe of visibility 1 at the largest gains, 2.04e18, plus 2e18 accidentals
    assert largest == pytest.approx(4.04 * MAX_RATE * MAX_SECONDS, rel=1e-6)
    assert largest < 2**62


def _scalar_rates(rates, cfg, baseline):
    """Counts/s (A, B, true coincidences) of one point by scalar calibration."""
    p_a, p_b, p_ab = rates
    base_a, base_b = baseline[:2].tolist()
    return (
        cfg.rate_a_cal * p_a / base_a,
        cfg.rate_b_cal * p_b / base_b,
        cfg.rate_a_cal * p_ab / base_a,
    )


@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_scan_sampler_matches_one_philox_stream(axis):
    cfg = config_with(axis=axis)
    record = run_scan(cfg, 99)
    assert record.counts.shape == (3, 401)
    model = compile_model(cfg)
    delays = {"delta_x_p" if axis == "pump" else "delta_x_s": record.delays}
    points = list(zip(*model.rates(**delays).tolist()))
    rates = np.array([_scalar_rates(p, cfg, model.baseline) for p in points]).T
    assert np.array_equal(record.rates, rates)

    # the reference draws the same means, rows A, B, true coincidences and
    # accidentals, from a Philox generator keyed (seed, 0)
    dwell = cfg.dwell
    means = np.array([
        (r_a * dwell, r_b * dwell, r_true * dwell, accidental_rate(r_a, r_b, cfg.window) * dwell)
        for r_a, r_b, r_true in zip(*rates.tolist())
    ]).T
    key = np.array([99, 0], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key)).poisson(means)
    assert np.array_equal(record.counts, [draws[0], draws[1], draws[2] + draws[3]])
    # another seed: same rates, other counts
    other = run_scan(cfg, 100)
    assert np.array_equal(other.rates, record.rates)
    assert np.mean(other.counts[:2] != record.counts[:2]) > 0.9
