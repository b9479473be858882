import math
import random

import numpy as np
import pytest

from icohsim.counting import (
    CountingConfig,
    accidental_rate,
    calibrate,
    count_means,
    double_pair_probability,
    point_rng,
    sample_counts,
    sample_scan,
)
from icohsim.expectation import RatePrediction
from icohsim.scan import run_scan
from icohsim.spectral import compile_model

from conftest import config_with


def calibrated(seed=123, dwell=0.5, baseline=RatePrediction(1.0, 1.0, 1.0), **kw):
    cc = CountingConfig(seed=seed, dwell=dwell, **kw)
    return calibrate(cc, baseline)


def test_accidental_rate_values():
    assert accidental_rate(42e3, 110e3, 2e-9) == 42000.0 * 110000.0 * 2e-9
    assert accidental_rate(42e3, 110e3, 2e-9) == pytest.approx(9.24, rel=1e-12)
    assert accidental_rate(0.0, 5e6, 1e-9) == 0.0
    assert accidental_rate(1e6, 1e6, 1e-9) == pytest.approx(1e3)
    with pytest.raises(ValueError):
        accidental_rate(-1.0, 1.0, 1e-9)


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


def test_sampling_requires_calibration():
    cc = CountingConfig(seed=1)
    with pytest.raises(ValueError, match="calibrat"):
        sample_counts(RatePrediction(1.0, 1.0, 1.0), cc, 0)


def test_sampling_is_deterministic_and_order_free():
    cc = calibrated(seed=99)
    rates = RatePrediction(1.0, 1.0, 0.9)
    forward = [sample_counts(rates, cc, i) for i in range(10)]
    backward = [sample_counts(rates, cc, i) for i in reversed(range(10))]
    assert forward == backward[::-1]
    again = [sample_counts(rates, cc, i) for i in range(10)]
    assert forward == again


def test_different_points_and_seeds_differ():
    cc = calibrated(seed=7)
    rates = RatePrediction(1.0, 1.0, 1.0)
    a = sample_counts(rates, cc, 0)
    b = sample_counts(rates, cc, 1)
    other = sample_counts(rates, calibrated(seed=8), 0)
    assert (a.counts_a, a.counts_b) != (b.counts_a, b.counts_b) or a != other


def test_zero_model_baseline_degenerates_to_flat_calibrated_rates():
    cc = calibrated(baseline=RatePrediction(0.0, 0.0, 0.0))
    s = sample_counts(RatePrediction(0.0, 0.0, 0.0), cc, 3)
    # degenerate calibration keeps the detectors at their calibrated
    # baselines but produces no true coincidences
    assert s.counts_a > 0
    assert s.coincidences <= 20  # accidentals only, rate 9.24/s * 0.5 s


def test_mean_within_three_sigma_over_1000_draws():
    cc = calibrated(seed=2024)
    rates = RatePrediction(1.0, 1.0, 1.0)
    draws = np.array([sample_counts(rates, cc, i).counts_a for i in range(1000)])
    mean = 42000 * 0.5
    bound = 3 * math.sqrt(mean) / math.sqrt(1000)
    assert abs(draws.mean() - mean) < bound


def test_mean_and_variance_at_five_sigma_over_1e4_draws():
    cc = calibrated(seed=31337, rate_a_cal=2000.0)
    rates = RatePrediction(1.0, 1.0, 1.0)
    draws = np.array([sample_counts(rates, cc, i).counts_a for i in range(10_000)])
    mu = 2000.0 * 0.5
    n = len(draws)
    assert abs(draws.mean() - mu) < 5 * math.sqrt(mu / n)
    var_se = math.sqrt((mu + 2 * mu * mu) / n)
    assert abs(draws.var(ddof=1) - mu) < 5 * var_se


def test_accidentals_expected_value():
    cc = calibrated(seed=5, rate_a_cal=42e3, rate_b_cal=110e3, window=2e-9)
    s = sample_counts(RatePrediction(1.0, 1.0, 1.0), cc, 0)
    assert s.accidentals_expected == pytest.approx(9.24 * 0.5, rel=1e-9)


def test_overflow_guard():
    cc = calibrated(rate_a_cal=1e30)
    with pytest.raises(OverflowError):
        sample_counts(RatePrediction(1.0, 1.0, 1.0), cc, 0)


def test_point_rng_rejects_negative_index():
    with pytest.raises(ValueError):
        point_rng(1, -1)


def test_counting_config_validation():
    with pytest.raises(ValueError):
        CountingConfig(rate_a_cal=0.0)
    with pytest.raises(ValueError):
        CountingConfig(window=-1e-9)


def _fresh_stream_counts(rates, cc, index):
    """One point drawn the per-point way: scalar calibration, a fresh stream."""
    r_a = cc.rate_a_cal * rates.p_a / cc.baseline_a
    r_b = cc.rate_b_cal * rates.p_b / cc.baseline_b
    r_true = cc.rate_a_cal * rates.p_ab / cc.baseline_a
    rng = point_rng(cc.seed, index)
    counts_a = int(rng.poisson(r_a * cc.dwell))
    counts_b = int(rng.poisson(r_b * cc.dwell))
    true_coinc = int(rng.poisson(r_true * cc.dwell))
    accidentals = int(rng.poisson(accidental_rate(r_a, r_b, cc.window) * cc.dwell))
    return (r_a, r_b, r_true), (counts_a, counts_b, true_coinc + accidentals)


@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_scan_sampler_matches_fresh_point_streams(axis):
    cfg = config_with(axis=axis, seed=99)
    record = run_scan(cfg)
    assert record.counts.shape == (3, 401)
    model = compile_model(cfg)
    cc = calibrate(cfg.detectors, model.baseline)
    delays = {"delta_x_p" if axis == "pump" else "delta_x_s": record.delays}
    points = [RatePrediction(*p) for p in zip(*model.rates(**delays).tolist())]

    # the reference draws points in a shuffled order, each from its own stream
    order = list(range(len(points)))
    random.Random(3).shuffle(order)
    reference = {i: _fresh_stream_counts(points[i], cc, i) for i in order}
    rates = np.array([reference[i][0] for i in range(len(points))]).T
    counts = np.array([reference[i][1] for i in range(len(points))]).T
    assert np.array_equal(record.rates, rates)
    assert np.array_equal(record.counts, counts)

    one_by_one = [sample_counts(p, cc, i) for i, p in enumerate(points)]
    assert [(s.counts_a, s.counts_b, s.coincidences) for s in one_by_one] == list(
        zip(*counts.tolist())
    )
    # a tail of the scan sampled on its own draws the same counts
    tail = sample_scan(count_means(record.rates[:, 150:], cc), cc.seed, 150)
    assert np.array_equal(tail, record.counts[:, 150:])
    # another seed: same rates, other counts
    other = run_scan(config_with(axis=axis, seed=100))
    assert np.array_equal(other.rates, record.rates)
    assert np.mean(other.counts[:2] != record.counts[:2]) > 0.9
