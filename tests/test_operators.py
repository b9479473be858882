import cmath
import math
import random

import numpy as np
import pytest

from icohsim.operators import (
    ANC,
    IO1,
    SO1,
    SO2,
    BeamSplitterParams,
    attenuate,
    beam_splitter,
    free_mode,
    phase_delay,
    spdc,
)


def commutator_norm(x):
    """[x, x^+] = sum |annihilation|^2 - sum |creation|^2 for a linear channel."""
    return float(np.sum(np.abs(x[0]) ** 2) - np.sum(np.abs(x[1]) ** 2))


def unit(*entries):
    """Channel with the given (row, mode, coefficient) entries."""
    x = np.zeros((2, 4), dtype=complex)
    for row, mode, coef in entries:
        x[row, mode] = coef
    return x


def random_channel(rng, modes=(SO1, SO2, IO1)):
    x = np.zeros((2, 4), dtype=complex)
    for mode in modes:
        for row in (0, 1):
            if rng.random() < 0.7:
                x[row, mode] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return x


def test_spdc_first_crystal_structure():
    k = 0.01
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), k)
    np.testing.assert_array_equal(s1, unit((0, SO1, 1.0), (1, IO1, 1j * k)))
    np.testing.assert_array_equal(i1, unit((0, IO1, 1.0), (1, SO1, 1j * k)))


def test_spdc_zero_gain_is_identity():
    s, i = spdc(free_mode(SO1), free_mode(IO1), 0.0)
    np.testing.assert_array_equal(s, free_mode(SO1))
    np.testing.assert_array_equal(i, free_mode(IO1))


def test_spdc_cascade_reproduces_second_crystal_form():
    k1, k2 = 0.008, 0.011
    phi_p = 0.83
    gain2 = k2 * cmath.exp(1j * phi_p)
    _, i1 = spdc(free_mode(SO1), free_mode(IO1), k1)
    s2, i2 = spdc(free_mode(SO2), i1, gain2)

    # the second signal carries the idler creator and, at order K1*K2, an so1
    # annihilator that no detected rate pairs with
    np.testing.assert_allclose(s2[0], [gain2 * k1, 1.0, 0.0, 0.0], rtol=1e-15)
    np.testing.assert_allclose(s2[1], [0.0, 0.0, 1j * gain2, 0.0], rtol=1e-15)
    np.testing.assert_array_equal(i2[0], free_mode(IO1)[0])
    np.testing.assert_allclose(i2[1], [1j * k1, 1j * gain2, 0.0, 0.0], rtol=1e-15)


def test_spdc_rejects_large_gain():
    with pytest.raises(ValueError, match="perturbative"):
        spdc(free_mode(SO1), free_mode(IO1), 0.2)
    with pytest.raises(ValueError, match="perturbative"):
        spdc(free_mode(SO1), free_mode(IO1), 0.1j)


@pytest.mark.parametrize(
    "delta_x, factor",
    [
        (808e-9, 1.0 + 0j),
        (202e-9, 1j),
        (404e-9, -1.0 + 0j),
    ],
)
def test_phase_delay_special_fractions(delta_x, factor):
    x, _ = spdc(free_mode(SO1), free_mode(IO1), 0.02)
    delayed = phase_delay(x, delta_x, 808e-9)
    np.testing.assert_allclose(delayed, factor * x, atol=1e-15)


def test_phase_delay_preserves_moduli_and_commutator():
    rng = random.Random(11)
    x = random_channel(rng)
    delayed = phase_delay(x, 137e-9, 808e-9)
    assert commutator_norm(delayed) == pytest.approx(commutator_norm(x), abs=1e-12)
    np.testing.assert_allclose(np.abs(delayed), np.abs(x), rtol=1e-12)


def test_phase_delay_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        phase_delay(free_mode(SO1), 1e-9, 0.0)


def test_beam_splitter_matches_output_port_form():
    # out1 = t*a_s2 + r*a_s1*exp(i phi_s): the recombined signal port.
    k = 0.009
    phi_s = 0.41
    s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
    s2, _ = spdc(free_mode(SO2), free_mode(IO1), k)
    bs = BeamSplitterParams.from_transmitted_fraction(0.5)
    out1, _ = beam_splitter(s2, phase_delay(s1, phi_s / (2 * math.pi) * 808e-9, 808e-9), bs)
    expected = 1j * k * (bs.t + bs.r * cmath.exp(1j * phi_s))
    assert out1[1, IO1] == pytest.approx(expected)


def test_beam_splitter_transparent():
    x = free_mode(SO1)
    out1, out2 = beam_splitter(x, np.zeros_like(x), BeamSplitterParams(1.0, 0.0))
    np.testing.assert_array_equal(out1, x)
    assert not np.any(out2)


def test_beam_splitter_conserves_commutator_norm():
    rng = random.Random(5)
    for _ in range(25):
        a = random_channel(rng, modes=(SO1, IO1))
        b = random_channel(rng, modes=(SO2, ANC))
        bs = BeamSplitterParams.from_transmitted_fraction(rng.uniform(0.05, 0.95))
        out1, out2 = beam_splitter(a, b, bs)
        assert commutator_norm(out1) + commutator_norm(out2) == pytest.approx(
            commutator_norm(a) + commutator_norm(b), abs=1e-12
        )


def test_beam_splitter_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        BeamSplitterParams(0.9, 0.9)


def test_attenuate_limits():
    _, i1 = spdc(free_mode(SO1), free_mode(IO1), 0.01)
    np.testing.assert_array_equal(attenuate(i1, 1.0), i1)
    np.testing.assert_array_equal(attenuate(i1, 0.0), free_mode(ANC))


def test_attenuate_partial_structure():
    out = attenuate(free_mode(IO1), 0.7)
    assert out[0, IO1] == pytest.approx(0.7)
    assert out[0, ANC] == pytest.approx(math.sqrt(0.51))
    assert not np.any(out[1])
    assert commutator_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_attenuate_preserves_canonical_commutator():
    for t in (0.0, 0.3, 0.777, 1.0):
        out = attenuate(free_mode(IO1), t)
        assert commutator_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_attenuate_rejects_bad_input():
    with pytest.raises(ValueError, match="out of"):
        attenuate(free_mode(IO1), 1.2)
    mixed = attenuate(free_mode(IO1), 0.5)
    with pytest.raises(ValueError, match="already present"):
        attenuate(mixed, 0.5)


def test_commutator_norm_of_spdc_output():
    for k in (1e-4, 0.003, 0.05):
        s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
        assert commutator_norm(s1) == pytest.approx(1.0 - k * k, abs=1e-12)


def test_dagger_is_involution():
    # spdc adds i*K times the partner's adjoint (rows swapped, conjugated);
    # recovering that adjoint twice gives the partner back
    rng = random.Random(23)
    k = 1.0 / 32.0
    zero = np.zeros((2, 4), dtype=complex)

    def adjoint(x):
        return spdc(zero, x, k)[0] / (1j * k)

    for _ in range(20):
        x = random_channel(rng)
        np.testing.assert_allclose(adjoint(x), x[::-1].conj(), rtol=1e-15)
        np.testing.assert_allclose(adjoint(adjoint(x)), x, rtol=1e-15)


def test_operations_are_linear():
    rng = random.Random(31)
    a = random_channel(rng, modes=(SO1,))
    b = random_channel(rng, modes=(IO1,))
    scale = complex(0.3, -1.1)
    lhs = phase_delay(a + scale * b, 55e-9, 808e-9)
    rhs = phase_delay(a, 55e-9, 808e-9) + scale * phase_delay(b, 55e-9, 808e-9)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

