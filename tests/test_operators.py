import cmath
import math
import random

import numpy as np
import pytest

from icohsim.operators import (
    ANC,
    IO1,
    PUMP,
    SIGNAL,
    SO1,
    SO2,
    adjoint,
    attenuate,
    beam_splitter,
    free_mode,
    phase_delay,
    spdc,
)

from conftest import dense


def terms(x):
    """The channel's coefficients by (row, mode, n_p, n_s), like terms added."""
    out = {}
    for row, mode, n_p, n_s, c in x:
        out[row, mode, n_p, n_s] = out.get((row, mode, n_p, n_s), 0) + c
    return out


def commutator_norm(x):
    """[x, x^+] = sum |annihilation|^2 - sum |creation|^2 for a linear channel at one setting."""
    return float(np.sum(np.abs(x[0]) ** 2) - np.sum(np.abs(x[1]) ** 2))


def unit(*entries):
    """(2, 4) coefficient array with the given (row, mode, coefficient) entries."""
    x = np.zeros((2, 4), dtype=complex)
    for row, mode, coef in entries:
        x[row, mode] = coef
    return x


def random_channel(rng, modes=(SO1, SO2, IO1)):
    """Random terms on ``modes``, with phasor exponents from -1 to 1."""
    x = []
    for mode in modes:
        for row in (0, 1):
            if rng.random() < 0.7:
                monomial = (rng.randint(-1, 1), rng.randint(-1, 1))
                x.append((row, mode, *monomial, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return x


def random_phasors(rng):
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi)), cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def test_spdc_first_crystal_structure():
    k = 0.01
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), k)
    assert terms(s1) == {(0, SO1, 0, 0): 1.0, (1, IO1, 0, 0): 1j * k}
    assert terms(i1) == {(0, IO1, 0, 0): 1.0, (1, SO1, 0, 0): 1j * k}


def test_spdc_zero_gain_is_identity():
    s, i = spdc(free_mode(SO1), free_mode(IO1), 0.0)
    np.testing.assert_array_equal(dense(s), dense(free_mode(SO1)))
    np.testing.assert_array_equal(dense(i), dense(free_mode(IO1)))


def test_spdc_cascade_reproduces_second_crystal_form():
    k1, k2 = 0.008, 0.011
    phi_p = 0.83
    u_p = cmath.exp(1j * phi_p)
    gain2 = k2 * u_p
    _, i1 = spdc(free_mode(SO1), free_mode(IO1), k1)
    s2, i2 = spdc(free_mode(SO2), i1, k2, PUMP)

    # the second crystal's gain carries the pump phasor as a symbol
    assert terms(s2) == {(0, SO2, 0, 0): 1.0, (1, IO1, *PUMP): 1j * k2, (0, SO1, *PUMP): k2 * k1}
    # the second signal carries the idler creator and, at order K1*K2, an so1
    # annihilator that no detected rate pairs with
    s2, i2 = dense(s2, u_p=u_p), dense(i2, u_p=u_p)
    np.testing.assert_allclose(s2[0], [gain2 * k1, 1.0, 0.0, 0.0], rtol=1e-15)
    np.testing.assert_allclose(s2[1], [0.0, 0.0, 1j * gain2, 0.0], rtol=1e-15)
    np.testing.assert_array_equal(i2[0], dense(free_mode(IO1))[0])
    np.testing.assert_allclose(i2[1], [1j * k1, 1j * gain2, 0.0, 0.0], rtol=1e-15)


@pytest.mark.parametrize("delta_x, factor", [(808e-9, 1.0 + 0j), (202e-9, 1j), (404e-9, -1.0 + 0j)])
def test_phase_delay_special_fractions(delta_x, factor):
    # a delay of a whole, a quarter and a half wavelength multiplies by 1, i and -1
    x, _ = spdc(free_mode(SO1), free_mode(IO1), 0.02)
    u_s = cmath.exp(2j * math.pi * delta_x / 808e-9)
    delayed = dense(phase_delay(x, SIGNAL), u_s=u_s)
    np.testing.assert_allclose(delayed, factor * dense(x), atol=1e-15)
    assert terms(phase_delay(x, SIGNAL)) == {(row, mode, 0, 1): c for (row, mode, _, _), c in terms(x).items()}


def test_phase_delay_preserves_moduli_and_commutator():
    rng = random.Random(11)
    x = random_channel(rng)
    for _ in range(10):
        u_p, u_s = random_phasors(rng)
        delayed = dense(phase_delay(x, SIGNAL), u_p, u_s)
        before = dense(x, u_p, u_s)
        assert commutator_norm(delayed) == pytest.approx(commutator_norm(before), abs=1e-12)
        np.testing.assert_allclose(np.abs(delayed), np.abs(before), rtol=1e-12)


def test_beam_splitter_matches_output_port_form():
    # out1 = t*a_s2 + r*a_s1*exp(i phi_s): the recombined signal port.
    k = 0.009
    phi_s = 0.41
    s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
    s2, _ = spdc(free_mode(SO2), free_mode(IO1), k)
    out1, _ = beam_splitter(s2, phase_delay(s1, SIGNAL), 0.5)
    t = r = math.sqrt(0.5)
    expected = 1j * k * (t + r * cmath.exp(1j * phi_s))
    assert dense(out1, u_s=cmath.exp(1j * phi_s))[1, IO1] == pytest.approx(expected)


def test_beam_splitter_transparent():
    x = free_mode(SO1)
    out1, out2 = beam_splitter(x, [], 1.0)
    np.testing.assert_array_equal(dense(out1), dense(x))
    assert not np.any(dense(out2))


def test_beam_splitter_conserves_commutator_norm():
    rng = random.Random(5)
    for _ in range(25):
        a = random_channel(rng, modes=(SO1, IO1))
        b = random_channel(rng, modes=(SO2, ANC))
        out1, out2 = beam_splitter(a, b, rng.uniform(0.05, 0.95))
        u = random_phasors(rng)
        before = commutator_norm(dense(a, *u)) + commutator_norm(dense(b, *u))
        assert commutator_norm(dense(out1, *u)) + commutator_norm(dense(out2, *u)) == pytest.approx(
            before, abs=1e-12
        )


def test_attenuate_limits():
    _, i1 = spdc(free_mode(SO1), free_mode(IO1), 0.01)
    np.testing.assert_array_equal(dense(attenuate(i1, 1.0)), dense(i1))
    np.testing.assert_array_equal(dense(attenuate(i1, 0.0)), dense(free_mode(ANC)))


def test_attenuate_partial_structure():
    out = dense(attenuate(free_mode(IO1), 0.7))
    assert out[0, IO1] == pytest.approx(0.7)
    assert out[0, ANC] == pytest.approx(math.sqrt(0.51))
    assert not np.any(out[1])
    assert commutator_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_attenuate_preserves_canonical_commutator():
    for t in (0.0, 0.3, 0.777, 1.0):
        out = dense(attenuate(free_mode(IO1), t))
        assert commutator_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_commutator_norm_of_spdc_output():
    for k in (1e-4, 0.003, 0.05):
        s1, _ = spdc(free_mode(SO1), free_mode(IO1), k)
        assert commutator_norm(dense(s1)) == pytest.approx(1.0 - k * k, abs=1e-12)


def test_dagger_is_involution():
    # x^+ swaps the rows and conjugates, phasors included; at any setting it is
    # the swapped, conjugated coefficient array, and twice it is x again.  spdc
    # adds i*K times the partner's adjoint.
    rng = random.Random(23)
    k = 1.0 / 32.0
    for _ in range(20):
        x = random_channel(rng)
        assert terms(adjoint(adjoint(x))) == terms(x)
        u = random_phasors(rng)
        np.testing.assert_allclose(dense(adjoint(x), *u), dense(x, *u)[::-1].conj(), rtol=1e-15)
        assert terms(spdc([], x, k)[0]) == terms(adjoint(x, 1j * k))
        assert terms(spdc([], x, k, PUMP)[0]) == terms(adjoint(x, 1j * k, PUMP))


def test_operations_are_linear():
    # phase_delay is linear, the splitter's port and crystal 2's signal output
    # are affine in one input, and the adjoint is antilinear
    rng = random.Random(31)
    a = random_channel(rng, modes=(SO1,))
    b = random_channel(rng, modes=(IO1,))
    scale = complex(0.3, -1.1)
    combined = a + [(row, mode, n_p, n_s, scale * c) for row, mode, n_p, n_s, c in b]
    u = random_phasors(rng)
    affine = (
        lambda x: phase_delay(x, PUMP),
        lambda x: beam_splitter(x, free_mode(SO2), 0.3)[0],
        lambda x: spdc(x, free_mode(IO1), 0.02, PUMP)[0],
    )
    for op in affine:
        lhs = dense(op(combined), *u) - dense(op([]), *u)
        rhs = dense(op(a), *u) + scale * dense(op(b), *u) - (1 + scale) * dense(op([]), *u)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)
    lhs = dense(adjoint(combined), *u)
    rhs = dense(adjoint(a), *u) + scale.conjugate() * dense(adjoint(b), *u)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_repeated_terms_add():
    x = [(1, IO1, 1, 0, 0.25j), (1, IO1, 1, 0, 0.5j), (0, SO1, 0, 0, 1.0)]
    assert terms(x) == {(1, IO1, 1, 0): 0.75j, (0, SO1, 0, 0): 1.0}
    np.testing.assert_array_equal(dense(x, u_p=1j), unit((1, IO1, -0.75), (0, SO1, 1.0)))
