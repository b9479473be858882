"""Vacuum expectation values for the two-crystal interferometer.

Signal singles <a_s^+ a_s>, idler singles, and coincidences
<a_s^+ a_i^+ a_i a_s>, exact on the vacuum for the channels of ``operators``,
in units of |K|^2; calibration to count rates is the counting module's job.
The chain is composed once per config with the delays as the symbols u_p and
u_s, and :func:`fringe_law` contracts it at no delay setting into each rate's
Laurent polynomial in the phasors: B + Re(A e^{i dphi}), or it raises.  It is
plain Python and imports only ``config`` and ``operators``: the one caller of
:func:`fringe_law`, ``spectral.compile_model``, evaluates the law at delays
with numpy.
"""

from __future__ import annotations

from .config import ExperimentConfig

# Imported by name so a tracer can wrap them in this namespace (benchmarks/tracing.py).
from .operators import IO1, PUMP, SIGNAL, SO1, SO2, Channel
from .operators import adjoint, attenuate, beam_splitter, free_mode, phase_delay, spdc

RATE_NAMES = ("p_a", "p_b", "p_ab")
FRINGE = (1, -1)  # u_p conj(u_s) as exponents (n_p, n_s): e^{i dphi}
LAW = ((0, 0), FRINGE, (-1, 1))  # the monomials of B + Re(A e^{i dphi})


def setup_operators(config: ExperimentConfig) -> tuple[Channel, Channel]:
    """The detected signal port and the idler after both crystals, composed once for
    ``config`` with the delays as symbols: SPDC in crystal 1, the idler link (amplitude
    eta), SPDC in crystal 2 with u_p (PUMP) on its gain, u_s (SIGNAL) on arm 1, and
    the output splitter; a few dozen complex products, whatever the number of settings.
    """
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), complex(config.gain1))
    link = attenuate(i1, config.eta)
    s2, i2 = spdc(free_mode(SO2), link, complex(config.gain2), PUMP)
    out_a, _camera = beam_splitter(s2, phase_delay(s1, SIGNAL), config.splitter_ratio)
    return out_a, i2


def _overlap(x: Channel, y: Channel) -> dict:
    """<x, y>: x's creation row times the conjugate of y's, summed over the modes,
    as a Laurent polynomial {(n_p, n_s): coefficient}; on the unit circle
    conj(u_p^n_p u_s^n_s) is u_p^-n_p u_s^-n_s."""
    out = {}
    for row, mode, n_p, n_s, c in x:
        if row:
            for row_y, mode_y, m_p, m_s, d in y:
                if row_y and mode == mode_y:
                    out[n_p - m_p, n_s - m_s] = out.get((n_p - m_p, n_s - m_s), 0j) + c * d.conjugate()
    return out


def _product(a: dict, b: dict, out: dict) -> dict:
    """out + a * b of Laurent polynomials."""
    for (a_p, a_s), c in a.items():
        for (b_p, b_s), d in b.items():
            out[a_p + b_p, a_s + b_s] = out.get((a_p + b_p, a_s + b_s), 0j) + c * d
    return out


def fringe_law(s: Channel, i: Channel) -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """(B, A), each over (p_a, p_b, p_ab), of detected signal ``s`` and idler ``i``.

    p_a = <s, s>, p_b = <i, i> and p_ab = || i s |0> ||^2 = <s, i^+><i^+, s>
    + p_a p_b + <i, s><s, i>: the vacuum amplitude, then the double pairs.
    B is a rate's coefficient of 1 and A twice its coefficient of u_p conj(u_s);
    ValueError if any other monomial has a non-zero coefficient.
    """
    i_dag = adjoint(i)
    p_a, p_b = _overlap(s, s), _overlap(i, i)
    p_ab = _product(_overlap(s, i_dag), _overlap(i_dag, s), {})
    rates = (p_a, p_b, _product(_overlap(i, s), _overlap(s, i), _product(p_a, p_b, p_ab)))
    for name, poly in zip(RATE_NAMES, rates):
        for (n_p, n_s), c in poly.items():
            if c and (n_p, n_s) not in LAW:
                raise ValueError(f"rate {name} has a stray u_p^{n_p} u_s^{n_s} term {c!r}")
    base = tuple(poly.get((0, 0), 0j).real for poly in rates)
    return base, tuple(2.0 * poly.get(FRINGE, 0j) for poly in rates)
