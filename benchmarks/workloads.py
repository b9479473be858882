"""The three benchmark workloads: inputs made from the seed, and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  An operation is a fixed sequence of CLI
invocations (argv lists for ``icohsim.cli.main``) on real files in a work
directory; inputs are written before the operation is timed and outputs are
checked after it.  Operations come in cycles so that every run covers the
same mix of input sizes; a run always ends on a cycle boundary.  ``CYCLE_S``
is the usual wall time of one pass over a cycle on the 2-vCPU Intel Xeon
(2.0 GHz) host the benchmark was defined on; a run's cycle count is derived
from it.  ``PASSES`` is how many times over an untraced run does each cycle:
an operation's time is its least over the passes, and its inputs must then
be the same on every pass.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGNAL_NM = 808.0
PUMP_NM = 355.0
PERIOD_TOLERANCE_M = 1e-9  # criteria 03 and 04
ORACLE_TOLERANCE = 1e-6  # criterion 08: low-gain bound 1e-3, squared
# The known criterion-08 excess on random configs (see README.md): p_ab off
# the oracle by up to 3.98 K^2 over 600 configs, p_a and p_b by up to 2.0 K^2.
# Only a p_ab excess within KNOWN_PAB_COEFFICIENT * K^2, on at most
# KNOWN_RATE of the operations plus KNOWN_SLACK, counts as that finding.
KNOWN_FAILURE = "known criterion-08 excess"
KNOWN_PAB_COEFFICIENT = 4.05
KNOWN_RATE = 0.03
KNOWN_SLACK = 2
CSV_HEADER = "delay_m,rate_a_hz,rate_b_hz,coinc_hz,counts_a,counts_b,coinc_counts"


@dataclass
class Job:
    """One prepared operation: the CLI calls to time and the output check."""

    calls: list[list[str]]
    check: Callable[[], list[str]]  # failure reasons; empty when correct


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _period_failures(fit_path: str, expected_m: float) -> list[str]:
    fit = _read_json(fit_path)
    error = abs(fit["period_m"] - expected_m)
    if not error <= PERIOD_TOLERANCE_M:
        return [f"period: {os.path.basename(fit_path)} is {error * 1e9:.3g} nm off {expected_m * 1e9:.4f} nm"]
    return []


class Campaign:
    """The paper's Monte-Carlo study: seeded simulate, then both fits.

    One operation is a signal-axis scan (default config, +-2 um, 401 points)
    and a pump-axis scan (+-1 um, 201 points), each simulated and then fitted
    on the singles and on the coincidence channel.  The two axes cost about
    2:1, so pairing them in one operation keeps the latency distribution
    unimodal and its median steady.
    """

    name = "campaign"
    window_ops = 2
    CYCLE_S = 1.0
    PASSES = 1
    SCANS = (
        ("signal", "[scan]\naxis = signal\nstart_um = -2\nstop_um = 2\nstep_nm = 10\n", SIGNAL_NM),
        ("pump", "[scan]\naxis = pump\nstart_um = -1\nstop_um = 1\nstep_nm = 10\n", PUMP_NM),
    )

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.configs = {}
        for axis, text, _ in self.SCANS:
            path = os.path.join(workdir, f"{axis}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.configs[axis] = path
        self.first_config = self.configs["signal"]

    def cycle(self) -> list:
        return [(self.rng.randrange(2**32), self.rng.randrange(2**32))]

    def prepare(self, seeds) -> Job:
        calls, checks = [], []
        for (axis, _, period_nm), seed in zip(self.SCANS, seeds):
            config = self.configs[axis]
            scan = os.path.join(self.workdir, f"{axis}.csv")
            common = ["--config", config, "--quiet"]
            calls.append(["simulate", *common, "--seed", str(seed), "--out", scan])
            for channel in ("singles", "coincidence"):
                out = os.path.join(self.workdir, f"{axis}-{channel}.json")
                calls.append(["fit", scan, *common, "--channel", channel, "--out", out])
                checks.append((out, period_nm * 1e-9))

        def check() -> list[str]:
            return [reason for out, period in checks for reason in _period_failures(out, period)]

        return Job(calls, check)


class Refit:
    """Fits only: count CSVs synthesized by the benchmark's own numpy model.

    Each cycle holds 16 grid sizes evenly spaced from 401 to 4001 points
    (10 nm steps), in a seeded order.  Fit cost grows with the grid, so the
    latency distribution is spread evenly rather than clustered, and its
    median does not fall in a gap between size classes.  Consecutive sizes
    take turns through the four combinations of period (signal-like near
    808 nm, pump-like near 355 nm) and envelope (resolved: FWHM 0.3-0.6 of
    the span; unresolved: 20-100 spans, so the fit reports a lower bound).
    The data are B(1 + V env cos(2 pi x / L + phi)) with Poisson noise, never
    the engine's output, so engine changes cannot move this workload.
    """

    name = "refit"
    window_ops = 16
    CYCLE_S = 1.35
    PASSES = 1
    SIZES = tuple(range(401, 4002, 240))
    KINDS = tuple(itertools.product((SIGNAL_NM, PUMP_NM), ("resolved", "unresolved")))
    STEP_NM = 10
    # At 5 s per point the fit's own period uncertainty is at most 0.13 nm
    # (401-point signal-like scan, resolved envelope, coincidences), so the
    # 1 nm check is a 7-sigma test of the fitter, not of the noise draw.
    DWELL_S = 5.0

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.noise = np.random.Generator(np.random.PCG64(seed))
        self.workdir = workdir
        self.first_config = os.path.join(workdir, "refit.ini")
        with open(self.first_config, "w", encoding="utf-8") as fh:
            fh.write(f"[scan]\ndwell_s = {self.DWELL_S}\n")
        self.csv = os.path.join(workdir, "refit.csv")

    def cycle(self) -> list:
        combos = [(n, *self.KINDS[k % len(self.KINDS)]) for k, n in enumerate(self.SIZES)]
        self.rng.shuffle(combos)
        return combos

    def _synthesize(self, points: int, period_nm: float, envelope: str) -> float:
        rng = self.rng
        period = period_nm * 1e-9 * rng.uniform(0.98, 1.02)
        index = np.arange(points) - (points - 1) // 2
        x = index * (self.STEP_NM * 1e-9)
        span = float(x[-1] - x[0])
        widths = (0.3, 0.6) if envelope == "resolved" else (20.0, 100.0)
        fwhm = span * rng.uniform(*widths)
        center = span * rng.uniform(-0.1, 0.1)
        env = np.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)
        fringe = env * np.cos(2.0 * math.pi * x / period + rng.uniform(0.0, 2.0 * math.pi))
        rate_a = 42e3 * rng.uniform(0.8, 1.2) * (1.0 + rng.uniform(0.5, 0.95) * fringe)
        rate_c = 6e3 * rng.uniform(0.8, 1.2) * (1.0 + rng.uniform(0.6, 0.95) * fringe)
        rate_b = np.full(points, 110e3)
        counts = [self.noise.poisson(r * self.DWELL_S) for r in (rate_a, rate_b, rate_c)]
        rows = zip(index, rate_a, rate_b, rate_c, *counts)
        with open(self.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for k, ra, rb, rc, ca, cb, cc in rows:
                # k * 1e-8 in nine digits is exact, so the grid stays uniform.
                fh.write(f"{k * self.STEP_NM * 1e-9:.8e},{ra:.8e},{rb:.8e},{rc:.8e},{ca},{cb},{cc}\n")
        return period

    def prepare(self, combo) -> Job:
        period = self._synthesize(*combo)
        calls, outs = [], []
        for channel in ("singles", "coincidence"):
            out = os.path.join(self.workdir, f"refit-{channel}.json")
            calls.append(["fit", self.csv, "--config", self.first_config, "--quiet",
                          "--channel", channel, "--out", out])
            outs.append(out)

        def check() -> list[str]:
            return [reason for out in outs for reason in _period_failures(out, period)]

        return Job(calls, check)


_VISIBILITY = re.compile(r"predicted visibility: singles ([0-9.]+), coincidence ([0-9.]+)")


def oracle_deviations(points: list[dict]) -> dict[str, float]:
    """Criterion 08's statistic per field over an ``oracle-check`` JSON ``points`` list.

    |engine - oracle| / max(|engine|, |oracle|, phase-averaged p_a), where the
    phase-averaged p_a is the mean of the engine's p_a at zero pump delay and
    half a pump wavelength (rows 0 and 8 of the 16-point pump axis).  Returns
    the worst value over the points for each of p_a, p_b and p_ab.
    """
    pump_axis = points[len(points) // 2:]
    base = 0.5 * (pump_axis[0]["engine"]["p_a"] + pump_axis[len(pump_axis) // 2]["engine"]["p_a"])
    worst = dict.fromkeys(("p_a", "p_b", "p_ab"), 0.0)
    for point in points:
        for field in worst:
            e, o = point["engine"][field], point["oracle"][field]
            worst[field] = max(worst[field], abs(e - o) / max(abs(e), abs(o), base))
    return worst


def oracle_failures(points: list[dict], gain: float) -> list[str]:
    """Failure reasons for criterion 08 on one config with crystal gain K = ``gain``.

    A p_ab deviation above the 1e-6 tolerance but within the known envelope
    is reported under KNOWN_FAILURE; any other excess is an unexpected failure.
    """
    reasons = []
    for field, deviation in oracle_deviations(points).items():
        if deviation <= ORACLE_TOLERANCE:
            continue
        known = field == "p_ab" and deviation <= KNOWN_PAB_COEFFICIENT * gain**2
        prefix = KNOWN_FAILURE if known else "oracle-deviation"
        reasons.append(f"{prefix}: {field} {deviation:.3g} ({deviation / gain**2:.3g} K^2) at K = {gain!r}")
    return reasons


def unexpected_failures(failures: list[tuple[int, list[str]]], attempted: int) -> list[str]:
    """The failure reasons that make a run's outputs incorrect.

    Every reason but the known criterion-08 excess, and that one too when it
    hits more than KNOWN_RATE of the ``attempted`` operations plus KNOWN_SLACK.
    """
    unexpected = [r for _, reasons in failures for r in reasons if not r.startswith(KNOWN_FAILURE)]
    known = sum(any(r.startswith(KNOWN_FAILURE) for r in reasons) for _, reasons in failures)
    if known > KNOWN_RATE * attempted + KNOWN_SLACK:
        unexpected.append(f"{KNOWN_FAILURE} on {known} of {attempted} operations, "
                          f"more than {KNOWN_RATE:.0%} + {KNOWN_SLACK}")
    return unexpected


class OracleSweep:
    """A fresh random config per operation: oracle-check, then report.

    Criterion 08's ranges: K log-uniform in [1e-4, 6e-4] on both crystals,
    eta uniform in [0, 1], splitter ratio uniform in [0.25, 0.75].  Every
    operation pays config parsing and 32 one-off engine and oracle points, with
    no scan to spread per-config set-up over.
    """

    name = "oracle-sweep"
    window_ops = 16
    CYCLE_S = 0.5
    # Host slow-downs of a fraction of a second hit a few consecutive 30 ms
    # operations at a time and set the latency tail.  A second pass over the
    # cycle, half a second later, lets each operation keep its clean run.
    PASSES = 2
    POINTS = 16

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.config = os.path.join(workdir, "oracle.ini")
        self.first_config = os.path.join(workdir, "oracle-first.ini")
        with open(self.first_config, "w", encoding="utf-8") as fh:
            fh.write(self._render(*self._draw(random.Random(seed))))

    @staticmethod
    def _draw(rng: random.Random) -> tuple[float, float, float]:
        gain = 10 ** rng.uniform(-4.0, math.log10(6e-4))
        return gain, rng.uniform(0.0, 1.0), rng.uniform(0.25, 0.75)

    @staticmethod
    def _render(gain: float, eta: float, ratio: float) -> str:
        return (
            f"[pump]\nsplitter_ratio = {ratio!r}\n"
            f"[crystal1]\ngain = {gain!r}\n[crystal2]\ngain = {gain!r}\n"
            f"[idler_link]\neta = {eta!r}\n[scan]\n"
        )

    def cycle(self) -> list:
        return [self._draw(self.rng) for _ in range(self.window_ops)]

    def prepare(self, params) -> Job:
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self._render(*params))
        oracle = os.path.join(self.workdir, "oracle.json")
        report = os.path.join(self.workdir, "report.txt")
        common = ["--config", self.config, "--quiet"]
        calls = [
            ["oracle-check", *common, "--points", str(self.POINTS), "--out", oracle],
            ["report", *common, "--out", report],
        ]

        def check() -> list[str]:
            points = _read_json(oracle)["points"]
            gain, eta, ratio = params
            reasons = [f"{r}, eta = {eta!r}, ratio = {ratio!r}" for r in oracle_failures(points, gain)]
            # The report's visibilities come from the engine at zero pump
            # delay and half a pump wavelength: pump-axis rows 0 and 8.
            with open(report, encoding="utf-8") as fh:
                match = _VISIBILITY.search(fh.read())
            if match is None:
                return reasons + ["report: no predicted visibility line"]
            hi, lo = points[self.POINTS]["engine"], points[self.POINTS + self.POINTS // 2]["engine"]
            for printed, field in zip(match.groups(), ("p_a", "p_ab")):
                expected = abs(hi[field] - lo[field]) / (hi[field] + lo[field])
                if not abs(float(printed) - expected) <= 5.1e-5:
                    reasons.append(f"report: {field} visibility {printed} != {expected:.6f}")
            return reasons

        return Job(calls, check)


WORKLOADS = {w.name: w for w in (Campaign, Refit, OracleSweep)}
