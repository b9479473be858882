"""Per-layer tracing of icohsim from outside the package.

Timing wrappers are installed on the module attributes through which each
layer's public functions are looked up at call time (``icohsim.cli.run_scan``,
``icohsim.spectral.compose_setup``, ``icohsim.expectation.spdc``, ...), so the
program itself is unchanged.  Every wrapped call becomes a span (name, start,
end, parent span, operation id) kept in memory; a span's self time is its
duration minus the time its direct children cover.  The spans are written out
once, when the benchmark ends.

A hook whose module attribute no longer exists is reported as absent; a layer
with every hook absent is reported as an absent layer, never as a silent zero.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

# (layer, module, attribute).  The attribute is wrapped in that module's
# namespace, so only calls that look the function up there are traced: the
# operator transforms as called from the expectation engine, compose_setup
# from each of its three callers, and so on.
HOOKS = (
    ("cli", "icohsim.cli", "write_scan_csv"),
    ("cli", "icohsim.cli", "read_scan_csv"),
    ("config", "icohsim.cli", "load_config"),
    ("scan", "icohsim.cli", "run_scan"),
    ("scan", "icohsim.cli", "fit_fringe"),
    ("scan", "icohsim.scan", "estimate_period"),
    ("spectral", "icohsim.scan", "modulated_rates"),
    ("counting", "icohsim.scan", "calibrate"),
    ("counting", "icohsim.scan", "sample_counts"),
    ("expectation", "icohsim.scan", "phase_averaged_rates"),
    ("expectation", "icohsim.spectral", "phase_averaged_rates"),
    ("expectation", "icohsim.spectral", "compose_setup"),
    ("expectation", "icohsim.expectation", "compose_setup"),
    ("expectation", "icohsim.cli", "compose_setup"),
    ("operators", "icohsim.expectation", "vacuum"),
    ("operators", "icohsim.expectation", "spdc"),
    ("operators", "icohsim.expectation", "attenuate"),
    ("operators", "icohsim.expectation", "truncate"),
    ("operators", "icohsim.expectation", "phase_delay"),
    ("operators", "icohsim.expectation", "beam_splitter"),
    ("fockoracle", "icohsim.fockoracle", "build_state"),
    ("fockoracle", "icohsim.fockoracle", "detection_moments"),
)
LAYERS = ("cli", "config", "scan", "spectral", "counting", "expectation", "operators", "fockoracle")
ROOT = "cli.main"

# Work counts that repeat exactly for one seed; the self-test compares them.
EXACT_COUNTS = (
    "expectation.evals_per_point",
    "operators.calls",
    "scan.lm_iterations",
    "counting.samples",
    "fockoracle.amplitudes",
    "cli.csv_bytes",
)


def _count_fit(counts: Counter, args, result, error) -> None:
    fit = result if error is None else getattr(error, "fit", None)
    if fit is not None:
        counts["scan.lm_iterations"] += fit.iterations
        counts["scan.unresolved_fits"] += not fit.envelope_resolved


def _count_scan(counts: Counter, args, result, error) -> None:
    if result is not None:
        counts["scan.points"] += len(result.delays)


def _count_write(counts: Counter, args, result, error) -> None:
    counts["cli.csv_bytes"] += args[1].tell()


def _count_read(counts: Counter, args, result, error) -> None:
    counts["cli.csv_bytes"] += os.fstat(args[0].fileno()).st_size


def _count_state(counts: Counter, args, result, error) -> None:
    if result is not None:
        counts["fockoracle.amplitudes"] += len(result.amplitudes)


COUNTERS = {
    "scan.fit_fringe": _count_fit,
    "scan.run_scan": _count_scan,
    "cli.write_scan_csv": _count_write,
    "cli.read_scan_csv": _count_read,
    "fockoracle.build_state": _count_state,
}


class Tracer:
    """Spans and counts for the operations run while the hooks are installed."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._name_ids = {ROOT: 0}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._originals: list[tuple[object, str, object]] = []
        self.present: list[tuple[str, str, str]] = []
        self.absent: list[tuple[str, str, str]] = []
        for layer, module_name, attr in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if callable(getattr(module, attr, None)):
                self.present.append((layer, module_name, attr))
            else:
                self.absent.append((layer, module_name, attr))

    def absent_layers(self) -> list[str]:
        present = {layer for layer, _, _ in self.present}
        return [layer for layer in LAYERS if layer != "cli" and layer not in present]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        index, covered = self._stack.pop()
        duration = end - self.span_start[index]
        self.span_end[index] = end
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, function):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._open(name_id)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                self._close(name)
                self._count(count, args, None, exc)
                raise
            self._close(name)
            self._count(count, args, result, None)
            return result

        return traced

    def _count(self, count, args, result, error) -> None:
        if count is None:
            return
        # A counter that no longer matches the program's signatures must not
        # break the traced run; it is reported as trace.counter_errors.
        try:
            count(self.counts, args, result, error)
        except (AttributeError, IndexError, TypeError, OSError):
            self.counts["trace.counter_errors"] += 1

    def install(self) -> None:
        for layer, module_name, attr in self.present:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def call_main(self, main, argv: list[str], op_id: int):
        """Run ``main(argv)`` under the root span of operation ``op_id``."""
        self.op_id = op_id
        self._open(0)
        try:
            return main(argv)
        finally:
            self._close(ROOT)

    def snapshot(self) -> dict:
        """Call and work counts so far, for the exact-count window."""
        return {"calls": Counter(self.calls), "counts": Counter(self.counts)}

    def layer_metrics(self, ops: int, window: dict, window_ops: int) -> dict[str, float]:
        """Per-operation layer metrics.

        Times are averaged over all ``ops`` traced operations; work counts
        come from the ``window`` snapshot taken after the first ``window_ops``
        operations, so they repeat exactly for one seed.
        """

        def layer_sum(table: Counter, layer: str) -> float:
            return sum(v for name, v in table.items() if name.startswith(layer + "."))

        def ms(seconds: float) -> float:
            return 1e3 * seconds / ops

        calls, counts = window["calls"], window["counts"]

        def per_op(value: float) -> float:
            return value / window_ops

        evals = calls["expectation.compose_setup"]
        points = counts["scan.points"]
        states = calls["fockoracle.build_state"]
        return {
            "operators.calls": per_op(layer_sum(calls, "operators")),
            "operators.ms": ms(layer_sum(self.self_s, "operators")),
            "expectation.evals": per_op(evals),
            "expectation.evals_per_point": evals / points if points else 0.0,
            "expectation.self_ms": ms(layer_sum(self.self_s, "expectation")),
            "spectral.calls": per_op(calls["spectral.modulated_rates"]),
            "spectral.self_ms": ms(layer_sum(self.self_s, "spectral")),
            "counting.samples": per_op(calls["counting.sample_counts"]),
            "counting.self_ms": ms(layer_sum(self.self_s, "counting")),
            "scan.points": per_op(points),
            "scan.run_scan_self_ms": ms(self.self_s["scan.run_scan"]),
            "scan.fits": per_op(calls["scan.fit_fringe"]),
            "scan.periodogram_ms": ms(self.total_s["scan.estimate_period"]),
            "scan.lm_ms": ms(self.self_s["scan.fit_fringe"]),
            "scan.lm_iterations": per_op(counts["scan.lm_iterations"]),
            "scan.unresolved_fits": per_op(counts["scan.unresolved_fits"]),
            "cli.csv_write_ms": ms(self.total_s["cli.write_scan_csv"]),
            "cli.csv_read_ms": ms(self.total_s["cli.read_scan_csv"]),
            "cli.csv_bytes": per_op(counts["cli.csv_bytes"]),
            "cli.self_ms": ms(self.self_s[ROOT]),
            "config.parses": per_op(calls["config.load_config"]),
            "config.parse_ms": ms(self.total_s["config.load_config"]),
            "fockoracle.states": per_op(states),
            "fockoracle.amplitudes": counts["fockoracle.amplitudes"] / states if states else 0.0,
            "fockoracle.ms": ms(layer_sum(self.total_s, "fockoracle")),
            "trace.absent_hooks": float(len(self.absent)),
            "trace.counter_errors": per_op(counts["trace.counter_errors"]),
        }

    def write(self, path_stem: str, summary: dict) -> None:
        """Write the spans (``.npz``) and a JSON summary next to them."""
        np.savez_compressed(
            path_stem + ".npz",
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
        layers = {
            name: {
                "calls": self.calls[name],
                "total_ms": 1e3 * self.total_s[name],
                "self_ms": 1e3 * self.self_s[name],
            }
            for name in self.names
        }
        summary = dict(
            summary,
            spans=len(self.span_start),
            by_name=layers,
            absent_hooks=[f"{m}.{a}" for _, m, a in self.absent],
            absent_layers=self.absent_layers(),
        )
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
