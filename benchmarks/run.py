"""icohsim benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  Operations go through
``icohsim.cli.main(argv)`` in this process, on real files in a temporary
directory under ``benchmarks/out``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs every operation once untraced
and once traced (alternating which goes first), reports the per-layer metrics
and the tracing overhead, and writes the spans to ``benchmarks/out``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

An operation's time is the CPU time (user + system, this process and its
reaped children) spent in its CLI calls.  The CLI runs single-threaded with
BLAS pinned to one thread and waits on nothing but page-cache file I/O, so on
an unloaded core this is the wall time a user waits; it leaves out the
preemption stalls that wall time picks up on a shared machine.

The end-to-end times are then put on a fixed machine-speed scale (see
speed.py): the run times a probe at every pass boundary and scales the
operations of each pass by the probe's reference time over its mean time at
the pass's two ends.  Where a workload makes two passes over each cycle, an
operation's latency is the lesser of its two runs.  ``setup_s`` is put on the
same host's scale by a start-up probe, a fresh interpreter timed before and
after each set-up.  Unscaled CPU and wall times are printed alongside for
information.
"""

from __future__ import annotations

import os

# One worker process, no extra threads: pin BLAS and OpenMP pools before numpy loads.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from speed import STARTUP_PROBE_CODE, STARTUP_REFERENCE_S, local_scales, probe_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, unexpected_failures  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 9
TAIL_BEYOND = 10

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import icohsim.cli; icohsim.cli.load_config(sys.argv[2])"
)

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_frac") or name.endswith("_per_point"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "loadavg_at_start": os.getloadavg(),
    }


def cpu_seconds() -> float:
    """User + system CPU time of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def interpreter_seconds(args: list[str], workdir: str) -> float:
    """CPU time of a fresh interpreter running ``python -c <args>``."""
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", *args], cwd=workdir, check=True, stdout=subprocess.DEVNULL)
    return cpu_seconds() - start


def measure_setup(config_path: str, workdir: str) -> tuple[float, float]:
    """CPU time of a fresh interpreter importing icohsim.cli and parsing a config.

    Returns the median over SETUP_REPEATS set-ups, on the start-up probe's
    reference scale (each set-up over the mean of the probes run just before
    and after it), and unscaled.
    """
    probes = [interpreter_seconds([STARTUP_PROBE_CODE], workdir)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(interpreter_seconds([SETUP_CODE, SRC, config_path], workdir))
        probes.append(interpreter_seconds([STARTUP_PROBE_CODE], workdir))
        scaled.append(raw[-1] * STARTUP_REFERENCE_S / statistics.fmean(probes[-2:]))
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With too few samples it is the maximum.
    """
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Runner:
    """Closed loop over a workload's operations, one client, one process."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failures: list[tuple[int, list[str]]] = []
        # Untraced runs of operations: CPU seconds, wall seconds for
        # information, and the operation each run belongs to; the
        # machine-speed probe's time at every pass boundary, and the number
        # of untraced runs done at each.
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.op: list[int] = []
        self.probes: list[float] = []
        self.boundaries: list[int] = []
        # Trace mode: CPU seconds of each operation's traced run.
        self.traced: list[float] = []
        self.window = None

    def run_calls(self, job, tracer=None, op: int = 0) -> tuple[float, float, list[str]]:
        """Run one operation's CLI calls.

        Returns (CPU seconds, wall seconds, failure reasons).
        """
        reasons = []
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        for argv in job.calls:
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.call_main(self.main, argv, op)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped exception is a failed operation
                code = f"exception {type(exc).__name__}: {exc}"
            if code != 0:
                reasons.append(f"exit {code}: icohsim {' '.join(argv[:1])}")
        cpu = cpu_seconds() - cpu_start
        wall = time.perf_counter() - start
        if not reasons:
            try:
                reasons = job.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reasons = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return cpu, wall, reasons

    def run_op(self, job, op: int, tracer) -> list[str]:
        if tracer is None:
            cpu, wall, reasons = self.run_calls(job)
            self.cpu.append(cpu)
            self.wall.append(wall)
            self.op.append(op)
            return reasons
        reasons = []
        for traced_run in ((False, True) if op % 2 else (True, False)):
            if traced_run:
                tracer.install()
                try:
                    cpu, _, why = self.run_calls(job, tracer, op)
                finally:
                    tracer.uninstall()
                self.traced.append(cpu)
            else:
                cpu, _, why = self.run_calls(job)
                self.cpu.append(cpu)
                self.op.append(op)
            reasons += [r for r in why if r not in reasons]
        return reasons

    def loop(self, cycles: int, tracer=None) -> None:
        """Run ``cycles`` whole cycles, and more if the work-count window needs them.

        Untraced, a cycle is run ``workload.PASSES`` times over, one pass
        after the other; a traced run does every operation twice anyway and
        makes one pass.  An operation fails if any of its runs fails.
        """
        first = self.workload.cycle()
        self.run_calls(self.workload.prepare(first[0]))  # warm-up, untimed
        cycle = first
        passes = 1 if tracer is not None else self.workload.PASSES
        self.probes.append(probe_seconds())
        self.boundaries.append(0)
        while True:
            reasons: list[list[str]] = [[] for _ in cycle]
            for _ in range(passes):
                for k, spec in enumerate(cycle):
                    why = self.run_op(self.workload.prepare(spec), self.attempted + k, tracer)
                    reasons[k] += [r for r in why if r not in reasons[k]]
                self.probes.append(probe_seconds())
                self.boundaries.append(len(self.cpu))
            for why in reasons:
                if why:
                    self.failures.append((self.attempted, why))
                self.attempted += 1
            # window_ops is a whole number of cycles.
            if tracer is not None and self.window is None and self.attempted >= self.workload.window_ops:
                self.window = tracer.snapshot()
            cycles -= 1
            if cycles <= 0 and self.attempted >= self.workload.window_ops:
                return
            cycle = self.workload.cycle()


def cycle_count(workload, seconds: int, traced: bool) -> int:
    """How many cycles a run of ``seconds`` does.

    The count follows from ``seconds`` and the workload's usual cycle time on
    the host the benchmark was defined on, never from the clock, so one seed
    always gives the same operations: the same ``attempted`` and, on the same
    program, the same ``failed``.  A traced run does each operation twice.
    """
    return max(1, round(seconds / (workload.CYCLE_S * (2 if traced else workload.PASSES))))


def best_of(ops: list[int], times: list[float]) -> list[float]:
    """Each operation's least time over its runs, in operation order."""
    best: dict[int, float] = {}
    for op, value in zip(ops, times):
        best[op] = min(value, best.get(op, value))
    return list(best.values())


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args, WORKLOADS[args.workload]


def summary(latencies: list[float]) -> str:
    return (f"p50 {1e3 * statistics.median(latencies):.6g} ms, tail {1e3 * tail(latencies)[0]:.6g} ms, "
            f"{len(latencies) / sum(latencies):.6g} ops/s")


def main(argv: list[str] | None = None) -> int:
    args, workload_class = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "icohsim", "cli.py")):
        print(f"benchmark: no icohsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import icohsim
    import icohsim.cli

    if not os.path.abspath(icohsim.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported icohsim from {icohsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    machine = machine_info()
    print(f"icohsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        workload = workload_class(args.seed, workdir)
        runner = Runner(workload, icohsim.cli.main)
        if args.trace:
            tracer = Tracer()
            runner.loop(cycle_count(workload, args.seconds, True), tracer)
            metrics = tracer.layer_metrics(len(runner.traced), runner.window, workload.window_ops)
            metrics["trace.overhead_frac"] = sum(runner.traced) / sum(runner.cpu) - 1.0
            print(f"traced operations: {len(runner.traced)}")
            stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
            tracer.write(stem, {"workload": args.workload, "seed": args.seed,
                                "machine": machine, "metrics": metrics,
                                "window_ops": workload.window_ops})
            for layer in tracer.absent_layers():
                print(f"layer {layer}: absent (no hooked function found)")
            for _, module, attr in tracer.absent:
                print(f"hook {module}.{attr}: absent")
            print(f"spans: {len(tracer.span_start)} written to {stem}.npz")
            units = {name: layer_unit(name) for name in metrics}
        else:
            setup, raw_setup = measure_setup(workload.first_config, workdir)
            runner.loop(cycle_count(workload, args.seconds, False))
            scales = local_scales(runner.probes)
            latencies = best_of(runner.op, [
                cpu * scale
                for scale, start, end in zip(scales, runner.boundaries, runner.boundaries[1:])
                for cpu in runner.cpu[start:end]
            ])
            value, percentile = tail(latencies)
            metrics = {
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * value,
                "setup_s": setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = UNITS
            print(f"op_tail_ms is p{percentile:.1f} of {len(latencies)} operations")
            print(f"setup_s is the median of {SETUP_REPEATS} fresh interpreters; unscaled {raw_setup:.6g} s")
            print(f"machine-speed scale: median {statistics.median(scales):.4g}, "
                  f"range {min(scales):.4g}-{max(scales):.4g} over {len(scales)} passes")
            print(f"unscaled CPU time, for information: {summary(best_of(runner.op, runner.cpu))}")
            print(f"wall time, for information: {summary(best_of(runner.op, runner.wall))}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    failed = len(runner.failures)
    print(f"fail_frac {failed / runner.attempted:.6g} ratio ({failed} failed of {runner.attempted} attempted)")
    for op, reasons in runner.failures:
        print(f"failed op {op}: " + "; ".join(reasons))
    # The criterion-08 excess is a known finding (see README.md): within its
    # measured envelope it counts as a failed operation but does not make the
    # run's outputs incorrect.
    unexpected = unexpected_failures(runner.failures, runner.attempted)
    for reason in unexpected:
        print(f"unexpected: {reason}")
    result = {
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
