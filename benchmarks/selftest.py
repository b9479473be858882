"""The benchmark's own test.  Run from the root of a source checkout:

    python3 benchmarks/selftest.py

It checks that BENCHMARK.json follows its schema, that every workload prints
the declared metrics with their units, that the exact work counts repeat
identically across two traced runs of one seed, that the trace reports a
missing hook as absent instead of failing, that an oracle deviation beyond
the known criterion-08 envelope makes a run incorrect, and that the benchmark
refuses to run without the icohsim sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric and workload names must be unique")
    expect(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]), "why too long")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds must be in (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s must have the largest bound")
    return spec


def run(workload: str, trace: int, cwd: str = ROOT, seconds: int = 1) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] is True, f"outputs not correct: {proc.stdout[-2000:]}")
    expect(result["attempted"] >= 1, "nothing attempted")
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"metrics/units differ from BENCHMARK.json: {got} vs {want}")


def test_workloads(spec: dict) -> None:
    sys.path.insert(0, BENCH_DIR)
    from tracing import EXACT_COUNTS
    from workloads import WORKLOADS

    declared = {w["name"] for w in spec["workloads"]}
    expect(declared <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads: {declared - set(WORKLOADS)}")
    for workload in WORKLOADS:
        check_metrics(result_of(run(workload, 0)), spec["end_to_end"])
        runs = [result_of(run(workload, 1)) for _ in range(2)]
        done = [(r["attempted"], r["failed"]) for r in runs]
        expect(done[0] == done[1], f"{workload}: attempted and failed differ across runs of one seed: {done}")
        first, second = (r["metrics"] for r in runs)
        for metrics in (first, second):
            check_metrics({"metrics": metrics}, spec["per_layer"])
        for name in EXACT_COUNTS:
            expect(first[name]["value"] == second[name]["value"],
                   f"{workload}: {name} differs across runs of one seed: "
                   f"{first[name]['value']} vs {second[name]['value']}")
        counts = {name: first[name]["value"] for name in EXACT_COUNTS}
        print(f"{workload}: exact counts repeat: {counts}")
        if workload == "campaign":
            # 3 engine evaluations per point plus 2 per scan for the baseline.
            points = first["scan.points"]["value"]
            expect(abs(first["expectation.evals_per_point"]["value"] - (3 + 4 / points)) < 1e-12,
                   "campaign: evals_per_point is not 3 + 2/points per scan")
            selfs = {n: m["value"] for n, m in first.items() if n.endswith(("self_ms", ".ms"))}
            expect(max(selfs, key=selfs.get) == "operators.ms",
                   f"campaign: operators is not the largest self-time layer: {selfs}")
        if workload == "refit":
            expect(first["operators.calls"]["value"] == 0 and first["expectation.evals"]["value"] == 0,
                   "refit must not call the engine")


def test_absent_hook() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import icohsim.fockoracle as fockoracle
    from tracing import Tracer

    saved = {name: getattr(fockoracle, name) for name in ("build_state", "detection_moments")}
    try:
        for name in saved:
            delattr(fockoracle, name)
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        for name, function in saved.items():
            setattr(fockoracle, name, function)
    expect(tracer.absent_layers() == ["fockoracle"], f"absent layers: {tracer.absent_layers()}")
    expect(len(tracer.absent) == 2, f"absent hooks: {tracer.absent}")
    print("missing hooks are reported as absent")


def test_oracle_check() -> None:
    sys.path.insert(0, BENCH_DIR)
    from workloads import KNOWN_FAILURE, oracle_failures, unexpected_failures

    gain = 6e-4

    def points(field: str, deviation: float) -> list[dict]:
        rows = []
        for _ in range(32):
            engine = {"p_a": 1e-4, "p_b": 1e-4, "p_ab": 1e-4}
            oracle = dict(engine)
            oracle[field] = engine[field] * (1.0 + deviation)
            rows.append({"engine": engine, "oracle": oracle})
        return rows

    expect(oracle_failures(points("p_ab", 5e-7), gain) == [], "a deviation under 1e-6 failed")
    known = oracle_failures(points("p_ab", 3.9 * gain**2), gain)
    expect(len(known) == 1 and known[0].startswith(KNOWN_FAILURE),
           f"p_ab at 3.9 K^2 is not the known excess: {known}")
    expect(unexpected_failures([(0, known)], 16) == [], "one known excess made the run incorrect")
    expect(unexpected_failures([(k, known) for k in range(5)], 16) != [],
           "known excess on 5 of 16 operations did not make the run incorrect")
    for field, deviation in (("p_ab", 1e-2), ("p_ab", 4.2 * gain**2), ("p_a", 1.2e-6)):
        reasons = oracle_failures(points(field, deviation), gain)
        expect(unexpected_failures([(0, reasons)], 16) != [],
               f"{field} off by {deviation:.3g} did not make the run incorrect")
    print("oracle deviations beyond the known envelope make the run incorrect")


def test_refuses_without_sources() -> None:
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("oracle-sweep", 0, cwd=bare)
    expect(proc.returncode != 0, "benchmark ran without the icohsim sources")
    expect(not proc.stdout.strip().endswith("}"), "benchmark printed a result without sources")
    print("refuses to run without the icohsim sources")


def main() -> int:
    spec = load_spec()
    test_absent_hook()
    test_oracle_check()
    test_refuses_without_sources()
    test_workloads(spec)
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
