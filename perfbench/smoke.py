"""Smoke test of the benchmark itself, on the tiny criterion-8 corpus.

Usage (from the repository root): python3 perfbench/smoke.py

Checks that:
- an untraced and a traced run each emit every metric ``BENCHMARK.json``
  names, with its unit, and count no failure on the unmodified pipeline;
- editing ``energies.tsv`` between stages is counted as failed operations:
  the next stage's exit and the energy output check;
- run from a directory that holds only ``BENCHMARK.json`` and this
  directory, the benchmark exits non-zero without printing a result.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_result(*args: str, cwd: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_metrics(trace: int, key: str) -> bool:
    rc, last = bench_result("--workload", "smoke", "--seconds", "1", "--trace", str(trace))
    result = json.loads(last)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    named = {m["name"]: m["unit"] for m in SPEC[key]}
    wrong = {n: (u, emitted.get(n)) for n, u in named.items() if emitted.get(n) != u}
    ok = rc == 0 and result["correct"] and result["failed"] == 0 and not wrong
    ok = ok and set(emitted) == set(named)
    print(f"[smoke] {'PASS' if ok else 'FAIL'}: trace {trace} emits {len(emitted)} of "
          f"{len(named)} {key} metrics with their units; mismatched {wrong or 'none'}; "
          f"extra {sorted(set(emitted) - set(named)) or 'none'}; "
          f"{result['failed']}/{result['attempted']} operations failed")
    return ok


def tamper_energies(stage: str, out: Path) -> None:
    if stage != "energy":
        return
    path = out / "energies.tsv"
    rows = path.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        topic, model, function, value = row.split("\t")
        if model == "mrf" and function == "cosine":
            rows[i] = "\t".join([topic, model, function, repr(float(value) + 1.0)])
            break
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def check_tamper() -> bool:
    bench = run.Bench("smoke", run.WORKLOADS["smoke"].seed, run.WORK / "smoke-tamper")
    bench.synth("synth")
    procs = bench.rep(after_stage=tamper_energies)
    stage_failed = procs is None and any(f.startswith("correlate exited") for f in
                                         bench.checks.failures)
    bench.check_outputs(bench.work / "rep")
    check_failed = any(f.startswith("energies.tsv") for f in bench.checks.failures)
    ok = stage_failed and check_failed
    print(f"[smoke] {'PASS' if ok else 'FAIL'}: energies.tsv edited after the energy stage "
          f"counts {bench.checks.failed} failed operations: {bench.checks.failures}")
    return ok


def check_without_source() -> bool:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, last = bench_result("--workload", "topics-wide", "--seed", "1", "--seconds", "1",
                            cwd=bare)
    ok = rc != 0 and not last
    print(f"[smoke] {'PASS' if ok else 'FAIL'}: without the program the benchmark exits "
          f"{rc} and prints {'nothing' if not last else repr(last)}")
    return ok


def main() -> int:
    results = [check_metrics(0, "end_to_end"), check_metrics(1, "per_layer"),
               check_tamper(), check_without_source()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
