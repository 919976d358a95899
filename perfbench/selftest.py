"""Toy-size self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the workloads and metrics
the benchmark emits (names, units, directions), that every workload at
toy size prints a well-formed last line with every metric of its mode,
and that a directory holding only ``BENCHMARK.json`` and ``perfbench/``
makes the benchmark exit non-zero without printing a result.  Exit code
0 when all checks pass.  Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.catalog import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import SPAN_DIR  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_manifest(errors: list) -> list:
    """BENCHMARK.json agrees with the catalog; returns its workload names."""
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expected = [entry[:3] for entry in catalog]
        if listed != expected:
            errors.append(f"BENCHMARK.json {key} != catalog: "
                          f"{sorted(set(listed) ^ set(expected))}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    return names


def check_run(workload: str, trace: int, errors: list) -> None:
    label = f"{workload} --trace {trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result['attempted']!r}")
    catalog = PER_LAYER if trace else END_TO_END
    expected = {entry[0]: entry[1] for entry in catalog}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metric names differ: "
                      f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(name):
            errors.append(f"{label}: {name} has {entry}")
        value = entry.get("value")
        if not isinstance(value, float) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r} is not finite")
        elif not trace and value == 0:
            errors.append(f"{label}: end-to-end {name} is 0")


def check_bare_directory(workload: str, errors: list) -> None:
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = SPAN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, "
                      f"stdout {proc.stdout[-200:]!r}")


def main() -> int:
    errors: list = []
    names = check_manifest(errors)
    for workload in names:
        for trace in (0, 1):
            check_run(workload, trace, errors)
    check_bare_directory(names[0], errors)
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    print(f"selftest: {'FAILED' if errors else 'ok'} "
          f"({len(names)} workloads x 2 modes, {len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
