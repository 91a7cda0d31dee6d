"""Smoke check for the benchmark.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at ``--size tiny``, untraced and traced,
and asserts that each run exits 0, that its last line is the result object
with every metric BENCHMARK.json names (end-to-end untraced, per-layer
traced) and its unit, and that no output check failed. Then checks that the
benchmark refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout


class SmokeFailure(Exception):
    pass


def require(ok, message):
    if not ok:
        raise SmokeFailure(message)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = last_json(proc.stdout)
    require(result is not None, f"{where}: last line is not JSON")
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{where}: checks failed\n{proc.stderr}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    require(set(got) == {m["name"] for m in expected}, (
        f"{where}: metrics differ from BENCHMARK.json: "
        f"missing {sorted({m['name'] for m in expected} - set(got))}, "
        f"extra {sorted(set(got) - {m['name'] for m in expected})}"))
    for m in expected:
        entry = got[m["name"]]
        require(entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}")
        require(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (
            f"{where}: {m['name']} value {entry['value']!r}"))
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} checks")


def check_bare_directory(spec):
    """Without the program's sources the benchmark must fail, not report."""
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        require(proc.returncode != 0, "bare directory: exit 0")
        require(last_json(proc.stdout) is None, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: refused without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                check_run(spec, w["name"], trace)
        check_bare_directory(spec)
    except SmokeFailure as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
