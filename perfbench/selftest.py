"""Tiny-size self-test of the benchmark.

Runs every workload from BENCHMARK.json at the ``tiny`` size with tracing off
and on, and checks that each run exits 0, prints a result object with exactly
the expected keys, reports no failed operation, and emits every named
metric with its declared unit.  It also runs one traced workload twice with
the same seed and checks that the computed counts repeat exactly.

    python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# end-to-end metrics printed in the report line rather than the result
REPORT_ONLY = {"export_ms_tail": "ms"}



def run(spec, workload, trace, seed=7):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(spec, workload, trace, result):
    where = f"{workload} trace={trace}"
    assert set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result['failed']} failed"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}"
    )
    for name, unit in expected.items():
        entry = metrics[name]
        assert set(entry) == {"value", "unit"}, f"{where}: {name} has keys {sorted(entry)}"
        assert entry["unit"] == unit, f"{where}: {name} unit {entry['unit']!r}, declared {unit!r}"
        assert math.isfinite(entry["value"]), f"{where}: {name} = {entry['value']}"
        if not trace:
            assert entry["value"] > 0, f"{where}: end-to-end {name} = {entry['value']}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            report, result = run(spec, workload, trace)
            check_result(spec, workload, trace, result)
            if not trace:
                got = {k: v["unit"] for k, v in report["metrics"].items()}
                assert got == REPORT_ONLY, f"{workload}: report metrics {got}"
                units = {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, **REPORT_ONLY}
                timed = {k: v["unit"] for k, v in report["unscaled"].items()}
                assert all(units.get(k) == u for k, u in timed.items()), f"{workload}: unscaled {timed}"
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics", flush=True)
    first = spec["workloads"][0]["name"]
    counts = [run(spec, first, 1, seed=11)[0]["counts"] for _ in range(2)]
    assert counts[0] and counts[0] == counts[1], f"{first}: computed counts differ between runs"
    print(f"ok {first}: computed counts repeat across runs of one seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
