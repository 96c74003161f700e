"""Smoke test of the benchmark: runs every workload at tiny size, untraced
and traced, and checks that each metric BENCHMARK.json names is printed with
its unit, that every correctness check passed, and that fail_rate is 0.

    python3 perfbench/smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in expected.items():
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", trace, "--scale", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit code {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys are {sorted(result)}")
            if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
                problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                                f"attempted={result.get('attempted')}")
            got = result.get("metrics", {})
            for m in metrics:
                if m["name"] not in got:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} has unit {got[m['name']]['unit']}, not {m['unit']}")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: metrics not named in BENCHMARK.json: {sorted(extra)}")
            if "fail_rate" not in done.stdout or "0.0000 share" not in done.stdout:
                problems.append(f"{where}: fail_rate is not printed as 0")
            print(f"ok   {where}: {len(got)} metrics, {result.get('attempted')} checks", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
