"""Seconds-fast self-test of the benchmark harness.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

Runs all three workloads at ``small`` scale, untraced and traced, and
checks that every metric ``BENCHMARK.json`` names is printed with its
unit and that the checks pass; then injects one wrong answer into each
workload and checks that it is counted as failed.  Exits 1 on the first
problem.
"""

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--scale", "small", *extra,
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            if got != wanted:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(wanted))} differ")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0):
                problems.append(f"{workload} trace={trace}: checks failed")
            print(f"ok  {workload} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} checked")
        injected = run(workload, 0, "--inject-wrong")
        if injected["correct"] or injected["failed"] < 1:
            problems.append(f"{workload}: injected wrong answer not caught")
        else:
            print(f"ok  {workload}: injected wrong answer counted "
                  f"({injected['failed']} of {injected['attempted']})")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
