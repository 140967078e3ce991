"""Run every workload once, each in a fresh process, and print every
metric by name with its unit and sample count.

    python3 perfbench/report.py [--seed 1] [--seconds 15] [--trace 0|1]

Run from the root of a source checkout.  Exits 1 if any operation failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for w in spec["workloads"]:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        *_, detail_line, result_line = out.stdout.splitlines()
        detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
        ok = ok and result["failed"] == 0
        print(
            f"{w['name']}: attempted={result['attempted']} failed={result['failed']} "
            f"failed_frac={result['failed'] / result['attempted']:.4g} "
            f"correct={result['correct']} digest={detail['digest']}"
        )
        for name, m in result["metrics"].items():
            n = detail["samples"].get(name, 1)
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']:6s} n={n}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
