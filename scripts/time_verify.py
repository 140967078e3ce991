"""End-to-end wall time of `spetscat verify all`, of `spetscat fourier`
and of the acceptance suite, stdlib only.

    python3 scripts/time_verify.py

Run from anywhere inside a source checkout: spetscat is imported from its
./src.  Each round runs `python -m spetscat verify all --group G` in one
fresh process per group, on the nine acceptance groups and the stretch
tier, then `python -m spetscat fourier --group G` the same way on the
G(m,1,n) groups of both tiers, then `python -m pytest -q
tests/test_acceptance.py`; a process is timed from its start to its exit,
import and all.  The one output line is JSON: the median over the rounds
per group and command and for the suite, and the sum of the `verify all`
medians over each tier.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
ACCEPTANCE = (
    "G(2,1,2)", "G(2,1,3)", "G(3,1,2)", "G(3,1,3)", "G(4,1,2)",
    "G(2,2,3)", "G(3,3,2)", "G(3,3,3)", "G(4,4,3)",
)
STRETCH = ("G(2,1,4)", "G(4,1,3)", "G(5,1,2)", "G(3,3,4)", "G(3,1,4)")
FOURIER = tuple(g for g in ACCEPTANCE + STRETCH if ",1," in g)


def wall_seconds(args: list[str], env: dict) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - start


def main() -> int:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times: dict[str, list[float]] = {}
    for _ in range(ROUNDS):
        for g in ACCEPTANCE + STRETCH:
            cmd = ["-m", "spetscat", "verify", "all", "--group", g]
            times.setdefault(g, []).append(wall_seconds(cmd, env))
        for g in FOURIER:
            cmd = ["-m", "spetscat", "fourier", "--group", g]
            times.setdefault(f"fourier {g}", []).append(wall_seconds(cmd, env))
        cmd = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
        times.setdefault("tests/test_acceptance.py", []).append(wall_seconds(cmd, env))
    medians = {key: statistics.median(values) for key, values in times.items()}
    print(json.dumps({
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "verify_all_s": {g: medians[g] for g in ACCEPTANCE + STRETCH},
        "acceptance_total_s": sum(medians[g] for g in ACCEPTANCE),
        "stretch_total_s": sum(medians[g] for g in STRETCH),
        "fourier_s": {g: medians[f"fourier {g}"] for g in FOURIER},
        "test_acceptance_s": medians["tests/test_acceptance.py"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
