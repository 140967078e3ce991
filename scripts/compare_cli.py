"""Run the spetscat CLI against two source trees and report every
command whose output differs.

    python scripts/compare_cli.py SRC_A SRC_B

Each command of a fixed matrix runs as `python -m spetscat ...` in a
fresh process, once with SRC_A and once with SRC_B as the only entry of
PYTHONPATH.  The matrix covers every subcommand in text and `--json` on
G(2,1,2), G(3,1,2), G(3,3,3), G(2,2,3), G(4,1,2) and G(4,4,3) (m = 4
is the first m with a nonzero component that is not coprime to m), type
A, usage errors and `--help`.  The `"ms": N` timings of JSON reports
are masked.  Every command whose stdout, stderr or exit code differs is
printed, with both exit codes when they differ and the first
differing line of each differing stream, SRC_A's (-) above SRC_B's
(+); the exit status is 0 when none differs, 1 otherwise.  Standard
library only.
"""
from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

GROUPS = ["G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(2,2,3)", "G(4,1,2)", "G(4,4,3)"]
PER_GROUP = [
    ["chars"],
    ["symbols"],
    ["families"],
    ["fourier"],
    ["catalan", "--p", "1..7"],
    ["catalan", "--q", "--p", "5"],
    ["trace", "--p", "1..5"],
    ["verify", "all"],
    ["verify", "swap", "--p", "1"],
]
HUGE_P = "100000000000000000001"
OTHERS = [
    # type A: catalan only
    ["catalan", "--group", "A2", "--p", "5"],
    ["catalan", "--group", "A3", "--p", "1..7"],
    ["catalan", "--q", "--group", "A3", "--p", "5"],
    ["catalan", "--q", "--group", "A3", "--p", "1,5", "--json"],
    ["chars", "--group", "A2"],
    ["trace", "--group", "A2", "--p", "1"],
    ["verify", "all", "--group", "A2"],
    # usage errors
    ["catalan", "--group", "G(2,1,2)"],
    ["trace", "--group", "G(2,1,2)"],
    ["trace", "--group", "A2"],
    ["verify", "main", "--group", "G(2,2,2)"],
    ["verify", "main", "--group", "G(2,1,2)", "--p", "2"],
    ["catalan", "--group", "G(2,1,2)", "--p", "2"],
    ["chars", "--group", "E8"],
    ["chars"],
    ["verify", "--group", "G(2,1,2)"],
    ["verify", "nothing", "--group", "G(2,1,2)"],
    ["nothing", "--group", "G(2,1,2)"],
    [],
    # the usage-error cases of tests/test_cli.py
    ["catalan", "--group", "G(2,1,2)", "--p", "-3"],
    ["trace", "--group", "G(2,1,2)", "--p", "-1"],
    ["verify", "parking", "--group", "G(2,1,2)", "--p", "-3"],
    ["verify", "vanishing", "--group", "G(2,1,2)", "--p", "-3"],
    ["verify", "main", "--group", "G(2,1,2)", "--p", "-3"],
    ["catalan", "--group", "G(1,1,1)", "--p", "1"],
    ["verify", "all", "--group", "G(1,1,1)"],
    ["verify", "main", "--group", "G(2,1,2)", "--p", "-3..3"],
    ["trace", "--group", "G(2,1,2)", "--p", "-3..3"],
    ["verify", "main", "--group", "G(2,1,2)", "--p", "2,4"],
    ["catalan", "--group", "G(2,1,2)", "--p", "2..2"],
    ["catalan", "--q", "--group", "G(2,1,2)", "--p", HUGE_P],
    ["trace", "--group", "G(2,1,2)", "--p", HUGE_P],
    ["verify", "main", "--group", "G(2,1,2)", "--p", HUGE_P],
    ["verify", "all", "--group", "G(2,1,2)", "--p", HUGE_P],
    ["catalan", "--group", "G(2,1,2)", "--p", "1.5"],
    ["verify", "main", "--group", "G(2,1,2)", "--p", "1e3"],
    ["trace", "--group", "G(2,1,2)", "--p", "x..3"],
    ["catalan", "--group", "A0", "--p", "1"],
    ["catalan", "--group", "A-1", "--p", "1"],
    ["verify", "swap", "--group", "G(3,3,2)"],
    ["verify", "parking", "--group", "G(2,1,2)", "--p", HUGE_P],
    ["verify", "vanishing", "--group", "G(2,1,2)", "--p", HUGE_P],
    # help
    ["--help"],
    ["verify", "--help"],
    ["catalan", "--help"],
]
MS = re.compile(r'"ms": \d+')


def matrix() -> list[list[str]]:
    return [
        cmd + ["--group", group] + json
        for group in GROUPS
        for cmd in PER_GROUP
        for json in ([], ["--json"])
    ] + OTHERS


def run(src: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "spetscat", *argv],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode, MS.sub('"ms": N', proc.stdout), proc.stderr


def first_difference(x: str, y: str) -> str:
    """The number of the first line where two outputs differ, and that
    line of each ("<end>" past the last line)."""
    pairs = zip_longest(x.split("\n"), y.split("\n"), fillvalue="<end>")
    i, (a, b) = next((i, ab) for i, ab in enumerate(pairs, 1) if ab[0] != ab[1])
    return f"line {i}:\n    - {a}\n    + {b}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="first source tree (holds spetscat/)")
    parser.add_argument("src_b", type=Path, help="second source tree")
    args = parser.parse_args()
    for src in (args.src_a, args.src_b):
        if not (src / "spetscat" / "__main__.py").is_file():
            parser.error(f"{src} holds no spetscat package")
    src_a, src_b = args.src_a.resolve(), args.src_b.resolve()
    commands = matrix()
    differ = 0
    for argv in commands:
        a, b = run(src_a, argv), run(src_b, argv)
        if a != b:
            differ += 1
            parts = [
                name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y
            ]
            print(f"DIFF ({', '.join(parts)}): spetscat {shlex.join(argv)}")
            if a[0] != b[0]:
                print(f"  exit code: {a[0]} -> {b[0]}")
            for name, x, y in zip(("stdout", "stderr"), a[1:], b[1:]):
                if x != y:
                    print(f"  {name} {first_difference(x, y)}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
