"""Record the expected digest of every output any seed can produce.

    python3 perfbench/record.py

Runs every operation of every workload once, from the root of a source
checkout, and writes perfbench/expected.json.  It refuses to record an
operation whose checked identity does not hold.  Rerun it only when an
output is meant to change, and say why in the change that does so.
"""
from __future__ import annotations

import json
import sys

from digest import digest
from run import HERE, SRC, fresh_import
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    expected = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        S = fresh_import()
        batches = cls(S, 0)
        ops = dict.fromkeys(op for _ in range(cls.cover) for op in batches.next_batch())
        table = {}
        for op in ops:
            if cls.cold:
                S = fresh_import()
            res = cls.op(S, *op)
            if not res.ok:
                print(f"error: {name} {op}: a checked identity does not hold", file=sys.stderr)
                return 1
            table.update((key, digest(payload)) for key, payload in res.outputs.items())
        expected[name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} outputs", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
