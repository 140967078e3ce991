"""Benchmark of spetscat, stdlib only.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: it imports spetscat from ./src
and nothing else.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The line before it is a detail
record (sample counts, the run's output digest, cache counters, the
host-speed probe).  A traced run also writes its spans to
perfbench/out/spans-<workload>-<seed>.json.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from digest import combine, digest  # noqa: E402
from spans import Tracer, package_modules  # noqa: E402
import workloads  # noqa: E402

# Fresh set-ups per run of a warm workload, spread over the run;
# setup_s is their median.
SETUP_REPEATS = 5
# p90 needs at least ten samples beyond it.
MIN_P90_SAMPLES = 100
# A traced run spends this share of --seconds on the untraced timed
# phase, then repeats the same operations traced.
TRACE_PHASE_SHARE = 0.4
# p values per group in the kernel replay.
REPLAY_PS = 2
REF_LOOP_N = 100_000
REF_LOOP_REPEATS = 5


class SetupError(Exception):
    pass


def fresh_import():
    """Import spetscat from ./src into an empty module set, so every
    cache starts cold."""
    for name in [n for n in sys.modules if n == "spetscat" or n.startswith("spetscat.")]:
        del sys.modules[name]
    gc.collect()
    module = importlib.import_module("spetscat")
    if Path(module.__file__).resolve().parent != SRC / "spetscat":
        raise SetupError(f"spetscat was imported from {module.__file__}, not ./src")
    return module


def ref_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host-speed probe."""
    times = []
    for _ in range(REF_LOOP_REPEATS):
        start = perf_counter()
        acc = 0
        for i in range(REF_LOOP_N):
            acc += i * i % 7
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


def percentiles(samples) -> dict[str, float]:
    """p50 always; p90 only with at least MIN_P90_SAMPLES samples."""
    out = {"p50": statistics.median(samples)}
    if len(samples) >= MIN_P90_SAMPLES:
        out["p90"] = statistics.quantiles(samples, n=10)[8]
    return out


class CacheCounts:
    """Hits and misses of every functools cache found in spetscat's
    modules, summed over each module set the run loads."""

    def __init__(self):
        self.totals: dict[str, list[int]] = {}

    def collect(self):
        for mod in package_modules():
            for fn in list(vars(mod).values()):
                info = getattr(fn, "cache_info", None)
                if callable(info) and getattr(fn, "__module__", None) == mod.__name__:
                    stats = info()
                    key = f"{mod.__name__.partition('.')[2]}.{fn.__name__}"
                    total = self.totals.setdefault(key, [0, 0])
                    total[0] += stats.hits
                    total[1] += stats.misses


class Run:
    def __init__(self, workload_cls, expected: dict):
        self.cls = workload_cls
        self.workload = None
        self.expected = expected
        self.S = None
        self.caches = CacheCounts()
        self.setup_samples: list[float] = []
        # seconds of each run of an operation, and its unit count, keyed by
        # the operation's outputs
        self.op_times: dict[frozenset, list[float]] = {}
        self.op_units: dict[frozenset, int] = {}
        self.op_seconds = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_batch_digests: list[str] | None = None
        self.last: dict = {}
        self.op_count = 0

    def load(self) -> float:
        if self.S is not None:
            self.caches.collect()
        start = perf_counter()
        self.S = fresh_import()
        return perf_counter() - start

    def setup(self, tracer=None):
        """Fresh import plus the workload's warm-up; one setup_s sample."""
        start = perf_counter()
        self.load()
        if tracer:
            tracer.install()
        try:
            if not self.cls.cold:
                for name in self.cls.groups:
                    self.S.all_char_data(self.S.parse_group(name))
        finally:
            if tracer:
                tracer.uninstall()
        self.setup_samples.append(perf_counter() - start)

    def _fail(self, n: int, message: str):
        self.failed += n
        if len(self.failures) < 10:
            self.failures.append(message)

    def execute(self, op, tracer=None, digests=None):
        if self.cls.cold:
            self.setup_samples.append(self.load())
        if tracer:
            self.op_count += 1
            tracer.run_id = f"op{self.op_count}"
            tracer.install()
        start = perf_counter()
        try:
            res = self.cls.op(self.S, *op, tracer=tracer)
        except Exception as exc:  # a raising operation is a failed one
            self.op_seconds += perf_counter() - start
            self.attempted += 1
            self._fail(1, f"{op}: {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer:
                tracer.uninstall()
        keyed = {key: digest(payload) for key, payload in res.outputs.items()}
        bad = {key for key, d in keyed.items() if self.expected.get(key) != d}
        if not res.ok:
            self._fail(len(res.units), f"{op}: a checked identity does not hold")
        elif bad:
            self._fail(
                sum(1 for unit in res.units if bad.intersection(unit)),
                f"{op}: digest differs for {sorted(bad)[:3]}",
            )
        if digests is not None:
            digests.extend(keyed.values())
        self.attempted += len(res.units)
        self.units += len(res.units)
        self.op_seconds += res.seconds
        ident = frozenset(res.outputs)
        self.op_times.setdefault(ident, []).append(res.seconds)
        self.op_units[ident] = len(res.units)
        self.last[op[0]] = self.S

    def latencies_ms(self) -> list[float]:
        """One sample per unit run: the mean time of its operation over
        the run, divided by the operation's unit count.  The mean spreads
        each operation's runs over the whole run, so a slow phase of the
        host moves a percentile by its share of the run, as it moves
        ops_per_s, instead of setting it outright."""
        out = []
        for ident, times in self.op_times.items():
            per_unit = statistics.fmean(times) * 1000 / self.op_units[ident]
            out.extend([per_unit] * (len(times) * self.op_units[ident]))
        return out

    def timed(self, budget=None, min_units=0, batches=None, tracer=None, setups=0):
        """Run batches until about `budget` seconds of operations and
        at least `min_units` units are done, or run the given batches.
        The run ends at the batch boundary nearest to `budget`.  `setups`
        more fresh set-ups are spread evenly over the budget, between
        batches, so that setup_s samples more than one moment of the run."""
        start_s, start_units = self.op_seconds, self.units
        setup_at = [budget * (k + 1) / (setups + 1) for k in range(setups)]
        done = []
        while True:
            elapsed = self.op_seconds - start_s
            if batches is not None:
                if len(done) == len(batches):
                    break
                batch = batches[len(done)]
            elif (done and elapsed + elapsed / len(done) / 2 >= budget
                  and self.units - start_units >= min_units):
                break
            else:
                batch = self.workload.next_batch()
            while setup_at and elapsed >= setup_at[0]:
                setup_at.pop(0)
                self.setup()
            first = self.first_batch_digests is None
            if first:
                self.first_batch_digests = []
            for op in batch:
                self.execute(op, tracer, self.first_batch_digests if first else None)
            done.append(batch)
        for _ in setup_at:
            self.setup()
        return done, self.op_seconds - start_s


def replay(run: Run, tracer: Tracer, seed: int) -> tuple[int, int]:
    """Kernel calls on operands from the workload's own data: fake and
    generic degrees at zeta_h^p, deg * schur = P_W, P_W / deg, and
    Cyclotomic mul/add/inv on the values at roots.  Returns (checks,
    failures)."""
    rng = random.Random(seed)
    tracer.run_id = "replay"
    span = tracer.span
    checks = failures = 0
    for name in sorted(run.last):
        S = run.last[name]
        g = S.parse_group(name)
        h = S.invariants(g).coxeter_number
        P = S.poincare(g)
        data = S.all_char_data(g)
        scalars = []
        for p in rng.sample(workloads.coprime_ps(h), REPLAY_PS):
            for cd in data.values():
                for poly in (cd.feg, cd.deg):
                    with span("exactnum.eval_at_root"):
                        value = S.eval_at_root(poly, h, p)
                    if not value.is_zero():
                        scalars.append(value)
        for cd in data.values():
            with span("exactnum.laurent_mul"):
                product = cd.deg * cd.schur
            with span("exactnum.poly_exact_div"):
                quotient = S.poly_exact_div(P, cd.deg)
            checks += 2
            failures += (product != P) + (quotient != cd.schur)
        for a, b in zip(scalars, scalars[1:]):
            with span("exactnum.cyclotomic_mul"):
                a * b
            with span("exactnum.cyclotomic_add"):
                a + b
        for a in scalars:
            with span("exactnum.cyclotomic_inv"):
                inverse = a.inv()
            checks += 1
            failures += (a * inverse) != 1
    return checks, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spetscat" / "__init__.py").is_file():
        print(f"error: no spetscat source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]

    wall = perf_counter()
    ref_start = ref_loop_ms()
    cls = workloads.WORKLOADS[args.workload]
    run = Run(cls, expected)
    layer: dict[str, float] = {}
    if args.trace:
        tracer = Tracer()
        run.setup(tracer)
        run.workload = cls(run.S, args.seed)
        batches, untraced_s = run.timed(TRACE_PHASE_SHARE * args.seconds)
        _, traced_s = run.timed(batches=batches, tracer=tracer)
        checks, failures = replay(run, tracer, args.seed)
        run.attempted += checks
        if failures:
            run._fail(failures, f"kernel replay: {failures} of {checks} checks differ")
        for name, agg in tracer.aggregate().items():
            for stat, value in agg.items():
                layer[f"{name}.{stat}"] = value
        layer["bench.trace_overhead_frac"] = traced_s / untraced_s - 1
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        run.setup()
        run.workload = cls(run.S, args.seed)
        run.timed(args.seconds, MIN_P90_SAMPLES, setups=0 if cls.cold else SETUP_REPEATS - 1)
    run.caches.collect()
    ref_end = ref_loop_ms()
    for key, (hits, misses) in run.caches.totals.items():
        layer[f"{key}.cache_hits"] = hits
        layer[f"{key}.cache_misses"] = misses
    layer["host.ref_loop_ms"] = (ref_start + ref_end) / 2

    latencies = run.latencies_ms()
    pct = percentiles(latencies)
    end_to_end = {
        "setup_s": statistics.median(run.setup_samples),
        "ops_per_s": run.units / run.op_seconds,
        "check_ms_p50": pct["p50"],
        "check_ms_p90": pct.get("p90"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else end_to_end
    # A traced run leaves a span name it never entered at 0.
    metrics = {
        m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {
            "setup_s": len(run.setup_samples),
            "ops_per_s": run.units,
            "check_ms_p50": len(latencies),
            "check_ms_p90": len(latencies),
        },
        "op_seconds": run.op_seconds,
        "wall_seconds": perf_counter() - wall,
        "digest": combine(run.first_batch_digests or ()),
        "host_ref_loop_ms": {"start": ref_start, "end": ref_end},
        "caches": run.caches.totals,
        "failures": run.failures,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
