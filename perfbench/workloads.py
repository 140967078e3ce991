"""The two workloads: their inputs, made from a seed, and one timed
operation each.

Every operation calls spetscat's public functions, then emits its
output the way `spetscat ... --json` does (`to_json` + `json.dumps`).
The emit is inside the timed region.  An operation returns its outputs
keyed by a name that does not depend on the seed, so `expected.json`
can hold one digest per output for every seed.

A workload hands out its operations in batches; the run only stops
between batches.  Each batch has the same mix of costs whatever the
seed, so a time-boxed run does not change the mix it measures.  A
`chars` batch runs the groups that set a latency percentile more than
once (`reps`), so the percentile is a mean over more moments of the run.
"""
from __future__ import annotations

import contextlib
import json
import random
from dataclasses import dataclass, field
from math import gcd
from time import perf_counter

SWEEP_GROUPS = ("G(2,1,4)", "G(3,3,4)", "G(4,4,3)", "G(4,1,2)")
CHARS_GROUPS = ("G(2,1,4)", "G(4,1,3)", "G(5,1,2)", "G(3,3,4)", "G(3,1,4)", "G(4,4,3)")

# Sweep p values run over the coprime p in [1, P_SPAN * h].  Sorted p are
# cut into chunks of SWEEP_CHUNK neighbours, and each batch takes one p
# from every chunk, so a batch spans the whole range and SWEEP_CHUNK
# batches in a row cover every p exactly once.
P_SPAN = 6
SWEEP_CHUNK = 4


@dataclass
class OpResult:
    """One timed operation: its outputs, which outputs belong to each
    counted unit (a check, or a character label), and whether every
    identity it checked held."""

    seconds: float
    outputs: dict = field(default_factory=dict)
    units: list = field(default_factory=list)
    ok: bool = True


def _emit(tracer, make_payload):
    with tracer.span("cli.emit") if tracer else contextlib.nullcontext():
        payload = make_payload()
        json.dumps(payload, indent=2)
    return payload


def coprime_ps(h: int) -> list[int]:
    return [p for p in range(1, P_SPAN * h + 1) if gcd(p, h) == 1]


def sweep_claims(S, g) -> tuple[str, ...]:
    """`verify all`: swap is a G(m,1,n) check."""
    base = ("main", "vanishing", "parking")
    return base + ("swap",) if S.Gm1n(g.m, g.n) == g else base


def sweep_op(S, name: str, claim: str, p: int, tracer=None) -> OpResult:
    g = S.parse_group(name)
    start = perf_counter()
    if claim == "main":
        report = S.verify_main(g, (p,))[0]
    elif claim == "vanishing":
        report = S.verify_vanishing(g, p)
    elif claim == "parking":
        report = S.verify_parking(g, p)
    else:
        report = S.verify_transform_swap(g, p)
    payload = _emit(tracer, report.to_json)
    key = f"{name}|{claim}|{p}"
    return OpResult(perf_counter() - start, {key: payload}, [[key]], report.equal)


def chars_op(S, name: str, tracer=None) -> OpResult:
    g = S.parse_group(name)
    start = perf_counter()
    data = S.all_char_data(g)
    labels = S.all_labels(g)
    payload = _emit(tracer, lambda: [data[lab].to_json() for lab in labels])
    seconds = perf_counter() - start
    outputs = {f"{name}|{item['label']}": item for item in payload}
    return OpResult(seconds, outputs, [[key] for key in outputs])


# ---------------------------------------------------------------------------
# workloads


class Sweep:
    """Warm `verify all` checks over sampled p in [1, 6h].  A warm
    workload's set-up is `all_char_data` of its groups."""

    name = "sweep"
    groups = SWEEP_GROUPS
    cold = False
    # batches that together hold every operation
    cover = SWEEP_CHUNK

    def __init__(self, S, seed: int):
        self.rng = random.Random(seed)
        self.chunks = []
        for name in self.groups:
            g = S.parse_group(name)
            ps = coprime_ps(S.invariants(g).coxeter_number)
            for claim in sweep_claims(S, g):
                for i in range(0, len(ps), SWEEP_CHUNK):
                    run = ps[i : i + SWEEP_CHUNK]
                    self.rng.shuffle(run)
                    self.chunks.append((name, claim, run))
        self.index = 0

    def next_batch(self):
        batch = [
            (name, claim, run[self.index % len(run)])
            for name, claim, run in self.chunks
        ]
        self.index += 1
        self.rng.shuffle(batch)
        return batch

    op = staticmethod(sweep_op)


class Chars:
    """Cold `all_char_data`: every operation starts from a fresh import,
    and set-up is the import alone."""

    name = "chars"
    groups = CHARS_GROUPS
    cold = True
    cover = 1

    # G(3,3,4) sets check_ms_p50 and G(3,1,4) check_ms_p90; G(4,4,3)
    # twice puts the median in the middle of G(3,3,4)'s labels.
    reps = {"G(4,4,3)": 2, "G(3,3,4)": 4, "G(3,1,4)": 2}

    def __init__(self, S, seed: int):
        self.rng = random.Random(seed)

    def next_batch(self):
        batch = [(name,) for name in self.groups for _ in range(self.reps.get(name, 1))]
        self.rng.shuffle(batch)
        return batch

    op = staticmethod(chars_op)


WORKLOADS = {w.name: w for w in (Sweep, Chars)}

