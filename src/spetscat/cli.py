"""Command-line front end: character tables, symbol tables, families,
Fourier pairing reports, Catalan numbers, trace sums, and the exact
verification suites, as aligned text or JSON.

Exit status: 0 when every requested verification passes (and for plain
table commands), 1 when a verification fails or a computation surfaces a
mathematical inconsistency, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .exactnum import InexactDivisionError, FractionalPowerError
from .groups import KIND_A, KIND_G1, GroupSpec, invariants, parse_group
from .labels import all_labels, dimension, label_str
from .symbols import families, rotation_stabilizer, symbol_of, symbol_stats, symbol_str
from .degrees import all_char_data, family_invariants
from .catalan import (
    catalan,
    coprime_range,
    trace_sum,
    verify_main,
    verify_parking,
    verify_vanishing,
)
from .fourier import (
    pairing_matrix,
    pairing_symmetry_report,
    verify_T1,
    verify_transform_swap,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(Exception):
    pass


def _parse_p_spec(spec: str) -> list[int]:
    out: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ".." in chunk:
                lo, hi = chunk.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(chunk))
        except ValueError:
            raise UsageError(
                f"--p {chunk!r} is neither an integer nor a range lo..hi"
            ) from None
    if not out:
        raise UsageError(f"empty p specification {spec!r}")
    return out


def _resolve_p_list(g: GroupSpec, spec: str | None, default_span: int = 3) -> list[int]:
    """p values: an explicit singleton is kept as given, for the
    computation to validate; ranges are filtered to the coprime residues;
    default is all coprime p in [1, default_span * h]."""
    h = invariants(g).coxeter_number
    if spec is None:
        return list(coprime_range(h, default_span * h))
    values = _parse_p_spec(spec)
    if "," not in spec and ".." not in spec:
        return values
    kept = [p for p in values if gcd(p, h) == 1]
    if not kept:
        raise UsageError(f"no p in {spec!r} is coprime to the Coxeter number h = {h}")
    return kept


def _join_negative_p(argv: list[str]) -> list[str]:
    """`--p -3..3` as `--p=-3..3`: argparse reads a value that starts
    with '-' and is not a plain number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--p" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--p={arg}"
        else:
            out.append(arg)
    return out


def _need_labels(g: GroupSpec):
    if g.kind == KIND_A:
        raise UsageError(
            "type A mode supports the catalan command only; "
            "use a G(m,1,n) or G(m,m,n) group here"
        )


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_chars(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    data = all_char_data(g)
    payload = [data[lab].to_json() for lab in all_labels(g)]
    lines = []
    for lab in all_labels(g):
        cd = data[lab]
        lines.append(
            f"{label_str(lab):24s} dim={dimension(lab):<4d} "
            f"a={cd.a:<3d} A={cd.A:<3d} b={cd.b:<3d} B={cd.B:<3d} "
            f"h={cd.h_char:<4d} c={cd.content_c}"
        )
        lines.append(f"    feg   = {cd.feg}")
        lines.append(f"    deg   = {cd.deg}")
        lines.append(f"    schur = {cd.schur}")
    _emit(args, payload, lines)
    return 0


def _cmd_symbols(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    kind = "content1" if g.kind == KIND_G1 else "content0"
    payload = []
    lines = []
    for lab in all_labels(g):
        s = symbol_of(lab)
        rank, content, defect = symbol_stats(s, kind)
        payload.append(
            {
                "label": label_str(lab),
                "symbol": symbol_str(s),
                "rank": rank,
                "content": content,
                "defect": defect,
                "s": rotation_stabilizer(s),
            }
        )
        lines.append(
            f"{label_str(lab):24s} symbol={symbol_str(s):20s} "
            f"rank={rank} content={content} defect={defect} s={rotation_stabilizer(s)}"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_families(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    fams = family_invariants(g)
    payload = [
        {
            "members": [label_str(lab) for lab in fam.members],
            "a": a,
            "A": big_a,
        }
        for fam, a, big_a in fams
    ]
    lines = [
        f"a={a:<3d} A={big_a:<3d} {{{', '.join(label_str(l) for l in fam.members)}}}"
        for fam, a, big_a in fams
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_fourier(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    if g.kind != KIND_G1:
        raise UsageError("the Fourier pairing is defined for G(m,1,n) groups")
    t1 = verify_T1(g)
    t23 = pairing_symmetry_report(g)
    matrices = [pairing_matrix(g, fam) for fam in families(g)]
    payload = {
        "matrices": [m.to_json() for m in matrices],
        "reports": [t1.to_json(), t23.to_json()],
    }
    lines = []
    for mat in matrices:
        lines.append(
            "family {" + ", ".join(label_str(l) for l in mat.family.members) + "}"
        )
        for lab, row in zip(mat.family.members, mat.entries):
            lines.append(
                f"  {label_str(lab):24s} [" + ", ".join(str(c) for c in row) + "]"
            )
    lines.extend(
        f"{r.claim:6s}: {'pass' if r.equal else 'FAIL'}"
        + (f"  witness: {r.witness}" if r.witness else "")
        for r in (t1, t23)
    )
    _emit(args, payload, lines)
    return 0 if t1.equal and t23.equal else VERIFY_ERROR


def _cmd_catalan(args) -> int:
    g = parse_group(args.group)
    if args.p is None:
        raise UsageError("catalan requires --p")
    p_list = _resolve_p_list(g, args.p)
    payload = []
    lines = []
    for p in p_list:
        if args.q:
            val = catalan(g, p, q_deformed=True)
            payload.append({"group": str(g), "p": p, "catalan_q": val.to_json()})
        else:
            val = catalan(g, p)
            payload.append({"group": str(g), "p": p, "catalan": str(val)})
        lines.append(f"p={p}: {val}" if len(p_list) > 1 else str(val))
    _emit(args, payload, lines)
    return 0


def _cmd_trace(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    if args.p is None:
        raise UsageError("trace requires --p")
    p_list = _resolve_p_list(g, args.p)
    payload = []
    lines = []
    code = 0
    for p in p_list:
        try:
            val = trace_sum(g, p)
            payload.append({"group": str(g), "p": p, "trace": val.to_json()})
            lines.append(f"p={p}: {val}")
        except (InexactDivisionError, FractionalPowerError) as exc:
            payload.append({"group": str(g), "p": p, "error": str(exc)})
            lines.append(f"p={p}: FAILED ({exc})")
            code = VERIFY_ERROR
    _emit(args, payload, lines)
    return code


def _cmd_verify(args) -> int:
    g = parse_group(args.group)
    _need_labels(g)
    claims = (
        ["main", "vanishing", "parking", "swap"]
        if args.claim == "all"
        else [args.claim]
    )
    if "swap" in claims and g.kind != KIND_G1:
        if args.claim == "swap":
            raise UsageError("the swap identity is a G(m,1,n) check")
        claims.remove("swap")
    p_list = _resolve_p_list(g, args.p)
    checks = {
        "main": lambda g, p: verify_main(g, (p,))[0],
        "vanishing": verify_vanishing,
        "parking": verify_parking,
        "swap": verify_transform_swap,
    }
    reports = [checks[claim](g, p) for claim in claims for p in p_list]
    payload = [r.to_json() for r in reports]
    lines = [
        f"{r.claim:10s} p={r.p:<4d} {'pass' if r.equal else 'FAIL'}"
        + (f"  witness: {r.witness}" if r.witness else "")
        for r in reports
    ]
    ok = all(r.equal for r in reports)
    lines.append(
        f"{len(reports)} checks, "
        f"{sum(1 for r in reports if r.equal)} passed, "
        f"{sum(1 for r in reports if not r.equal)} failed"
    )
    _emit(args, payload, lines)
    return 0 if ok else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spetscat",
        description=(
            "Exact character invariants and Catalan trace identities for "
            "the spetsial imprimitive complex reflection groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_p=False, p_help="p value, list (1,3) or range (1..7)"):
        p.add_argument("--group", required=True, help='e.g. "G(3,1,2)", "G(4,4,3)", "A2"')
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if needs_p:
            p.add_argument("--p", help=p_help)

    add_common(sub.add_parser("chars", help="per-character invariant table"))
    add_common(sub.add_parser("symbols", help="symbol table with statistics"))
    add_common(sub.add_parser("families", help="family partition with shared (a, A)"))
    add_common(sub.add_parser("fourier", help="pairing matrices and T1/T2/T3 report"))
    pc = sub.add_parser("catalan", help="rational Catalan numbers")
    add_common(pc, needs_p=True)
    pc.add_argument("--q", action="store_true", help="the q-deformation")
    add_common(sub.add_parser("trace", help="the trace sum as a Laurent polynomial"), needs_p=True)
    pv = sub.add_parser("verify", help="run an exact verification suite")
    pv.add_argument(
        "claim", choices=["main", "vanishing", "parking", "swap", "all"]
    )
    add_common(pv, needs_p=True)
    return parser


_HANDLERS = {
    "chars": _cmd_chars,
    "symbols": _cmd_symbols,
    "families": _cmd_families,
    "fourier": _cmd_fourier,
    "catalan": _cmd_catalan,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_p(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
