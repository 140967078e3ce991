import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from spetscat.catalan import closed_form_main
from spetscat.cli import main
from spetscat.exactnum import q_monomial
from spetscat.groups import KIND_G1, invariants, parse_group

# the package re-exports the function catalan under the submodule's name
CATALAN_MODULE = importlib.import_module("spetscat.catalan")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalan_spot_value(capsys):
    code, out, _ = run(capsys, "catalan", "--group", "A2", "--p", "5")
    assert code == 0
    assert out.strip() == "7"


def test_verify_main_range_json(capsys):
    code, out, _ = run(
        capsys, "verify", "main", "--group", "G(2,1,2)", "--p", "1..7", "--json"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4  # coprime residues 1, 3, 5, 7
    assert all(r["equal"] for r in reports)
    assert [r["p"] for r in reports] == [1, 3, 5, 7]


def test_invalid_group_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "main", "--group", "G(2,2,2)")
    assert code == 2
    assert "irreducible" in err


HUGE_P = "100000000000000000001"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("catalan", "--group", "G(2,1,2)", "--p", "-3"), "positive"),
        (("trace", "--group", "G(2,1,2)", "--p", "-1"), "positive"),
        (("verify", "parking", "--group", "G(2,1,2)", "--p", "-3"), "positive"),
        (("verify", "vanishing", "--group", "G(2,1,2)", "--p", "-3"), "positive"),
        (("verify", "main", "--group", "G(2,1,2)", "--p", "-3"), "positive"),
        (("catalan", "--group", "G(1,1,1)", "--p", "1"), "irreducible"),
        (("verify", "all", "--group", "G(1,1,1)"), "irreducible"),
        (("verify", "main", "--group", "G(2,1,2)", "--p", "-3..3"), "p = -3 must be a positive"),
        (("trace", "--group", "G(2,1,2)", "--p", "-3..3"), "p = -3 must be a positive"),
        (("verify", "main", "--group", "G(2,1,2)", "--p", "2,4"), "'2,4'"),
        (("catalan", "--group", "G(2,1,2)", "--p", "2..2"), "h = 4"),
        # above sys.maxsize: no dense list that long can exist
        (("catalan", "--q", "--group", "G(2,1,2)", "--p", HUGE_P), f"p = {HUGE_P} is too large"),
        (("trace", "--group", "G(2,1,2)", "--p", HUGE_P), f"p = {HUGE_P} is too large"),
        (("verify", "main", "--group", "G(2,1,2)", "--p", HUGE_P), f"p = {HUGE_P} is too large"),
        (("verify", "all", "--group", "G(2,1,2)", "--p", HUGE_P), f"p = {HUGE_P} is too large"),
        # the token the user typed, not int()'s message
        (("catalan", "--group", "G(2,1,2)", "--p", "1.5"), "--p '1.5'"),
        (("verify", "main", "--group", "G(2,1,2)", "--p", "1e3"), "--p '1e3'"),
        (("trace", "--group", "G(2,1,2)", "--p", "x..3"), "--p 'x..3'"),
        (("catalan", "--group", "A0", "--p", "1"), "'A0'"),
        (("catalan", "--group", "A-1", "--p", "1"), "'A-1'"),
    ],
)
def test_bad_p_or_trivial_group_is_usage_error(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert needle in err
    assert out == ""


def test_parking_and_vanishing_pass_above_sys_maxsize(capsys):
    """Both sides of parking and the vanishing values are sparse, so a p
    past any dense list still checks."""
    for claim in ("parking", "vanishing"):
        code, out, err = run(
            capsys, "verify", claim, "--group", "G(2,1,2)", "--p", HUGE_P
        )
        assert (code, err) == (0, ""), claim
        assert "1 checks, 1 passed, 0 failed" in out


def test_failed_verification_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        CATALAN_MODULE,
        "closed_form_main",
        lambda g, p: closed_form_main(g, p) + q_monomial(7),
    )
    code, out, _ = run(capsys, "verify", "main", "--group", "G(2,1,2)", "--p", "3")
    assert code == 1
    assert "FAIL  witness: q^7: -1" in out


def test_non_coprime_single_p_is_usage_error(capsys):
    code, _, err = run(capsys, "catalan", "--group", "G(2,1,2)", "--p", "2")
    assert code == 2
    assert "coprime" in err


def test_unparsable_group(capsys):
    code, _, err = run(capsys, "chars", "--group", "E8")
    assert code == 2
    assert "parse" in err


def test_type_a_rejected_outside_catalan(capsys):
    code, _, err = run(capsys, "chars", "--group", "A2")
    assert code == 2
    assert "catalan" in err


def test_chars_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "chars", "--group", "G(3,1,2)", "--json")
    code2, out2, _ = run(capsys, "chars", "--group", "G(3,1,2)", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)
    assert len(rows) == 9
    assert all(set(r) >= {"label", "feg", "deg", "schur", "a", "A", "b", "B", "h", "c"}
               for r in rows)


@pytest.mark.parametrize(
    "group",
    ["G(2,1,2)", "G(2,1,3)", "G(3,1,2)", "G(3,1,3)", "G(4,1,2)",
     "G(2,2,3)", "G(3,3,2)", "G(3,3,3)", "G(4,4,3)"],
)
def test_chars_json_conductors(capsys, group):
    """Fake degrees are written at conductor 1; generic degrees and Schur
    elements at conductor m, except the G(m,1,n) trivial character's
    generic degree, which is 1 at conductor 1."""
    g = parse_group(group)
    trivial = "[(%d)%s]" % (g.n, ",()" * (g.m - 1)) if g.kind == KIND_G1 else None
    code, out, _ = run(capsys, "chars", "--group", group, "--json")
    assert code == 0
    for row in json.loads(out):
        for key, want in (("feg", 1), ("deg", g.m), ("schur", g.m)):
            if key == "deg" and row["label"] == trivial:
                want = 1
            conductors = {c["conductor"] for _, c in row[key]["terms"]}
            assert conductors == {want}, (row["label"], key, conductors)


@pytest.mark.parametrize("group", ["G(2,1,2)", "G(3,1,3)", "G(3,3,3)", "G(4,4,3)"])
def test_verify_json_conductors(capsys, group):
    """The character sums of main, parking and both sides of the swap
    are written in q (root order 1) with every coefficient at conductor
    h, and the closed forms at conductor 1."""
    g = parse_group(group)
    h = invariants(g).coxeter_number
    code, out, _ = run(capsys, "verify", "all", "--group", group, "--json")
    assert code == 0
    want = {
        ("main", "lhs"): (1, h),
        ("main", "rhs"): (1, 1),
        ("parking", "lhs"): (1, h),
        ("parking", "rhs"): (1, 1),
        ("swap", "lhs"): (1, h),
        ("swap", "rhs"): (1, h),
    }
    claims = set()
    for rep in json.loads(out):
        claims.add(rep["claim"])
        for side in ("lhs", "rhs"):
            if rep["claim"] == "vanishing":
                assert rep[side] is None
                continue
            root_order, conductor = want[rep["claim"], side]
            poly = rep[side]
            assert poly["root_order"] == root_order, (rep["p"], rep["claim"], side)
            conductors = {c["conductor"] for _, c in poly["terms"]}
            assert conductors == {conductor}, (rep["p"], rep["claim"], side, conductors)
    swap = {"swap"} if g.kind == KIND_G1 else set()
    assert claims == {"main", "vanishing", "parking"} | swap


def test_symbols_text_and_json_agree(capsys):
    code, out_json, _ = run(capsys, "symbols", "--group", "G(2,1,2)", "--json")
    assert code == 0
    rows = json.loads(out_json)
    code, out_text, _ = run(capsys, "symbols", "--group", "G(2,1,2)")
    assert code == 0
    for row in rows:
        assert row["symbol"] in out_text
        assert row["label"] in out_text


def test_families_output(capsys):
    code, out, _ = run(capsys, "families", "--group", "G(2,1,2)", "--json")
    assert code == 0
    fams = json.loads(out)
    assert sorted(len(f["members"]) for f in fams) == [1, 1, 3]


def test_fourier_subcommand(capsys):
    code, out, _ = run(capsys, "fourier", "--group", "G(2,1,2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(rep["equal"] for rep in data["reports"])
    for rep in data["reports"]:
        assert set(rep) == {"group", "p", "claim", "equal", "lhs", "rhs", "witness", "ms"}
        assert rep["p"] is None and rep["witness"] is None
    code, _, err = run(capsys, "fourier", "--group", "G(3,3,3)")
    assert code == 2


def test_trace_subcommand(capsys):
    code, out, _ = run(capsys, "trace", "--group", "G(2,1,2)", "--p", "1")
    assert code == 0
    assert "q^-2" in out.replace(" ", "")
    code, out, _ = run(capsys, "trace", "--group", "G(2,1,2)", "--p", "1", "--json")
    data = json.loads(out)
    assert data[0]["trace"]["root_order"] == 1


def test_verify_all_default_range(capsys):
    code, out, _ = run(capsys, "verify", "all", "--group", "G(3,3,2)")
    assert code == 0
    assert "failed" in out.splitlines()[-1]
    assert " 0 failed" in out.splitlines()[-1]


def test_swap_restricted_to_gm1n(capsys):
    code, _, err = run(capsys, "verify", "swap", "--group", "G(3,3,2)")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def _pinned_text():
    """(argv, stdout) pairs from cli_text.txt: each section opens with a
    `$ spetscat ...` line and holds the command's whole text output."""
    text = (Path(__file__).parent / "cli_text.txt").read_text()
    sections = re.split(r"^\$ spetscat (.*)\n", text, flags=re.M)[1:]
    return [
        pytest.param(shlex.split(cmd), out, id=cmd)
        for cmd, out in zip(sections[::2], sections[1::2])
    ]


@pytest.mark.parametrize("argv, want", _pinned_text())
def test_text_output_is_pinned(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == want
