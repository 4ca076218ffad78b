"""CLI adapter: rendering, exit codes, JSON round trips."""

import json

import pytest

from ramforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- conductors

def test_conductor_text(capsys):
    code, out, _ = run(capsys, "conductor", "--p", "2", "x^-4")
    assert code == 0
    assert out == "conductor: 1\n"


def test_conductor_unramified(capsys):
    code, out, _ = run(capsys, "conductor", "--p", "2", "x^-2 + x^-1")
    assert code == 0
    assert out == "conductor: unramified\n"


def test_reduce_json_roundtrip(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "--json", "x^-4 + x^2")
    assert code == 0
    data = json.loads(out)
    assert data["conductor"] == 1
    # feeding the canonical form back yields byte-identical output
    code2, out2, _ = run(capsys, "reduce", "--p", "2", "--json", data["f"])
    assert code2 == 0 and out2 == out


def test_reduce_text(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "x^-4")
    assert code == 0
    assert "f_reduced: x^-1" in out
    assert "substitution: x^-2 + x^-1" in out


# --------------------------------------------------------------------- tower

def test_tower_text(capsys):
    code, out, _ = run(capsys, "tower", "--p", "2", "--j", "1", "--F", "x^-5 ; 0")
    assert code == 0
    assert "upper jumps: (1, 5)" in out
    assert "last lower jump: 9" in out


def test_tower_json(capsys):
    code, out, _ = run(
        capsys, "tower", "--p", "2", "--j", "1", "--json", "--F", "x^-5 ; 0"
    )
    data = json.loads(out)
    assert data["upper_jumps"] == [1, 5]
    assert data["last_lower_jump"] == 9
    assert data["conductor"] == 5


def test_tower_rejected_input_exits_2(capsys):
    code, _, err = run(capsys, "tower", "--p", "2", "--j", "1", "--F", "0 ; x^-3")
    assert code == 2
    assert "admissible" in err


# --------------------------------------------------------------------- genus

def test_genus_single_branch(capsys):
    branch = '{"p":2,"e":2,"m":1,"upper_jumps":["1","2"]}'
    code, out, _ = run(capsys, "genus", "--G", "4", "--branch", branch)
    assert code == 0
    assert out == "genus: 1\n"


def test_deform(capsys):
    code, out, _ = run(capsys, "deform", "--p", "2", "--s", "3", "x^-1")
    assert code == 0
    assert "f: x^-3 + x^-1" in out
    assert "conductor: 3" in out


# ------------------------------------------------------------------ herbrand

FILT = '{"p":2,"e":2,"m":1,"breaks":[{"c":"1","mult":1},{"c":"2","mult":1}]}'


def test_herbrand_lower_jumps(capsys):
    code, out, _ = run(capsys, "herbrand", FILT)
    assert code == 0
    assert out == "lower jumps: (1, 1), (3, 1)\n"


def test_herbrand_psi_phi(capsys):
    code, out, _ = run(capsys, "herbrand", "--psi", "2", FILT)
    assert out == "psi(2) = 3\n"
    code, out, _ = run(capsys, "herbrand", "--phi", "3", FILT)
    assert out == "phi(3) = 2\n"


def test_herbrand_rejects_invalid_filtration(capsys):
    bad = '{"p":2,"e":1,"m":1,"breaks":[{"c":"2","mult":1}]}'
    code, _, err = run(capsys, "herbrand", bad)
    assert code == 2
    assert "invalid filtration" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["herbrand", '{"p":2,"e":1,"m":1,"a":1,"breaks":[{"c":"1","mult":1}]}'],
         "unknown key 'a' in filtration"),
        (["herbrand", '{"p":2,"e":1,"m":1,"breaks":[{"c":"1","mult":1,"x":0}]}'],
         "unknown key 'x' in break 1"),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"m":1,"a":1,"upper_jumps":["1"]}'],
         "unknown key 'a' in branch point"),
    ],
    ids=["filtration", "break", "branch-point"],
)
def test_unknown_json_key_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["herbrand", '{"p":2,"e":1,"m":1,"breaks":[{"c":"1/0","mult":1}]}'],
         "bad filtration object: break 1 \"c\": '1/0' has a zero denominator"),
        (["herbrand", "--psi", "1/0", FILT], "--psi: '1/0' has a zero denominator"),
        (["herbrand", "--phi", "3/0", FILT], "--phi: '3/0' has a zero denominator"),
        (["spectrum", "--G", "3", "--p", "3", "--limit", "10", "--sigma0", "1/0"],
         "--sigma0: '1/0' has a zero denominator"),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"m":1,"upper_jumps":["1/0"]}'],
         "bad branch point object: upper jump 1: '1/0' has a zero denominator"),
    ],
    ids=["filtration-c", "psi", "phi", "sigma0", "upper-jump"],
)
def test_zero_denominator_names_the_field(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ----------------------------------------------------------------------- act

def test_act_transforms(capsys):
    code, out, _ = run(capsys, "act", "--a", "1", "--s", "5", "--json", FILT)
    assert code == 0
    data = json.loads(out)
    assert data["breaks"] == [{"c": "1", "mult": 1}, {"c": "5", "mult": 1}]


def test_act_warns_when_unchanged(capsys):
    code, out, err = run(capsys, "act", "--a", "1", "--s", "1", FILT)
    assert code == 0
    assert "warning" in err


def test_act_json_roundtrip(capsys):
    code, out, _ = run(capsys, "act", "--a", "1", "--s", "5", "--json", FILT)
    code2, out2, _ = run(capsys, "act", "--a", "1", "--s", "5", "--json", out.strip())
    # acting again with the same s leaves the filtration fixed, byte-exact
    assert out2 == out


# ---------------------------------------------------------------- admissible

def test_admissible_enumerate(capsys):
    code, out, _ = run(capsys, "admissible", "--p", "2", "--e", "2", "--bound", "4")
    assert code == 0
    assert out == "1,2\n1,3\n"


def test_admissible_check(capsys):
    code, out, _ = run(capsys, "admissible", "--p", "2", "--check", "1,4")
    assert out == "admissible: false\n"


def test_admissible_requires_arguments(capsys):
    code, _, err = run(capsys, "admissible", "--p", "2")
    assert code == 2


# ---------------------------------------------------------------------- plan

def test_plan(capsys):
    code, out, _ = run(capsys, "plan", "--p", "2", "--start", "1,2", "--target", "3,7")
    assert code == 0
    assert "level 1: minimal 1, deform 1 -> 3" in out
    assert "level 2: minimal 6, deform 6 -> 7" in out


def test_plan_not_comparable_exits_2(capsys):
    code, _, err = run(capsys, "plan", "--p", "2", "--start", "1,2", "--target", "1,2")
    assert code == 2


# ------------------------------------------------------------------ spectrum

def test_spectrum(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--G", "3", "--p", "3", "--limit", "10", "--json"
    )
    data = json.loads(out)
    assert data["genera"] == [0, 1, 3, 4, 6, 7, 9, 10]
    assert data["increment"] == 3
    assert data["residues"] == [0, 1]


# ---------------------------------------------------------------------- kato

def test_kato(capsys):
    code, out, _ = run(capsys, "kato", "--n", "4", "--dK", "8", "--dk", "8", "--mw", "1")
    assert code == 0
    assert out == "mu: 0, smooth: true\n"


def test_kato_inconsistent_exits_2(capsys):
    code, _, err = run(capsys, "kato", "--n", "4", "--dK", "8", "--dk", "8", "--mw", "2")
    assert code == 2


# ---------------------------------------------------------------------- grid

def test_grid_genus(capsys):
    code, out, _ = run(capsys, "grid", "genus-grid", "--p", "3", "--jmax", "25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,j,computed,predicted,pass"
    assert len(lines) == 19  # header + 17 rows + summary
    assert lines[-1] == "# PASS 17/17"


def test_grid_json(capsys):
    code, out, _ = run(
        capsys, "grid", "admissible-count", "--p", "2", "--e", "2", "--bound", "8",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"].startswith("PASS")


def test_grid_unknown_name(capsys):
    code, _, err = run(capsys, "grid", "no-such-grid", "--p", "2")
    assert code == 2


def test_grid_missing_parameter(capsys):
    code, _, err = run(capsys, "grid", "genus-grid", "--jmax", "5")
    assert code == 2
    assert "--p" in err


# ------------------------------------------------------------------- parsing

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["conductor", "x^-4"])  # missing required --p
    assert exc.value.code == 2


def test_bad_laurent_exits_2(capsys):
    code, _, err = run(capsys, "conductor", "--p", "2", "x^^4")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--p", "2", "--n", "3", "[1,,1]*x^-3"],
        ["conductor", "--p", "3", "x^-3 ++ x"],
        ["tower", "--p", "3", "--j", "1", "--F", "x^-3 + - x ; 0"],
    ],
    ids=["empty-component", "doubled-sign", "sign-after-sign"],
)
def test_malformed_laurent_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "sign" in err or "empty component" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reduce", "--p", "2", "--n", "3", "[1_1,0]*x^-3"], "bad coefficient vector"),
        (["reduce", "--p", "2", "--n", "3", "[+1,0,0]*x^-3"], "bad coefficient vector"),
        (["reduce", "--p", "2", "--n", "3", "[\u0661,0]*x^-3"], "bad coefficient vector"),
        (["conductor", "--p", "5", "\u0663*x^-3"], "bad term"),
        (["conductor", "--p", "5", "x^-\u0663"], "bad term"),
    ],
    ids=["underscore-component", "plus-component", "unicode-component",
         "unicode-scalar", "unicode-exponent"],
)
def test_non_ascii_decimal_laurent_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
