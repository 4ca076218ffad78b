"""CLI adapter: rendering, exit codes, JSON round trips."""

import ast
import doctest
import importlib
import json
import shlex
import time
from pathlib import Path

import pytest

from ramforge import cli, grids
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


def test_herbrand_psi_and_phi_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["herbrand", "--psi", "1", "--phi", "2", FILT])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --phi: not allowed with argument --psi" in out.err


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


def test_act_derives_its_congruence_class(capsys):
    # m = 3: the class of s is forced by the last lower jump; no flag overrides it
    filt = '{"p":2,"e":1,"m":3,"breaks":[{"c":"1/3","mult":1}]}'
    assert run(capsys, "act", "--a", "1", "--s", "5", filt) == (
        2, "", "error: conductor 5 is not congruent to 1 mod 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["act", "--a", "1", "--s", "5", "--s-iota", "2", filt])
    assert exc.value.code == 2
    assert "unrecognized arguments: --s-iota" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv,out,payload",
    [
        (["--G", str(2**64), "--p", "2", "--limit", "10"],
         f"genera: 0\nincrement: {2**63}\nresidues:\n",
         f'{{"genera":[0],"increment":{2**63},"residues":[]}}\n'),
        (["--G", "8", "--p", "2", "--g0", "20", "--limit", "10"],
         "genera:\nincrement: 4\nresidues:\n", '{"genera":[],"increment":4,"residues":[]}\n'),
    ],
    ids=["no-deformed-genus", "window-below-g0"],
)
def test_spectrum_empty_lists_print_the_bare_label(capsys, argv, out, payload):
    assert run(capsys, "spectrum", *argv) == (0, out, "")
    assert run(capsys, "spectrum", *argv, "--json") == (0, payload, "")


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
    "argv,message",
    [
        (["reduce", "--p", "2", "--n", "3", "[1,,1]*x^-3"],
         "bad term '[1,,1]*x^-3' in '[1,,1]*x^-3'"),
        (["conductor", "--p", "3", "x^-3 ++ x"], "bad term '++x' in 'x^-3 ++ x'"),
        (["tower", "--p", "3", "--j", "1", "--F", "x^-3 + - x ; 0"],
         "coefficient of y^0: bad term '+-x' in 'x^-3 + - x'"),
        (["tower", "--p", "2", "--n", "3", "--j", "1", "--F", "x^-3 ; x^-3 ++ x"],
         "coefficient of y^1: bad term '++x' in 'x^-3 ++ x'"),
    ],
    ids=["empty-component", "doubled-sign", "sign-after-sign", "tower-y-degree"],
)
def test_malformed_laurent_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reduce", "--p", "2", "--n", "3", "[1_1,0]*x^-3"],
         "bad term '[1_1,0]*x^-3' in '[1_1,0]*x^-3'"),
        (["reduce", "--p", "2", "--n", "3", "[+1,0,0]*x^-3"],
         "bad term '[+1,0,0]*x^-3' in '[+1,0,0]*x^-3'"),
        (["reduce", "--p", "2", "--n", "3", "[\u0661,0]*x^-3"],
         "bad term '[\u0661,0]*x^-3' in '[\u0661,0]*x^-3'"),
        (["conductor", "--p", "5", "\u0663*x^-3"], "bad term '\u0663*x^-3' in '\u0663*x^-3'"),
        (["conductor", "--p", "5", "x^-\u0663"], "bad term '^-\u0663' in 'x^-\u0663'"),
    ],
    ids=["underscore-component", "plus-component", "unicode-component",
         "unicode-scalar", "unicode-exponent"],
)
def test_non_ascii_decimal_laurent_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------ render path

BRANCH = '{"p":2,"e":2,"m":1,"upper_jumps":["1","2"]}'

RENDERED = {
    "reduce": (
        ["reduce", "--p", "3", "--n", "2", "x^-6 + [1,2]*x^-2 + x"],
        "f_reduced: [2,2]*x^-2 + x\nconductor: 2\nsubstitution: x^-2\n",
        '{"p":3,"n":2,"f":"x^-6 + [1,2]*x^-2 + x","f_reduced":"[2,2]*x^-2 + x",'
        '"conductor":2,"substitution":"x^-2"}\n',
    ),
    "conductor": (
        ["conductor", "--p", "2", "x^-4 + x^-3"],
        "conductor: 3\n",
        '{"p":2,"n":1,"conductor":3}\n',
    ),
    "genus": (
        ["genus", "--G", "8", "--gx", "1", "--branch", BRANCH],
        "genus: 9\n",
        '{"G":8,"g_X":1,"genus":9}\n',
    ),
    "deform": (
        ["deform", "--p", "3", "--s", "5", "--t0", "2", "x^-2"],
        "f: 2*x^-5 + x^-2\nconductor: 5\n",
        '{"p":3,"n":1,"f":"2*x^-5 + x^-2","conductor":5}\n',
    ),
    "act": (
        ["act", "--a", "1", "--s", "5", FILT],
        "filtration: p=2 e=2 m=1 breaks=[(1, 1), (5, 1)]\n",
        '{"p":2,"e":2,"m":1,"breaks":[{"c":"1","mult":1},{"c":"5","mult":1}]}\n',
    ),
    "tower": (
        ["tower", "--p", "3", "--j", "2", "--F", "x^-7 ; 0 ; 0"],
        "upper jumps: (2, 7)\nlast lower jump: 17\nconductor: 7\n",
        '{"p":3,"n":1,"j":2,"F":"x^-7 ; 0 ; 0","last_lower_jump":17,'
        '"upper_jumps":[2,7],"conductor":7}\n',
    ),
    "herbrand-lower": (
        ["herbrand", FILT],
        "lower jumps: (1, 1), (3, 1)\n",
        '{"lower_jumps":[{"j":1,"mult":1},{"j":3,"mult":1}]}\n',
    ),
    "herbrand-psi": (
        ["herbrand", "--psi", "5/2", FILT],
        "psi(5/2) = 5\n",
        '{"psi":{"at":"5/2","value":"5"}}\n',
    ),
    "herbrand-phi": (
        ["herbrand", "--phi", "7/2", FILT],
        "phi(7/2) = 17/8\n",
        '{"phi":{"at":"7/2","value":"17/8"}}\n',
    ),
    "admissible-enumerate": (
        ["admissible", "--p", "3", "--e", "2", "--bound", "5"],
        "1,3\n1,4\n1,5\n",
        '{"p":3,"e":2,"bound":5,"sequences":[[1,3],[1,4],[1,5]]}\n',
    ),
    "admissible-check": (
        ["admissible", "--p", "2", "--check", "1,2,5"],
        "admissible: true\n",
        '{"sequence":[1,2,5],"admissible":true}\n',
    ),
    "plan": (
        ["plan", "--p", "2", "--start", "1,2", "--target", "3,6"],
        "level 1: minimal 1, deform 1 -> 3\nlevel 2: minimal 6, no deformation needed\n",
        '{"steps":[{"level":1,"start":1,"target":3},{"level":2,"start":6,"target":6}]}\n',
    ),
    "spectrum": (
        ["spectrum", "--G", "4", "--p", "2", "--a", "2", "--limit", "12"],
        "genera: 0, 3, 6, 9, 12\nincrement: 3\nresidues: 0\n",
        '{"genera":[0,3,6,9,12],"increment":3,"residues":[0]}\n',
    ),
    "kato": (
        ["kato", "--n", "4", "--dK", "9", "--dk", "8", "--mw", "2"],
        "mu: 0, smooth: false\n",
        '{"mu":0,"smooth":false}\n',
    ),
    "grid": (
        ["grid", "genus-grid", "--p", "5", "--jmax", "6"],
        "p,j,computed,predicted,pass\n5,1,0,0,true\n5,2,2,2,true\n5,3,4,4,true\n"
        "5,4,6,6,true\n5,6,10,10,true\n# PASS 5/5\n",
        '{"name":"genus-grid","rows":[{"p":5,"j":1,"computed":0,"predicted":0,"pass":true},'
        '{"p":5,"j":2,"computed":2,"predicted":2,"pass":true},'
        '{"p":5,"j":3,"computed":4,"predicted":4,"pass":true},'
        '{"p":5,"j":4,"computed":6,"predicted":6,"pass":true},'
        '{"p":5,"j":6,"computed":10,"predicted":10,"pass":true}],"summary":"PASS 5/5"}\n',
    ),
}


@pytest.mark.parametrize("argv,text,js", RENDERED.values(), ids=RENDERED.keys())
def test_render_text_and_json_bytes(capsys, argv, text, js):
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, js, "")


def test_grid_with_failing_rows_exits_3(capsys, monkeypatch):
    columns = ["p", "j", "computed", "predicted", "pass"]
    rows = [{"p": 3, "j": 1, "computed": 0, "predicted": 0, "pass": True},
            {"p": 3, "j": 2, "computed": 1, "predicted": 2, "pass": False}]
    monkeypatch.setitem(grids.GRID_RUNNERS, "genus-grid",
                        lambda p, jmax: grids._finish("genus-grid", columns, rows))
    argv = ["grid", "genus-grid", "--p", "3", "--jmax", "2"]
    assert run(capsys, *argv) == (
        3, "p,j,computed,predicted,pass\n3,1,0,0,true\n3,2,1,2,false\n# FAIL 1/2\n", ""
    )
    assert run(capsys, *argv, "--json") == (
        3,
        '{"name":"genus-grid","rows":[{"p":3,"j":1,"computed":0,"predicted":0,"pass":true},'
        '{"p":3,"j":2,"computed":1,"predicted":2,"pass":false}],"summary":"FAIL 1/2"}\n',
        "",
    )


# ------------------------------------------------------------ strict wire

@pytest.mark.parametrize(
    "argv,message",
    [
        (["herbrand", '{"p":2.7,"e":1.2,"breaks":[{"c":1.0,"mult":1.9}]}'],
         'bad filtration object: "p": 2.7 is not a JSON integer'),
        (["herbrand", '{"p":2,"e":1,"m":1.0,"breaks":[{"c":"1","mult":1}]}'],
         'bad filtration object: "m": 1.0 is not a JSON integer'),
        (["herbrand", '{"p":2,"e":1,"breaks":[{"c":"1","mult":true}]}'],
         'bad filtration object: break 1 "mult": True is not a JSON integer'),
        (["herbrand", '{"p":2,"e":1,"breaks":{"c":"1","mult":1}}'],
         "bad filtration object: \"breaks\": {'c': '1', 'mult': 1} is not a JSON array"),
        (["herbrand", '{"p":2,"e":1,"breaks":[{"c":1,"mult":1}]}'],
         "bad filtration object: break 1 \"c\": 1 is not an integer or num/den string"),
        (["herbrand", "--psi", "1e1", '{"p":2,"e":1,"breaks":[{"c":"0.5e1","mult":1}]}'],
         "bad filtration object: break 1 \"c\": '0.5e1' is not an integer or num/den string"),
        (["herbrand", "--psi", "1e1", FILT], "--psi: '1e1' is not an integer or num/den string"),
        (["herbrand", "--phi", " 3", FILT], "--phi: ' 3' is not an integer or num/den string"),
        (["spectrum", "--G", "3", "--p", "3", "--limit", "10", "--sigma0", "1.5"],
         "--sigma0: '1.5' is not an integer or num/den string"),
        (["genus", "--G", "4", "--branch", '{"p":2,"e":2,"upper_jumps":"13"}'],
         "bad branch point object: \"upper_jumps\": '13' is not a JSON array"),
        (["genus", "--G", "2", "--branch", '{"p":true,"e":1,"upper_jumps":["1"]}'],
         'bad branch point object: "p": True is not a JSON integer'),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"upper_jumps":[1]}'],
         "bad branch point object: upper jump 1: 1 is not an integer or num/den string"),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"upper_jumps":["\u0661"]}'],
         "bad branch point object: upper jump 1: '\u0661' is not an integer or num/den string"),
        (["herbrand", "--psi", "1" * 5000, FILT], "--psi: a numeral has more than 4300 digits"),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"upper_jumps":["1/%s"]}' % ("3" * 4301)],
         "bad branch point object: upper jump 1: a numeral has more than 4300 digits"),
        (["reduce", "--p", "2", "x^-" + "1" * 4301], "term 1: a numeral has more than 4300 digits"),
        (["conductor", "--p", "2", "--n", "3", "x^-3 + [1,%s]*x^-5" % ("1" * 5000)],
         "term 2: a numeral has more than 4300 digits"),
        (["tower", "--p", "3", "--j", "1", "--F", "x^-4 ; %s*x^-4" % ("2" * 4301)],
         "coefficient of y^1: term 1: a numeral has more than 4300 digits"),
        (["admissible", "--p", "2", "--check", "1" * 5000],
         "--check: a numeral has more than 4300 digits"),
        (["plan", "--p", "2", "--start", "1,2", "--target", "3," + "7" * 4301],
         "--target: a numeral has more than 4300 digits"),
    ],
    ids=["float-p", "float-m", "bool-mult", "breaks-object", "int-c", "exponent-c",
         "exponent-psi", "space-phi", "decimal-sigma0", "string-upper-jumps", "bool-p",
         "int-upper-jump", "unicode-upper-jump", "overlong-psi", "overlong-upper-jump",
         "overlong-reduce-exponent", "overlong-conductor-component", "overlong-tower-scalar",
         "overlong-check", "overlong-target"],
)
def test_strict_wire_exits_2_naming_the_field(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------- bad arguments

@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--G", "2", "--p", "2", "--a", "-1", "--limit", "5"],
         "subgroup exponent a must lie in 1..64, got -1"),
        (["spectrum", "--G", "2", "--p", "1", "--limit", "5"],
         "characteristic must be prime, got 1"),
        (["spectrum", "--G", "2", "--p", "2", "--a", "0", "--limit", "5"],
         "subgroup exponent a must lie in 1..64, got 0"),
        (["spectrum", "--G", "0", "--p", "2", "--limit", "5"],
         "group order |G| must lie in 1..2^64, got 0"),
        (["grid", "genus-grid", "--p", "1", "--jmax", "3"],
         "characteristic must be prime, got 1"),
        (["grid", "admissible-count", "--p", "1", "--e", "2", "--bound", "3"],
         "characteristic must be prime, got 1"),
        (["grid", "density-check", "--p", "2", "--gmax", "0"],
         "gmax 0 is below the progression increment 1"),
        (["grid", "herbrand-roundtrip", "--count", "0"],
         "grid herbrand-roundtrip has no rows for these parameters"),
        (["spectrum", "--G", "3", "--p", "2", "--limit", "5"],
         "p^a*m = 2 does not divide the group order 3"),
        (["spectrum", "--G", "2", "--p", "2", "--m", "2", "--limit", "5"],
         "tame order 2 must be positive and prime to 2"),
        (["admissible", "--p", "4", "--e", "2", "--bound", "9"],
         "characteristic must be prime, got 4"),
        (["admissible", "--p", "1", "--e", "1", "--bound", "3"],
         "characteristic must be prime, got 1"),
        (["admissible", "--p", "4", "--check", "1,2"], "characteristic must be prime, got 4"),
        (["plan", "--p", "4", "--start", "1", "--target", "3"],
         "characteristic must be prime, got 4"),
        (["admissible", "--p", "2", "--check", "1,,2"],
         "--check: '1,,2' is not a comma-separated list of integers"),
        (["admissible", "--p", "2", "--check", "1_1"],
         "--check: '1_1' is not a comma-separated list of integers"),
        (["admissible", "--p", "2", "--check", "\u0663,6"],
         "--check: '\u0663,6' is not a comma-separated list of integers"),
        (["admissible", "--p", "2", "--check", "+1,2"],
         "--check: '+1,2' is not a comma-separated list of integers"),
        (["admissible", "--p", "2", "--check", ""],
         "--check: '' is not a comma-separated list of integers"),
        (["plan", "--p", "2", "--start", "1,2", "--target", "3,,6"],
         "--target: '3,,6' is not a comma-separated list of integers"),
        (["plan", "--p", "2", "--start", "1,,2", "--target", "3,6"],
         "--start: '1,,2' is not a comma-separated list of integers"),
        (["genus", "--G", "2", "--branch", '{"p":2,"e":1,"m":1,"upper_jumps":["1/2"]}'],
         "invalid branch point: break 1/2: sigma*|I|/|I^sigma| = 1/2 not an integer; "
         "break 1/2: lower jump 1/2 not an integer"),
        (["genus", "--G", "4", "--branch", '{"p":2,"e":2,"upper_jumps":["1"]}'],
         "invalid branch point: break multiplicities sum to 1, expected e = 2"),
        (["genus", "--G", "4", "--branch", '{"p":2,"e":2,"upper_jumps":["2","1"]}'],
         "break indices must be positive and strictly increasing"),
        (["genus", "--G", "4", "--branch", '{"p":2,"e":2,"upper_jumps":["0","1"]}'],
         "break indices must be positive and strictly increasing"),
        (["herbrand", '{"p":2,"e":1,"m":1,"breaks":[{"c":"2","mult":1}]}'],
         "invalid filtration: break 2: lower jump 2 divisible by 2"),
        (["act", "--a", "1", "--s", "5", '{"p":2,"e":2,"m":1,"breaks":[{"c":"1","mult":1}]}'],
         "invalid filtration: break multiplicities sum to 1, expected e = 2"),
        (["spectrum", "--G", "2", "--p", "2", "--sigma0", "1/3", "--limit", "5"],
         "base conductor 1/3 does not fit the inertia data: "
         "genus increment 1/3 is not a natural number"),
        (["spectrum", "--G", "2", "--p", "2", "--sigma0", "-1", "--limit", "5"],
         "base conductor sigma0 must be positive"),
        (["spectrum", "--G", "2", "--p", "2", "--sigma0", "0", "--limit", "5"],
         "base conductor sigma0 must be positive"),
        (["spectrum", "--G", "2", "--p", "2", "--g0", "-3", "--limit", "5"],
         "base genus g0 must lie in 0..2^64, got -3"),
        (["spectrum", "--G", "2", "--p", "2", "--limit", "-4"],
         "genus limit must lie in 0..2^64, got -4"),
        (["spectrum", "--G", "2", "--p", "2", "--limit", "20001"],
         "window 0..20001 holds about 20001 genera, above the cap 20000"),
        (["grid", "density-check", "--p", "2", "--gmax", "40000"],
         "window 0..40000 holds about 40000 genera, above the cap 20000"),
        (["grid", "herbrand-roundtrip", "--count", "2001"], "count must lie in 0..2000, got 2001"),
        (["tower", "--p", "257", "--j", "1", "--F", "x^-5"],
         "extension characteristic p must lie in 2..251, got 257"),
        (["grid", "econd-grid", "--p", "257", "--jmax", "3", "--smax", "5"],
         "extension characteristic p must lie in 2..251, got 257"),
        (["reduce", "--p", "2", "x^-" + str(2**14270)],
         "term 1: exponent outside the bound |e| <= 2^64"),
        (["conductor", "--p", "3", "x^-1 + x^" + str(2**64 + 1)],
         "term 2: exponent outside the bound |e| <= 2^64"),
        (["tower", "--p", "2", "--j", "1", "--F", "x^-5 ; x^-%d" % 2**65],
         "coefficient of y^1: term 1: exponent outside the bound |e| <= 2^64"),
        (["deform", "--p", "2", "--s", "1180591620717411303425", "--t0", "1", "--", "x^-3"],
         "target conductor s must lie in 1..2^64"),
        (["deform", "--p", "3", "--s", "7" * 4000, "--", "x^-1"],
         "target conductor s must lie in 1..2^64"),
    ],
    ids=["spectrum-negative-a", "spectrum-p-1", "spectrum-a-0", "spectrum-G-0",
         "genus-grid-p-1", "admissible-count-p-1", "density-check-gmax-0",
         "herbrand-roundtrip-count-0", "spectrum-G-not-divisible", "spectrum-m-not-prime-to-p",
         "admissible-p-4", "admissible-p-1", "admissible-check-p-4", "plan-p-4",
         "check-empty-field", "check-underscore", "check-unicode-digit", "check-plus-sign",
         "check-empty", "target-empty-field", "start-empty-field",
         "genus-non-admissible-jump", "genus-jump-count", "genus-descending-jumps",
         "genus-zero-jump", "herbrand-invalid-filtration", "act-invalid-filtration",
         "spectrum-sigma0-off-lattice", "spectrum-sigma0-negative",
         "spectrum-sigma0-0", "spectrum-g0-negative", "spectrum-limit-negative",
         "spectrum-above-genera-cap", "density-check-above-genera-cap",
         "herbrand-roundtrip-above-count-cap", "tower-above-p-cap", "econd-grid-above-p-cap",
         "reduce-exponent-above-2^64", "conductor-exponent-above-2^64",
         "tower-exponent-above-2^64", "deform-s-above-2^64", "deform-s-4000-digits"],
)
def test_bad_arguments_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------ size bounds

@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["conductor", "--p", "2", "--n", "65", "x^-1"], 2, "",
         "error: field size 2^65 exceeds the bound p^n <= 2^64\n"),
        (["conductor", "--p", str(2**64 + 13), "x^-1"], 2, "",
         "error: characteristic p must lie in 0..2^64 - 1\n"),
        (["conductor", "--p", "2", "--n", "64", "x^-1"], 0, "conductor: 1\n", ""),
        (["admissible", "--p", str(2**61 - 1), "--e", "1", "--bound", "1"], 0, "1\n", ""),
        (["admissible", "--p", str(2**61 + 1), "--e", "1", "--bound", "1"], 2, "",
         f"error: characteristic must be prime, got {2**61 + 1}\n"),
        (["genus", "--G", "9" * 3000, "--gx", "9" * 3000], 2, "",
         "error: group order |G| must lie in 1..2^64\n"),
        (["genus", "--G", "2", "--gx", "9" * 3000], 2, "",
         "error: base genus g_X must lie in 0..2^64\n"),
        (["genus", "--G", str(2**64 + 1), "--gx", "0"], 2, "",
         "error: group order |G| must lie in 1..2^64\n"),
        (["genus", "--G", str(2**64), "--gx", str(2**64)], 0,
         f"genus: {2**64 * (2**64 - 1) + 1}\n", ""),
        (["spectrum", "--G", str(2**64 + 1), "--p", "2", "--limit", "10"], 2, "",
         "error: group order |G| must lie in 1..2^64\n"),
        (["spectrum", "--G", str((10**4299 - 1) // (2**61 - 1) * (2**61 - 1)),
          "--p", str(2**61 - 1), "--limit", "10"], 2, "",
         "error: group order |G| must lie in 1..2^64\n"),
        (["spectrum", "--G", str(2**64), "--p", "2", "--limit", "10"], 0,
         f"genera: 0\nincrement: {2**63}\nresidues:\n", ""),
        (["spectrum", "--G", "4", "--p", "2", "--sigma0", str(2**64), "--limit", "10"], 0,
         "genera: 0, 1, 3, 5, 7, 9\nincrement: 2\nresidues: 1\n", ""),
        (["spectrum", "--G", "12", "--p", "2", "--m", "3", "--sigma0", str(2**63),
          "--limit", "10"], 0, "genera: 0, 1, 7\nincrement: 6\nresidues: 1\n", ""),
        (["kato", "--n", str(2**64), "--dK", str(2**64), "--dk", "0", "--mw", str(2**64)], 0,
         "mu: 1, smooth: false\n", ""),
        (["herbrand", "--psi", f"{2**64}/{2**64 - 1}",
          '{"p":3,"e":0,"m":%d,"breaks":[]}' % 2**64], 0,
         f"psi({2**64}/{2**64 - 1}) = {2**128}/{2**64 - 1}\n", ""),
        (["genus", "--G", "3", "--branch", '{"p":3,"e":1,"upper_jumps":["%d"]}' % 2**64], 0,
         f"genus: {2**64 - 1}\n", ""),
    ],
    ids=["n-65", "p-above-2^64", "n-64", "mersenne-61", "composite-2^61+1",
         "genus-G-3000-digits", "genus-gx-3000-digits", "genus-G-above-2^64",
         "genus-G-gx-at-2^64", "spectrum-G-above-2^64", "spectrum-G-4299-digits",
         "spectrum-G-at-2^64", "spectrum-sigma0-at-2^64", "spectrum-m-3-sigma0-at-2^63",
         "kato-at-2^64", "herbrand-psi-and-m-at-2^64",
         "genus-jump-at-2^64"],
)
def test_field_and_prime_bounds_are_fast(capsys, argv, code, out, err):
    start = time.perf_counter()
    assert run(capsys, *argv) == (code, out, err)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv,last_line",
    [
        (["tower", "--p", "251", "--j", "1", "--F", "x^-300"], "conductor: 300"),
        (["spectrum", "--G", "2", "--p", "2", "--limit", "20000"], "residues: 0"),
        (["grid", "herbrand-roundtrip", "--count", "2000", "--seed", "1"], "# PASS 2000/2000"),
        (["spectrum", "--G", "2", "--p", "2", "--sigma0", "30000001", "--limit", "5"],
         "residues: 0"),
    ],
    ids=["tower-p-at-cap", "spectrum-genera-at-cap", "herbrand-roundtrip-count-at-cap",
         "spectrum-large-sigma0"],
)
def test_calls_at_the_cost_caps_are_fast(capsys, argv, last_line):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, err, out.splitlines()[-1]) == (0, "", last_line)
    assert elapsed < 2.0


_HUGE = str(10**12)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["admissible", "--p", "2", "--e", "1", "--bound", "300002"],
         "e 1 and bound 300002 give more than 150000 admissible sequences"),
        (["admissible", "--p", "2", "--e", "4", "--bound", "2000"],
         "e 4 and bound 2000 give more than 150000 admissible sequences"),
        (["admissible", "--p", "3", "--e", _HUGE, "--bound", "5"],
         f"length e must lie in 1..65, got {_HUGE}"),
        (["grid", "admissible-count", "--p", "2", "--e", "4", "--bound", "40"],
         "e 4 and bound 40 leave more than 300000 tuples to brute-force"),
        (["grid", "admissible-count", "--p", "2", "--e", _HUGE, "--bound", "1"],
         f"e {_HUGE} and bound 1 leave more than 300000 tuples to brute-force"),
        (["grid", "genus-grid", "--p", "2", "--jmax", "10001"],
         "jmax must lie in 0..10000, got 10001"),
        (["grid", "econd-grid", "--p", "251", "--jmax", "1", "--smax", "230"],
         "jmax 1 and smax 230 at p = 251 exceed the cap jmax*smax*(p + 10) <= 60000"),
        (["grid", "econd-grid", "--p", "2", "--jmax", _HUGE, "--smax", "-1"],
         f"jmax {_HUGE} and smax -1 at p = 2 exceed the cap jmax*smax*(p + 10) <= 60000"),
        (["grid", "density-check", "--p", "2003", "--gmax", "20000000"],
         "gmax must lie in 0..100000, got 20000000"),
        (["spectrum", "--G", "2", "--p", "2", "--a", _HUGE, "--limit", "5"],
         f"subgroup exponent a must lie in 1..64, got {_HUGE}"),
        (["genus", "--G", "4", "--branch",
          '{"p":2,"e":%s,"m":1,"upper_jumps":["1"]}' % _HUGE],
         f"bad branch point object: wild order 2^{_HUGE} exceeds the bound p^e <= 2^64"),
        (["herbrand", '{"p":2,"e":2,"m":1,"breaks":[{"c":"1","mult":%s}]}' % _HUGE],
         "break multiplicities exceed the bound p^(their sum) <= 2^64"),
    ],
    ids=["admissible-above-sequence-cap", "admissible-e-4", "admissible-huge-e",
         "admissible-count-above-tuple-cap", "admissible-count-huge-e",
         "genus-grid-above-jmax-cap", "econd-grid-above-work-cap",
         "econd-grid-huge-jmax-negative-smax", "density-check-above-gmax-cap",
         "spectrum-huge-a", "genus-huge-wild-exponent", "herbrand-huge-multiplicity"],
)
def test_inputs_above_the_cost_caps_exit_2_fast(capsys, argv, message):
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("command", [["herbrand"], ["act", "--a", "1", "--s", "3"]])
def test_huge_break_denominators_exit_2_fast(capsys, command):
    # 64 breaks k + 1/d_k with 3,999-digit odd d_k: the lcm of the first
    # denominator alone is above m*2^64, so the filtration stops at break 1
    d = 10**3998 + 1
    breaks = [{"c": f"{k * (d + 2 * k) + 1}/{d + 2 * k}", "mult": 1} for k in range(1, 65)]
    filt = json.dumps({"p": 2, "e": 64, "m": 1, "breaks": breaks})
    start = time.perf_counter()
    assert run(capsys, *command, filt) == (
        2, "", "error: break 1: the lcm of the break denominators exceeds the bound m*2^64\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv,last_line",
    [
        (["admissible", "--p", "2", "--e", "1", "--bound", "300000"], "299999"),
        (["grid", "admissible-count", "--p", "2", "--e", "2", "--bound", "547"], "# PASS 2/2"),
        (["grid", "genus-grid", "--p", "251", "--jmax", "10000"], "# PASS 9961/9961"),
        (["grid", "econd-grid", "--p", "13", "--jmax", "10", "--smax", "260"],
         "# PASS 2345/2345"),
        (["grid", "econd-grid", "--p", "251", "--jmax", "1", "--smax", "229"],
         "# PASS 228/228"),
        (["grid", "density-check", "--p", "251", "--gmax", "100000"], "# PASS 100002/100002"),
    ],
    ids=["admissible-at-sequence-cap", "admissible-count-at-tuple-cap",
         "genus-grid-at-jmax-cap", "econd-grid-at-work-cap-p-13",
         "econd-grid-at-work-cap-p-251", "density-check-at-gmax-cap"],
)
def test_calls_at_the_grid_and_enumeration_caps_are_fast(capsys, argv, last_line):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, err, out.splitlines()[-1]) == (0, "", last_line)
    assert elapsed < 2.0


def test_genus_with_no_branch_point_over_the_line_exits_3(capsys):
    # each flag is valid on its own; together they describe no cover
    assert run(capsys, "genus", "--G", "4") == (
        3, "", "invariant violation: genus -3 is negative; no such cover exists\n")


# ---------------------------------------------------------------- error edge

# a 4300-digit numeral, the longest int() reads: results built from it are
# longer than str() writes, so the values that would build them are bounded
_N = "9" * 4299 + "7"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kato", "--n", "1", "--dK", _N, "--dk", "-" + _N, "--mw", "1"],
         "generic degree d_K must lie in 0..2^64"),
        (["kato", "--n", "1", "--dK", "1", "--dk", "-1", "--mw", "1"],
         "special degree d_k must lie in 0..1, got -1"),
        (["genus", "--G", str(2**64), "--branch", '{"p":2,"e":1,"upper_jumps":["%s"]}' % _N],
         "break 1: the break index exceeds the bound 2^64"),
        (["genus", "--G", "6", "--branch", '{"p":2,"e":1,"m":3,"upper_jumps":["%s/2"]}' % _N],
         "break 1: the break index exceeds the bound 2^64"),
        (["herbrand", '{"p":2,"e":1,"m":3,"breaks":[{"c":"%s/2","mult":1}]}' % _N],
         "break 1: the break index exceeds the bound 2^64"),
        (["act", "--a", "1", "--s", "5", '{"p":2,"e":1,"m":3,"breaks":[{"c":"%s/2","mult":1}]}'
          % _N], "break 1: the break index exceeds the bound 2^64"),
        (["spectrum", "--G", "2", "--p", "2", "--m", _N, "--limit", "10"],
         "tame order m must lie in 1..2^64"),
        (["spectrum", "--G", "8", "--p", "2", "--a", "2", "--sigma0", "1/" + _N, "--limit", "10"],
         "sigma exceeds the bound |sigma| <= 2^64 with a denominator at most m*2^64"),
        (["tower", "--p", "2", "--j", _N, "--F", "x^-5 ; x^-18446744073709551616"],
         "first jump j must lie in 1..2^64"),
        (["admissible", "--p", str(2**61 - 1), "--e", "1000", "--bound", _N],
         "length e must lie in 1..65, got 1000"),
        (["herbrand", "--psi", _N, '{"p":2,"e":2,"breaks":[{"c":"1","mult":2}]}'],
         "--psi: numerator or denominator exceeds the bound 2^64"),
        (["herbrand", "--phi", f"1/{2**64 + 1}", '{"p":2,"e":1,"breaks":[{"c":"1","mult":1}]}'],
         "--phi: numerator or denominator exceeds the bound 2^64"),
        (["herbrand", "--psi", "9", '{"p":2,"e":0,"m":%s,"breaks":[]}' % _N],
         "bad filtration object: tame order m must lie in 1..2^64"),
        (["herbrand", '{"p": %s, "e": 1, "breaks": []}' % ("1" * 4400)],
         "bad filtration JSON: a numeral has more than 4300 digits"),
        (["genus", "--G", "2", "--branch", '{"p": 2, "e": %s}' % ("1" * 4400)],
         "bad branch point JSON: a numeral has more than 4300 digits"),
        (["herbrand", "[" * 100000], "bad filtration JSON: nested too deeply"),
        (["act", "--a", "1", "--s", "3", '{"a":' * 5000 + "1" + "}" * 5000],
         "bad filtration JSON: nested too deeply"),
    ],
    ids=["kato-huge-degrees", "kato-negative-special-degree", "genus-huge-jump",
         "genus-huge-tame-jump", "herbrand-huge-tame-break", "act-huge-tame-break",
         "spectrum-huge-m", "spectrum-huge-sigma0-denominator", "tower-huge-first-jump",
         "admissible-huge-final-jump",
         "herbrand-huge-psi", "herbrand-huge-phi-denominator", "herbrand-huge-m",
         "json-numeral-past-the-digit-limit", "branch-json-numeral-past-the-digit-limit",
         "json-array-past-the-recursion-limit", "json-object-past-the-recursion-limit"],
)
@pytest.mark.parametrize("js", [[], ["--json"]], ids=["text", "json"])
def test_inputs_past_python_limits_exit_2(capsys, argv, message, js):
    assert run(capsys, *argv, *js) == (2, "", f"error: {message}\n")


def test_main_lets_a_library_value_error_through(monkeypatch):
    # only InputError exits 2: a plain ValueError is a bug, not bad input
    def broken(k):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "kato_mu", broken)
    with pytest.raises(ValueError, match="^a bug$"):
        main(["kato", "--n", "1", "--dK", "0", "--dk", "0", "--mw", "1"])


def test_the_library_raises_no_plain_value_error():
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_library_has_no_isinstance_int():
    # a bool passes isinstance(x, int); the library tests type(x) is int instead
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ------------------------------------------------------------------ README

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """(argv, expected) for every `ramforge ...` line after "## Command line";
    expected is the text of a trailing `# ...` comment, or ""."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    out = []
    for line in text.splitlines():
        if line.startswith("ramforge "):
            command, _, expected = line.partition(" # ")
            out.append((shlex.split(command)[1:], expected.strip()))
    return out


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv, _ in README_COMMANDS} == {
        "reduce", "conductor", "genus", "deform", "act", "tower", "herbrand",
        "admissible", "plan", "spectrum", "kato", "grid",
    }


@pytest.mark.parametrize(
    "argv,expected", README_COMMANDS,
    ids=[argv[1] if argv[0] == "grid" else argv[0] for argv, _ in README_COMMANDS],
)
def test_readme_command(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert expected in out
    if argv[0] == "grid":
        verdict, _, frac = out.splitlines()[-1].removeprefix("# ").partition(" ")
        ok, _, total = frac.partition("/")
        assert verdict == "PASS" and ok == total and int(total) > 0


def test_readme_python_session():
    """The README's `>>>` session runs as shown under stdlib doctest."""
    session = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(session, {}, "README", str(README), 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted > 0 and failed == 0, "".join(report)


# ---------------------------------------------------------------- packaging

def test_console_script_target_resolves():
    # the [project.scripts] entry names a callable in a package that
    # [tool.setuptools.packages.find] finds; installing it is left to CI
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    target = project["project"]["scripts"]["ramforge"]
    assert target == "ramforge.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    where = project["tool"]["setuptools"]["packages"]["find"]["where"]
    package = Path(importlib.import_module(module.split(".")[0]).__file__).parent
    assert package.parent in [root / w for w in where]
