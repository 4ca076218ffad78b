"""The cli-cold deck: seeded `ramforge` command lines with expected output.

Commands come in cycles of 100: 95 drawn from the eleven computing
subcommands (each in text or --json form, the class sequence stratified so
every subcommand gets 8 or 9 slots) and one run of each README grid at its
README parameters.  The commands that build a field draw its degree and
their pole count from stratified samples, so each cycle holds nearly the
same spread of sizes.  Each command carries what its check needs; nothing
here imports ramforge.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from . import gen
from . import oracle as O

CLASSES = ["reduce", "conductor", "deform", "tower", "genus", "act", "herbrand",
           "admissible", "plan", "spectrum", "kato"]
FIELD_CLASSES = ("reduce", "conductor", "deform", "tower")
GRIDS = [
    ["genus-grid", "--p", "3", "--jmax", "25"],
    ["econd-grid", "--p", "2", "--jmax", "7", "--smax", "40"],
    ["herbrand-roundtrip", "--count", "1000", "--seed", "1"],
    ["admissible-count", "--p", "2", "--e", "3", "--bound", "16"],
    ["density-check", "--p", "5", "--gmax", "100"],
]
# largest extension degree per characteristic; keeps the cold modulus search
# of one call under ~20 ms at this commit
MAX_N = {2: 12, 3: 6, 5: 4, 7: 3}
CYCLE = 100


def _pick_field(rng, u):
    p = rng.choice([2, 3, 5, 7])
    return O.field(p, 1 + int(u * MAX_N[p]))


def _planted(rng, F, u):
    """h^p - h + c x^-s with 2..40 poles, log-uniform; returns (f, s)."""
    k = round(gen.log_uniform(u, 2, 40))
    h = {-d: gen.nonzero(rng, F) for d in rng.sample(range(1, 2 * k + 1), k)}
    s = gen.prime_to(rng, F.p, 1, 2 * k)
    return O.l_add(F, O.l_frob_minus_id(F, h), {-s: gen.nonzero(rng, F)}), s


def _field_flags(F, js):
    return ["--p", str(F.p), "--n", str(F.n)] + (["--json"] if js else [])


def _filt_json(p, e, m, breaks):
    return json.dumps({"p": p, "e": e, "m": m,
                       "breaks": [{"c": str(c), "mult": l} for c, l in breaks]})


def _random_filt(rng, e_max=4, m_max=6):
    p = rng.choice([2, 3, 5, 7])
    e = rng.randint(1, e_max)
    m = gen.tame_order(rng, p, m_max)
    lower = gen.random_lower(rng, p, e)
    return p, e, m, lower, O.lower_to_upper(m, p, lower)


def _lines(*lines):
    return {"lines": list(lines)}


def cmd_reduce(rng, js, u_n, u_k):
    F = _pick_field(rng, u_n)
    f, s = _planted(rng, F, u_k)
    argv = ["reduce"] + _field_flags(F, js) + [O.l_text(F, f)]
    return argv, {"reduce": [F.p, F.n, O.l_text(F, f), s]}


def cmd_conductor(rng, js, u_n, u_k):
    F = _pick_field(rng, u_n)
    f, s = _planted(rng, F, u_k)
    argv = ["conductor"] + _field_flags(F, js) + [O.l_text(F, f)]
    return argv, {"json": {"conductor": s}} if js else _lines(f"conductor: {s}")


def cmd_deform(rng, js, u_n, u_k):
    F = _pick_field(rng, u_n)
    f, s = _planted(rng, F, u_k)
    target = gen.prime_to(rng, F.p, s + 1, 3 * s + 8)
    t0 = gen.nonzero(rng, F)
    out = O.l_text(F, O.l_add(F, f, {-target: t0}))
    argv = (["deform"] + _field_flags(F, js)
            + ["--s", str(target), "--t0", F.text(t0), O.l_text(F, f)])
    if js:
        return argv, {"json": {"f": out, "conductor": target}}
    return argv, _lines(f"f: {out}", f"conductor: {target}")


def cmd_tower(rng, js, u_n, u_k):
    F = _pick_field(rng, u_n)
    it = gen.tower_item(rng, F, u_k * 0.6, gen.prime_to(rng, F.p, 1, 9))
    j, (s1, s2), J = it["j"], it["jumps"], it["J"]
    argv = ["tower"] + _field_flags(F, js) + ["--j", str(j), "--F", it["F"]]
    if js:
        return argv, {"json": {"upper_jumps": [s1, s2], "last_lower_jump": J,
                               "conductor": s2}}
    return argv, _lines(f"upper jumps: ({s1}, {s2})", f"last lower jump: {J}",
                        f"conductor: {s2}")


def cmd_genus(rng, js):
    p = rng.choice([2, 3, 5, 7])
    bps = []
    for _ in range(rng.randint(1, 3)):
        e = rng.randint(1, 3)
        m = gen.tame_order(rng, p, 4)
        lower = gen.random_lower(rng, p, e)
        upper = [str(s) for s, l in O.lower_to_upper(m, p, lower) for _ in range(l)]
        bps.append((e, m, upper, O.hilbert_degree(m, p, e, lower)))
    G = 2 * math.lcm(*(m for _, m, _, _ in bps)) * p ** max(e for e, _, _, _ in bps)
    gx, g = gen.base_genus(rng, G, [(m * p**e, d) for e, m, _, d in bps])
    argv = ["genus", "--G", str(G), "--gx", str(gx)] + (["--json"] if js else [])
    for e, m, upper, _ in bps:
        argv += ["--branch", json.dumps({"p": p, "e": e, "m": m, "upper_jumps": upper})]
    return argv, {"json": {"genus": g}} if js else _lines(f"genus: {g}")


def cmd_act(rng, js):
    p, e, m, lower, breaks = _random_filt(rng)
    a = rng.randint(1, breaks[-1][1])
    s = gen.act_target(rng, p, m, e, a, lower, breaks[-1][0])
    acted = gen.acted(p, m, breaks, a, s)
    argv = ["act", "--a", str(a), "--s", str(s)] + (["--json"] if js else [])
    argv.append(_filt_json(p, e, m, breaks))
    if js:
        return argv, {"json": json.loads(_filt_json(p, e, m, acted))}
    bs = ", ".join(f"({c}, {l})" for c, l in acted)
    return argv, _lines(f"filtration: p={p} e={e} m={m} breaks=[{bs}]")


def cmd_herbrand(rng, js):
    p, e, m, lower, breaks = _random_filt(rng)
    argv = ["herbrand"] + (["--json"] if js else [])
    mode = rng.choice(["psi", "phi", "lower"])
    if mode == "lower":
        argv.append(_filt_json(p, e, m, breaks))
        if js:
            return argv, {"json": {"lower_jumps": [{"j": j, "mult": l} for j, l in lower]}}
        return argv, _lines("lower jumps: " + ", ".join(f"({j}, {l})" for j, l in lower))
    den = rng.randint(1, 12)
    c = Fraction(rng.randint(0, 2 * math.ceil(breaks[-1][0] * den) + den), den)
    fn = O.psi if mode == "psi" else O.phi
    v = fn(m, p, breaks, c)
    argv += [f"--{mode}", str(c), _filt_json(p, e, m, breaks)]
    if js:
        return argv, {"json": {mode: {"at": str(c), "value": str(v)}}}
    return argv, _lines(f"{mode}({c}) = {v}")


def cmd_admissible(rng, js):
    p = rng.choice([2, 3, 5, 7])
    flag = ["--json"] if js else []
    if rng.random() < 0.5:
        seq = [rng.randint(1, 12)]
        for _ in range(rng.randint(0, 3)):
            seq.append(p * seq[-1] + rng.choice([0, 0, 1, 2, 3]))
        ok = O.admissible(seq, p)
        argv = ["admissible", "--p", str(p), "--check", ",".join(map(str, seq))] + flag
        if js:
            return argv, {"json": {"sequence": seq, "admissible": ok}}
        return argv, _lines(f"admissible: {str(ok).lower()}")
    e = rng.randint(1, 3)
    bound = rng.randint(p ** (e - 1), p ** (e - 1) + 18)
    seqs = [list(s) for s in itertools.product(range(1, bound + 1), repeat=e)
            if O.admissible(list(s), p)]
    argv = ["admissible", "--p", str(p), "--e", str(e), "--bound", str(bound)] + flag
    if js:
        return argv, {"json": {"sequences": seqs}}
    return argv, _lines(*(",".join(map(str, s)) for s in seqs))


def _admissible_seq(rng, p, length, lo):
    seq = [gen.prime_to(rng, p, lo, lo + 6)]
    for _ in range(length - 1):
        low = p * seq[-1]
        seq.append(low if rng.random() < 0.3 else gen.prime_to(rng, p, low + 1, low + 6))
    return seq


def cmd_plan(rng, js):
    p = rng.choice([2, 3, 5, 7])
    length = rng.randint(1, 4)
    start = _admissible_seq(rng, p, length, 1)
    while True:
        target = _admissible_seq(rng, p, length, start[0] + 1)
        if all(a < b for a, b in zip(start, target)):
            break
    steps = [(1, start[0], target[0])] + [
        (i + 1, p * target[i - 1], target[i]) for i in range(1, length)
    ]
    argv = ["plan", "--p", str(p), "--start", ",".join(map(str, start)),
            "--target", ",".join(map(str, target))] + (["--json"] if js else [])
    if js:
        return argv, {"json": {"steps": [{"level": lv, "start": a, "target": b}
                                         for lv, a, b in steps]}}
    return argv, _lines(*(
        f"level {lv}: minimal {a}, deform {a} -> {b}" if a != b
        else f"level {lv}: minimal {a}, no deformation needed" for lv, a, b in steps
    ))


def cmd_spectrum(rng, js):
    it = gen.genus_item(rng, rng.choice([2, 3, 5, 7]), rng.randint(1, 4), rng.randint(1, 3),
                        rng.random())
    p, a, m, G = it["p"], it["a"], it["m"], it["G"]
    sigma0 = it["want_upper"][-1][0]
    g0 = it["want_genus"]
    genera = it["want_spectrum"]
    inc = p * G * (p**a - 1) // (2 * p**a)
    residues = sorted({g % inc for g in genera if g != g0})
    argv = ["spectrum", "--G", str(G), "--p", str(p), "--a", str(a), "--m", str(m),
            "--sigma0", str(sigma0), "--g0", str(g0), "--s-iota", str(it["s_iota"]),
            "--limit", str(it["limit"])] + (["--json"] if js else [])
    if js:
        return argv, {"json": {"genera": genera, "increment": inc, "residues": residues}}
    return argv, _lines("genera: " + ", ".join(map(str, genera)), f"increment: {inc}",
                        "residues: " + ", ".join(map(str, residues)))


def cmd_kato(rng, js):
    n = rng.randint(1, 64)
    dk = rng.randint(0, 200)
    dK = dk + (0 if rng.random() < 0.3 else rng.randint(1, 50))
    mw = 1 if rng.random() < 0.4 else rng.randint(1, dK - dk + 1)
    mu = 1 - mw + dK - dk
    smooth = dK == dk and mw == 1
    argv = ["kato", "--n", str(n), "--dK", str(dK), "--dk", str(dk), "--mw", str(mw)]
    if js:
        return argv + ["--json"], {"json": {"mu": mu, "smooth": smooth}}
    return argv, _lines(f"mu: {mu}, smooth: {str(smooth).lower()}")


MAKERS = {name: globals()["cmd_" + name] for name in CLASSES}


def deck(rng, cycles, regular=CYCLE - len(GRIDS)):
    """`cycles` cycles of `regular` commands plus one of each grid:
    {"argv", "cls", "want"}."""
    out = []
    for _ in range(cycles):
        classes = (CLASSES * math.ceil(regular / len(CLASSES)))[:regular]
        rng.shuffle(classes)
        n_field = sum(c in FIELD_CLASSES for c in classes)
        sizes = iter(zip(gen.strata(rng, n_field), gen.strata(rng, n_field)))
        cmds = []
        for cls in classes:
            knobs = next(sizes) if cls in FIELD_CLASSES else ()
            argv, want = MAKERS[cls](rng, rng.random() < 0.5, *knobs)
            cmds.append({"argv": argv, "cls": cls, "want": want})
        block = regular // len(GRIDS)
        grids = GRIDS[:]
        rng.shuffle(grids)
        for i, g in enumerate(grids):
            js = rng.random() < 0.5
            pos = i * (block + 1) + rng.randrange(block + 1)
            cmds.insert(pos, {"argv": ["grid"] + g + (["--json"] if js else []),
                              "cls": "grid", "want": {"grid": g[0]}})
        out += cmds
    return out


def spec_keys(cmds):
    """(p, n) of every field a command builds, in first-use order."""
    keys = []
    for c in cmds:
        if c["cls"] in FIELD_CLASSES:
            argv = c["argv"]
            key = (int(argv[argv.index("--p") + 1]), int(argv[argv.index("--n") + 1]))
            if key not in keys:
                keys.append(key)
    return keys


def check(cmd, code, stdout):
    """None if the command's output is right, else a one-line reason."""
    if code != 0:
        return f"exit {code}"
    want = cmd["want"]
    lines = stdout.splitlines()
    if "lines" in want:
        return None if lines == want["lines"] else f"stdout {lines[:3]} != {want['lines'][:3]}"
    if "json" in want:
        try:
            data = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        bad = {k: data.get(k) for k, v in want["json"].items() if data.get(k) != v}
        return f"JSON fields {bad} differ" if bad else None
    if "grid" in want:
        if "--json" in cmd["argv"]:
            summary = json.loads(stdout)["summary"]
        else:
            summary = lines[-1].removeprefix("# ") if lines else ""
        verdict, _, frac = summary.partition(" ")
        ok, _, total = frac.partition("/")
        return None if verdict == "PASS" and ok == total and int(total) > 0 else summary
    p, n, f_text, s = want["reduce"]
    F = O.field(p, n)
    if "--json" in cmd["argv"]:
        data = json.loads(stdout)
        cond, reduced, subst = data["conductor"], data["f_reduced"], data["substitution"]
    else:
        fields = dict(line.split(": ", 1) for line in lines)
        cond = int(fields["conductor"])
        reduced, subst = fields["f_reduced"], fields["substitution"]
    if cond != s:
        return f"conductor {cond} != planted {s}"
    f, red, h = (O.l_parse(F, t) for t in (f_text, reduced, subst))
    if O.l_add(F, f, red, -1) != O.l_frob_minus_id(F, h):
        return "f - reduced != h^p - h"
    return None
