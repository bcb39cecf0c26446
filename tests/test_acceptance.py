"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single line

    [criterion N] PASS|FAIL -- <what was checked> (tolerance: ...)

before asserting, so the result survives in captured output either way.
"""

import glob
import itertools
import os
import random
import shutil
import time

import pytest

from sygus.core import (
    Apply,
    BOOL,
    Grammar,
    Hole,
    INT,
    Lit,
    Problem,
    Var,
    expand_macros,
    subst,
    term_size,
)
from sygus.engine import (
    Enumerator,
    Solution,
    cegis_solve,
    generate_nuggets,
    unify_solve,
)
from sygus.frontend import emit_term, parse, parse_file, emit_problem
from sygus.harness import (
    RunRecord,
    SIZE_EDGES,
    TIME_EDGES,
    _pick_solver,
    score,
    size_bucket,
    time_bucket,
)
from sygus.oracle import check_conformance, external_check, verify
from sygus.semantics import Evaluator, eval_constraints

from reference import enumerate_all

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _b(name):
    return os.path.join(BENCH, name)


def _report(n, ok, msg):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} -- {msg}")
    assert ok, f"criterion {n}: {msg}"


def _smt_cmd():
    """Command line for an installed external solver, if any."""
    if shutil.which("z3"):
        return ["z3", "-in"]
    for name in ("cvc5", "cvc4"):
        if shutil.which(name):
            return [name, "--lang", "smt2"]
    return None


def test_criterion_1_corpus_round_trip():
    t0 = time.monotonic()
    paths = sorted(glob.glob(os.path.join(BENCH, "*.sl")))
    ok_count = 0
    for path in paths:
        p = parse_file(path)
        if parse(emit_problem(p)) == p:
            ok_count += 1
    elapsed = time.monotonic() - t0
    ok = ok_count == len(paths) >= 9 and elapsed < 1.0
    _report(1, ok, f"corpus round-trip {ok_count}/{len(paths)} structurally identical "
                   f"in {elapsed:.2f}s (tolerance: < 1 s)")


def test_criterion_2_abs():
    t0 = time.monotonic()
    p = parse_file(_b("abs.sl"))
    sol = cegis_solve(p, 10)
    elapsed = time.monotonic() - t0
    solved = isinstance(sol, Solution)
    no_cex = False
    tier3 = "external solver unavailable, skipped"
    tier3_ok = True
    if solved:
        sols = sol.as_map()
        no_cex = all(
            eval_constraints(p, sols, {"x": v}) for v in range(-64, 65)
        )
        rng = random.Random(0)
        no_cex = no_cex and all(
            eval_constraints(p, sols, {"x": rng.randint(-(10**9), 10**9)})
            for _ in range(10_000)
        )
        cmd = _smt_cmd()
        if cmd:
            v = external_check(p, sols, cmd)
            tier3_ok = v.kind == "valid"
            tier3 = f"external verdict {v.kind}"
    ok = solved and no_cex and tier3_ok and elapsed < 10.0
    _report(2, ok, f"abs solved={solved}, no counterexample on [-64,64] exhaustive + "
                   f"10^4 samples={no_cex}, {tier3}, in {elapsed:.2f}s (tolerance: < 10 s)")


def test_criterion_3_qm_inner():
    t0 = time.monotonic()
    p = parse_file(_b("qm_inner.sl"))
    sol = unify_solve(p, 60)
    elapsed = time.monotonic() - t0
    solved = isinstance(sol, Solution)
    size = conforms = semantic = False
    if solved:
        params, body = sol.as_map()["qm-inner-loop"]
        size = term_size(body) <= 7
        conforms = check_conformance(body, p.targets[0].grammar).kind == "valid"
        ev = Evaluator(p.macro_map())
        semantic = ev.eval(body, {params[0]: 0}) == 7 and all(
            ev.eval(body, {params[0]: x}) == x - 1 for x in range(1, 1001)
        )
    ok = solved and size and conforms and semantic and elapsed < 60.0
    _report(3, ok, f"qm-inner-loop solved={solved}, size<=7={size}, conformant={conforms}, "
                   f"f(0)=7 and f(x)=x-1 on [1,1000]={semantic}, in {elapsed:.2f}s "
                   f"(tolerance: < 60 s)")


def test_criterion_4_flashfill_initials():
    t0 = time.monotonic()
    p = parse_file(_b("initials.sl"))
    sol = unify_solve(p, 120)
    elapsed = time.monotonic() - t0
    solved = isinstance(sol, Solution)
    conforms = agrees = False
    if solved:
        _, body = sol.as_map()["f"]
        conforms = check_conformance(body, p.targets[0].grammar).kind == "valid"
        agrees = verify(p, sol.as_map()).kind == "valid"  # PBE: checks all 4 examples
    ok = solved and conforms and agrees and elapsed < 120.0
    _report(4, ok, f"initials solved={solved}, grammar-conformant={conforms}, "
                   f"all 4 examples={agrees}, in {elapsed:.2f}s (tolerance: < 120 s)")


def test_criterion_5_invariant():
    p = parse_file(_b("inv_loop.sl"))
    shape = len(p.constraints) == 3 and len(p.universals) == 8
    vc2 = emit_term(expand_macros(p.constraints[1], p.macro_map()))
    verbatim = "(= i! (- i 1))" in vc2 and "(= j! (+ j 1))" in vc2

    t0 = time.monotonic()
    g = parse_file(_b("inv_loop_guarded.sl"))
    sol = unify_solve(g, 60)
    elapsed = time.monotonic() - t0
    solved = isinstance(sol, Solution)
    tier2 = False
    tier3 = "external solver unavailable, skipped"
    tier3_ok = True
    if solved:
        v = verify(g, sol.as_map())
        tier2 = v.kind in ("valid", "unknown")  # no counterexample found
        cmd = _smt_cmd()
        if cmd:
            ev = external_check(g, sol.as_map(), cmd)
            tier3_ok = ev.kind == "valid"
            tier3 = f"external verdict {ev.kind}"
    ok = shape and verbatim and solved and tier2 and tier3_ok and elapsed < 60.0
    _report(5, ok, f"desugaring 3 constraints/8 universals={shape}, transition equations "
                   f"verbatim={verbatim}, guarded variant solved={solved}, no tier-2 "
                   f"counterexample={tier2}, {tier3}, in {elapsed:.2f}s (tolerance: < 60 s)")


def test_criterion_6_bitvector_pbe_suite():
    p = parse_file(_b("fig2_bv_template.sl"))
    target = p.targets[0]
    macros = p.macro_map()
    rng = random.Random(0)

    sample_pool = []
    nuggets = []
    for k in (2, 3):
        nuggets.extend(generate_nuggets(target.grammar, k, [{"x": v} for v in
                                                            [0, 1, 2, 7, 2**63, 2**64 - 1]],
                                        macros))
    programs = []
    for a, b in itertools.product(nuggets, repeat=2):
        t = subst(a, {"x": b})
        if term_size(t) <= 7:
            programs.append(t)
    programs.extend(nuggets)
    rng.shuffle(programs)
    programs = programs[:20]
    assert len(programs) == 20

    mask = (1 << 64) - 1
    structured = [0, 1, mask, 1 << 32, (1 << 32) - 1]
    ev = Evaluator(macros)
    recovered = 0
    worst = 0.0
    for body in programs:
        inputs = structured + [rng.getrandbits(64) for _ in range(5)]
        constraints = tuple(
            Apply("=", (Apply("f", (Lit(v, target.ret),), target.ret),
                        Lit(ev.eval(body, {"x": v}), target.ret)), BOOL)
            for v in inputs
        )
        prob = Problem(logic=p.logic, universals=(), macros=p.macros,
                       targets=(target,), constraints=constraints)
        t0 = time.monotonic()
        sol = _pick_solver(prob, "auto")(prob, 60)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        if isinstance(sol, Solution) and dt < 60.0 and verify(prob, sol.as_map()).kind == "valid":
            recovered += 1
    ok = recovered >= 16 and worst < 60.5
    _report(6, ok, f"bitvector PBE: {recovered}/20 programs recovered consistently, "
                   f"slowest instance {worst:.2f}s (tolerance: >= 16/20 solved in < 60 s, every instance "
                   f"ends in < 60.5 s)")


def test_criterion_7_repeat_dedup():
    results = {}
    for name in ("initials.sl", "initials_repeat.sl"):
        p = parse_file(_b(name))
        t0 = time.monotonic()
        sol = unify_solve(p, 120)
        dt = time.monotonic() - t0
        assert isinstance(sol, Solution), name
        results[name] = (sol.emit(), dt)
    same = results["initials.sl"][0] == results["initials_repeat.sl"][0]
    t1, t2 = results["initials.sl"][1], results["initials_repeat.sl"][1]
    # 0.25 s absolute slack absorbs scheduler noise on sub-second runs
    ratio_ok = max(t1, t2) <= 2.0 * min(t1, t2) + 0.25
    ok = same and ratio_ok
    _report(7, ok, f"repeat-dedup: identical solutions={same}, wallclock {t1:.2f}s vs "
                   f"{t2:.2f}s (tolerance: ratio <= 2x with 0.25 s slack)")


def test_criterion_8_bucket_fidelity():
    time_probes = {0: 0, 0.5: 0, 1: 1, 3: 2, 10: 3, 30: 4, 100: 5, 300: 6, 1000: 7, 3600: 8}
    size_probes = {1: 0, 9: 0, 10: 1, 30: 2, 100: 3, 300: 4, 1000: 5, 5000: 5}
    t_ok = all(time_bucket(k) == v for k, v in time_probes.items())
    t_ok = t_ok and all(time_bucket(e - 1e-9) == i for i, e in enumerate(TIME_EDGES))
    s_ok = all(size_bucket(k) == v for k, v in size_probes.items())
    s_ok = s_ok and all(size_bucket(e - 1) == i for i, e in enumerate(SIZE_EDGES))
    ok = t_ok and s_ok
    _report(8, ok, f"bucket fidelity: time boundaries exact={t_ok}, size boundaries "
                   f"exact={s_ok} (tolerance: zero)")


def _toy_grammars():
    x, y = Var("x", INT), Var("y", INT)
    plus = Apply("+", (Hole("S", INT), Hole("S", INT)), INT)
    g1 = Grammar((("S", INT),), "S", (("S", (x, Lit(0, INT), plus)),))
    g2 = Grammar((("S", INT),), "S", (("S", (x, Lit(1, INT), plus)),))
    g3 = Grammar((("S", INT), ("A", INT)), "S",
                 (("S", (Hole("A", INT),)), ("A", (x, plus))))
    g4 = Grammar((("S", INT), ("B", BOOL)), "S",
                 (("S", (x, y, Apply("ite", (Hole("B", BOOL), Hole("S", INT), Hole("S", INT)), INT))),
                  ("B", (Apply("<=", (Hole("S", INT), Hole("S", INT)), BOOL),))))
    g5 = Grammar((("S", INT),), "S", (("S", (x, Apply("+", (Hole("S", INT), Lit(1, INT)), INT))),))
    return [g1, g2, g3, g4, g5]


def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    x, y = Var("x", INT), Var("y", INT)
    universe = Grammar(
        (("S", INT), ("B", BOOL)),
        "S",
        (("S", (x, y, Lit(0, INT), Lit(1, INT),
                Apply("+", (Hole("S", INT), Hole("S", INT)), INT),
                Apply("ite", (Hole("B", BOOL), Hole("S", INT), Hole("S", INT)), INT))),
         ("B", (Apply("<=", (Hole("S", INT), Hole("S", INT)), BOOL),))),
    )
    universe_terms = enumerate_all(universe, "S", 8)
    agree = True
    for g in _toy_grammars():
        language = set(enumerate_all(g, g.start, 8))
        for t in universe_terms:
            if (check_conformance(t, g).kind == "valid") != (t in language):
                agree = False
                break
        if not agree:
            break

    envs = [{"x": a, "y": b} for a in (-2, 0, 1, 3) for b in (-1, 0, 2)]
    unpruned = {v for _, v in Enumerator(universe, envs, max_size=7, prune=False).enumerate()}
    pruned = {v for _, v in Enumerator(universe, envs, max_size=7, prune=True).enumerate()}
    vectors = pruned == unpruned
    elapsed = time.monotonic() - t0
    ok = agree and vectors and elapsed < 60.0
    _report(9, ok, f"oracle equivalence: conformance vs brute force to size 8 on 5 "
                   f"grammars={agree} over {len(universe_terms)} probe terms, pruned vector "
                   f"set equals unpruned to size 7={vectors}, in {elapsed:.2f}s "
                   f"(tolerance: 100% agreement, < 60 s)")


def test_criterion_10_scoring_replication():
    R = RunRecord
    records = [
        R("b1.sl", "e1", "solved", 0.5, 5), R("b1.sl", "e2", "solved", 2.0, 7), R("b1.sl", "e3", "failed", 1.0),
        R("b2.sl", "e1", "solved", 5.0, 9), R("b2.sl", "e2", "solved", 9.0, 9), R("b2.sl", "e3", "solved", 100.0, 30),
        R("b3.sl", "e1", "timeout", 60.0), R("b3.sl", "e2", "solved", 50.0, 11), R("b3.sl", "e3", "failed", 2.0),
        R("b4.sl", "e1", "failed", 1.0), R("b4.sl", "e2", "timeout", 60.0), R("b4.sl", "e3", "solved", 10.0, 4),
        R("b5.sl", "e1", "unknown-verified", 1.0, 6), R("b5.sl", "e2", "timeout", 60.0), R("b5.sl", "e3", "failed", 0.1),
        R("b6.sl", "e1", "solved", 1000.0, 50), R("b6.sl", "e2", "solved", 3599.0, 50), R("b6.sl", "e3", "solved", 3600.0, 50),
    ]
    # Hand computation: b1 fastest e1 (bucket 0 beats 1); b2 fastest e1,e2
    # (both bucket [3,10)); b3 only e2; b4 only e3; b5 unsolved; b6 fastest
    # e1,e2 (bucket [1000,3600) beats >=3600).
    expected = {
        "e1": {"solved": 3, "unknown_verified": 1, "uniquely_solved": 0, "among_fastest": 3},
        "e2": {"solved": 4, "unknown_verified": 0, "uniquely_solved": 1, "among_fastest": 3},
        "e3": {"solved": 3, "unknown_verified": 0, "uniquely_solved": 1, "among_fastest": 1},
    }
    got = score(records).engines
    ok = got == expected
    _report(10, ok, f"scoring replication: 3-engine x 6-benchmark table matches "
                    f"hand-computed counts={ok} (tolerance: exact)")
