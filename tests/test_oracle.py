"""Conformance checking, semantic verification, SMT-LIB2 plumbing."""

import itertools
import os
from dataclasses import replace
import random
import stat

import pytest

from sygus.core import Apply, BOOL, BV64, Grammar, Hole, INT, Let, Lit, Sort, STRING, Var
from sygus.engine import cegis_solve, unify_solve
from sygus.frontend import parse, parse_file, parse_solution
from sygus import harness, oracle
from sygus.oracle import (
    Derivable,
    VerifyConfig,
    build_smt_script,
    check_conformance,
    external_check,
    parse_model,
    verify,
)

from reference import enumerate_all

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

X = Var("x", INT)
SUPER = Grammar(
    nonterminals=(("S", INT),),
    start="S",
    productions=(
        ("S", (X, Lit(0, INT), Lit(1, INT), Apply("+", (Hole("S", INT), Hole("S", INT)), INT), Apply("-", (Hole("S", INT), Hole("S", INT)), INT))),
    ),
)
SUB = Grammar(
    nonterminals=(("S", INT),),
    start="S",
    productions=(("S", (X, Lit(0, INT), Apply("+", (Hole("S", INT), Hole("S", INT)), INT))),),
)


def test_conformance_agrees_with_brute_force_language():
    language = set(enumerate_all(SUB, "S", 6))
    for t in enumerate_all(SUPER, "S", 6):
        expected = t in language
        assert (check_conformance(t, SUB).kind == "valid") == expected, t


def test_conformance_offending_path():
    # (+ x (- 0 x)): the subtraction under argument 1 is not derivable
    bad = Apply("+", (X, Apply("-", (Lit(0, INT), X), INT)), INT)
    v = check_conformance(bad, SUB)
    assert v.kind == "nonconformant"
    assert v.path[:1] == (1,)


def test_conformance_through_alias_chains():
    g = Grammar(
        nonterminals=(("S", INT), ("A", INT)),
        start="S",
        productions=(("S", (Hole("A", INT),)), ("A", (X, Apply("+", (Hole("S", INT), Hole("S", INT)), INT)))),
    )
    assert check_conformance(Apply("+", (X, X), INT), g).kind == "valid"
    assert check_conformance(Lit(0, INT), g).kind == "nonconformant"


def test_conformance_through_a_let_production():
    s = Hole("S", INT)
    y = Var("y", INT)
    g = Grammar(
        nonterminals=(("S", INT),),
        start="S",
        productions=(("S", (X, Lit(1, INT), Apply("+", (s, s), INT), Let((("y", s),), Apply("+", (y, y), INT), INT))),),
    )
    bound = Apply("+", (X, Lit(1, INT)), INT)
    assert check_conformance(Let((("y", bound),), Apply("+", (y, y), INT), INT), g).kind == "valid"
    z = Var("z", INT)
    assert check_conformance(Let((("z", bound),), Apply("+", (z, z), INT), INT), g).kind == "nonconformant"


def test_shared_derivation_memo_agrees_with_fresh_checks():
    # S -> A | B, A -> S, B -> x | (+ S S): deciding (S, x) cuts A -> S
    # short, which must not leave (A, x) refused for the next question
    g = Grammar(
        nonterminals=(("S", INT), ("A", INT), ("B", INT)),
        start="S",
        productions=(
            ("S", (Hole("A", INT), Hole("B", INT))),
            ("A", (Hole("S", INT),)),
            ("B", (X, Apply("+", (Hole("S", INT), Hole("S", INT)), INT))),
        ),
    )
    terms = enumerate_all(SUPER, "S", 5)
    derivable = Derivable(g)
    for nt in ("S", "A", "B"):
        fresh = replace(g, start=nt)
        for t in terms:
            assert derivable(nt, t) == (check_conformance(t, fresh).kind == "valid"), (nt, t)
    assert derivable("A", Apply("+", (X, X), INT)) and not derivable("A", Lit(0, INT))


def test_solver_outputs_conform_to_their_grammars():
    for name, solver in (("abs.sl", cegis_solve), ("initials.sl", unify_solve)):
        p = parse_file(os.path.join(BENCH, name))
        sol = solver(p, 60)
        for t in p.targets:
            _, body = sol.as_map()[t.name]
            assert check_conformance(body, t.grammar).kind == "valid", name


# --- semantic verification --------------------------------------------------


def test_verify_pbe_valid_and_counterexample():
    p = parse_file(os.path.join(BENCH, "initials.sl"))
    sol = unify_solve(p, 60)
    assert verify(p, sol.as_map()).kind == "valid"
    wrong = {"f": (["name"], Lit("N.F.", STRING))}
    assert verify(p, wrong).kind == "counterexample"


def test_verify_finds_universal_counterexample():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    wrong = {"abs": (["x"], Var("x", INT))}
    v = verify(p, wrong)
    assert v.kind == "counterexample"
    assert v.point["x"] < 0


SHR1_PBE = """
(set-logic BV)
(define-fun shr1 ((x (BitVec 64))) (BitVec 64) (bvlshr x #x0000000000000001))
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (#x0000000000000001 x (shr1 Start) (bvadd Start Start)))))
(constraint (= (f #x0000000000000004) #x0000000000000008))
(check-synth)
"""


def test_verify_reads_no_macro_from_the_solution():
    # an entry named like a macro must not redefine it: `(shr1 x)` is wrong
    # for f(4) = 8 whatever `shr1` the solution brings along
    p = parse(SHR1_PBE)
    x = Var("x", BV64)
    f = (["x"], Apply("shr1", (x,), BV64))
    alone = verify(p, {"f": f})
    assert alone.kind == "counterexample"
    assert verify(p, {"f": f, "shr1": (["x"], Apply("bvadd", (x, x), BV64))}) == alone


def test_verify_unverified_without_solver():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = cegis_solve(p, 30)
    v = verify(p, sol.as_map())
    assert v.kind == "unknown"
    assert "unverified" in v.reason


def test_verify_rejects_overfit_invariant():
    p = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))
    wrong = {
        "inv-f": (
            ["i", "j", "i0", "j0"],
            Apply("=", (Var("j", INT), Var("j0", INT)), BOOL),
        )
    }
    assert verify(p, wrong).kind == "counterexample"


RIGHT_GUARDED = (
    "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool"
    " (and (= (+ i j) (+ i0 j0)) (not (< i 0))))"
)


def test_tier2_search_runs_generated_code(monkeypatch):
    # every point of the right invariant's search runs in the group's
    # generated search function: `Evaluator.eval` is never called
    from sygus import semantics

    p = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))
    sol = parse_solution(RIGHT_GUARDED, p)
    calls = []
    original = semantics.Evaluator.eval
    monkeypatch.setattr(semantics.Evaluator, "eval", lambda self, t, env: calls.append(t) or original(self, t, env))
    assert verify(p, sol).reason == "unverified-beyond-bound"
    assert calls == []


def _sample_value(sort, pool, rng):
    """Reference tier-2 draw, through `random`'s public calls."""
    if sort == INT:
        scale = rng.choice((2, 8, 64, 4096, 10**6))
        return rng.randint(-scale, scale)
    if sort.kind == "BitVec":
        return rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(sort.width)
    return rng.choice(pool)


STRINGS = parse_file(os.path.join(BENCH, "initials.sl"))
DRAW_SORTS = [INT, Sort("BitVec", 8), Sort("BitVec", 64), STRING, BOOL]


@pytest.mark.parametrize("sort", DRAW_SORTS, ids=str)
def test_drawer_matches_reference_stream(sort):
    pool = oracle._value_pool(sort, STRINGS, random.Random(5))
    ours, theirs = random.Random(11), random.Random(11)
    draw = oracle._drawer(sort, pool, ours)
    assert [draw() for _ in range(50_000)] == [_sample_value(sort, pool, theirs) for _ in range(50_000)]
    assert ours.getstate() == theirs.getstate()


def test_search_points_samples_match_reference_stream():
    # a zero cap leaves no grid: every point is a sample
    universals = [(f"v{i}", s) for i, s in enumerate(DRAW_SORTS)]
    got = list(oracle._search_points(universals, STRINGS, 3, 0, 2_000))
    rng = random.Random(3)
    pools = [oracle._value_pool(s, STRINGS, rng) for _, s in universals]
    want = [tuple(_sample_value(s, pool, rng) for (_, s), pool in zip(universals, pools)) for _ in range(2_000)]
    assert got == want


def _reference_ints(seed, n):
    rng = random.Random(seed)
    return [_sample_value(INT, None, rng) for _ in range(n)]


@pytest.mark.parametrize("m", [1, 3])
def test_all_int_search_points_samples_match_reference_stream(m):
    universals = [(f"v{i}", INT) for i in range(m)]
    got = list(oracle._search_points(universals, STRINGS, 7, 0, 3_000))
    want = _reference_ints(7, 3_000 * m)
    assert got == [tuple(want[i : i + m]) for i in range(0, len(want), m)]


def test_interleaved_and_abandoned_stream_readers_see_the_reference():
    stream = oracle._IntStream(21)
    n = 3 * oracle._IntStream.CHUNK + 5
    want = _reference_ints(21, n)
    a, b = iter(stream), iter(stream)
    abandoned = iter(stream)
    abandoned = [next(abandoned), next(abandoned)]
    got_a, got_b = [], []
    for i in range(n):
        got_a.append(next(a))
        if i % 3 == 0:  # b lags behind, then catches up
            got_b.extend(next(b) for _ in range(min(3, n - len(got_b))))
    assert got_a == got_b == want and abandoned == want[:2]
    assert len(stream.chunks) == 4
    assert list(itertools.islice(iter(stream), n)) == want


def test_a_second_identical_verify_draws_nothing_new():
    # the right invariant reads every point its groups search
    p = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))
    sol = parse_solution(RIGHT_GUARDED, p)
    cfg = VerifyConfig(seed=1234)
    first = verify(p, sol, cfg)
    drawn = [len(oracle._int_stream(s).chunks) for s in (1234, 1235)]
    assert verify(p, sol, cfg) == first and first.kind == "unknown"
    assert [len(oracle._int_stream(s).chunks) for s in (1234, 1235)] == drawn and min(drawn) > 0


class _FreshDraws:
    """An `_IntStream` stand-in that draws every reader's values afresh
    from `random.Random(seed)`, as the search did before the cache."""

    def __init__(self, seed):
        self.seed = seed

    def __iter__(self):
        rng = random.Random(self.seed)
        return iter(lambda: _sample_value(INT, None, rng), object())


GENERATED_CLIA = (
    "(set-logic LIA) (synth-fun f ((x Int) (y Int)) Int) (declare-var x Int) (declare-var y Int)"
    " (constraint (= (f x y) (ite (< x 1) (+ y 1) (- y 1)))) (check-synth)"
)


@pytest.mark.parametrize("name", ["abs.sl", "qm_inner.sl", "inv_loop_guarded.sl", "generated clia"])
def test_wrong_candidates_get_the_counterexamples_of_fresh_draws(name, monkeypatch):
    p = parse(GENERATED_CLIA) if name == "generated clia" else parse_file(os.path.join(BENCH, name))
    (target,) = p.targets
    params = [n for n, _ in target.params]
    candidates = enumerate_all(target.grammar, target.grammar.start, 4, p.macro_map())[:40]
    # a grid of the origin alone leaves the other counterexamples to the
    # samples
    monkeypatch.setattr(oracle, "INT_BOUND", 0)
    cfg = VerifyConfig(seed=9)
    cached = [verify(p, {target.name: (params, t)}, cfg) for t in candidates]
    monkeypatch.setattr(oracle, "_int_stream", _FreshDraws)
    fresh = [verify(p, {target.name: (params, t)}, cfg) for t in candidates]
    assert cached == fresh
    points = [v.point for v in cached if v.kind == "counterexample"]
    beyond = [pt for pt in points if any(pt.values())]
    assert len(points) > len(candidates) // 2 and len(beyond) >= 5


GROUND_WITH_UNIVERSAL = (
    "(set-logic LIA) (synth-fun f ((y Int)) Int) (declare-var x Int)"
    " (constraint (= (f 1) (+ 1 1))) (check-synth)"
)


def test_verify_decides_ground_constraints_by_one_evaluation():
    # not PBE (the output is no literal) and a universal is declared, yet
    # no constraint mentions it: evaluation alone decides the verdict
    p = parse(GROUND_WITH_UNIVERSAL)
    y = Var("y", INT)
    right = {"f": (["y"], Apply("+", (y, Lit(1, INT)), INT))}
    assert verify(p, right) == oracle.Valid()
    assert verify(p, {"f": (["y"], y)}) == oracle.Counterexample({"x": 0})


def test_checked_cex_rejects_a_point_that_does_not_falsify():
    # a real error, not an assert that `python -O` would strip
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    wrong = {"abs": (["x"], Var("x", INT))}
    assert oracle._checked_cex(p, wrong, {"x": -3}).point == {"x": -3}
    with pytest.raises(oracle.FalseCounterexample):
        oracle._checked_cex(p, wrong, {"x": 3})


# --- SMT-LIB2 text ----------------------------------------------------------


def test_build_smt_script_shape():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    script = build_smt_script(p, {"abs": (["x"], Var("x", INT))})
    assert script.startswith("(set-logic ALL)")
    assert "(declare-const x Int)" in script
    assert "(assert (not " in script
    assert script.rstrip().endswith("(get-model)")
    assert script.index("(check-sat)") < script.index("(get-model)")


def test_parse_model_variants():
    unis = (("x", INT), ("y", INT))
    pt = parse_model("((define-fun x () Int (- 5)))", unis)
    assert pt == {"x": -5, "y": 0}
    pt = parse_model("(model (define-fun x () Int 3) (define-fun y () Int 0))", unis)
    assert pt == {"x": 3, "y": 0}


def _fake_solver(tmp_path, body):
    path = tmp_path / "fakesolver"
    path.write_text("#!/bin/sh\ncat > /dev/null\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return [str(path)]


def test_external_check_unsat_is_valid(tmp_path):
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = cegis_solve(p, 30).as_map()
    cfg = VerifyConfig(smt_cmd=_fake_solver(tmp_path, "echo unsat\n"))
    assert external_check(p, sol, cfg).kind == "valid"


def test_external_check_sat_model_counterexample(tmp_path):
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    wrong = {"abs": (["x"], Var("x", INT))}
    cmd = _fake_solver(
        tmp_path, "echo sat\necho '((define-fun x () Int (- 5)))'\n"
    )
    v = external_check(p, wrong, VerifyConfig(smt_cmd=cmd))
    assert v.kind == "counterexample"
    assert v.point == {"x": -5}


def test_external_check_bogus_model_is_unknown(tmp_path):
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = cegis_solve(p, 30).as_map()
    # claims sat against a correct solution; the model cannot re-check
    cmd = _fake_solver(tmp_path, "echo sat\necho '((define-fun x () Int 7))'\n")
    assert external_check(p, sol, cfg=VerifyConfig(smt_cmd=cmd)).kind == "unknown"


def test_external_check_garbage_is_unknown(tmp_path):
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = {"abs": (["x"], Var("x", INT))}
    cmd = _fake_solver(tmp_path, "echo segfault lol\n")
    assert external_check(p, sol, VerifyConfig(smt_cmd=cmd)).kind == "unknown"


def test_external_check_missing_binary_is_unknown():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = {"abs": (["x"], Var("x", INT))}
    v = external_check(p, sol, VerifyConfig(smt_cmd=["/nonexistent/solver"]))
    assert v.kind == "unknown"
    assert "io" in v.reason


def test_external_check_unconfigured_is_unknown():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    v = external_check(p, {"abs": (["x"], Var("x", INT))})
    assert v.kind == "unknown"


@pytest.mark.parametrize("name", ["inv_loop_guarded.sl", "abs.sl"])
def test_the_harness_question_is_answered_from_the_memo(name, monkeypatch):
    searches = []
    search_group = oracle._search_group
    monkeypatch.setattr(oracle, "_search_group", lambda *args: searches.append(args) or search_group(*args))
    asked = []
    harness_verify = harness.verify

    def counted(problem, solution, cfg):
        before = len(searches)
        verdict = harness_verify(problem, solution, cfg)
        asked.append((problem, solution, cfg, verdict, len(searches) - before))
        return verdict

    monkeypatch.setattr(harness, "verify", counted)
    path = os.path.join(BENCH, name)
    assert harness.solve_benchmark(path, harness.SuiteConfig(timeout=60))[0] in ("solved", "unknown-verified")
    ((problem, solution, cfg, verdict, added),) = asked
    assert added == 0 and searches  # the engine searched; the harness's verify did not

    def searched(*question):
        before = len(searches)
        assert verify(*question) == verdict
        return len(searches) > before

    (fname, (params, body)), = solution.items()
    same_meaning = Apply("ite", (Lit(True, BOOL), body, body), body.sort)
    assert searched(problem, {fname: (params, same_meaning)}, cfg)
    assert searched(problem, solution, replace(cfg, seed=cfg.seed + 1))
    again = parse_file(path)
    assert searched(again, solution, cfg)
    assert not searched(again, dict(solution), replace(cfg))  # an equal question is not searched again
