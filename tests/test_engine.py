"""Enumeration, pruning, PBE extraction, synthesis loops, nuggets."""

import os
from functools import lru_cache

import pytest

from sygus.core import Apply, Grammar, Hole, INT, Lit, Var, term_size
from sygus.engine import (
    Budget,
    ConflictingExamples,
    Enumerator,
    Failure,
    Solution,
    _conditional_kind,
    _predicate_pool,
    cegis_solve,
    enumerate_all,
    extract_pbe_points,
    generate_nuggets,
    unify_solve,
)
from sygus.frontend import parse, parse_file
from sygus.harness import SuiteConfig, solve_benchmark
from sygus.oracle import check_conformance
from sygus.semantics import Evaluator

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

X = Var("x", INT)
PLUS_GRAMMAR = Grammar(
    nonterminals=(("S", INT),),
    start="S",
    productions=(
        ("S", (X, Lit(0, INT), Lit(1, INT), Apply("+", (Hole("S", INT), Hole("S", INT)), INT))),
    ),
)
ENVS = [{"x": v} for v in range(-3, 4)]


@lru_cache(maxsize=None)
def _count(n):
    """Terms of exactly size n in PLUS_GRAMMAR, by convolution."""
    if n == 1:
        return 3
    return sum(_count(a) * _count(n - 1 - a) for a in range(1, n - 1))


def test_unpruned_counts_match_convolution_oracle():
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=8, prune=False)
    for s in range(1, 9):
        assert len(en.bank("S", s)) == _count(s), s


def test_pruning_preserves_the_vector_set():
    unpruned = {vec for _, vec in Enumerator(PLUS_GRAMMAR, ENVS, max_size=7, prune=False).enumerate()}
    pruned = [(t, vec) for t, vec in Enumerator(PLUS_GRAMMAR, ENVS, max_size=7, prune=True).enumerate()]
    assert {vec for _, vec in pruned} == unpruned
    # and keeps exactly one representative per vector
    assert len(pruned) == len(unpruned)


def test_pruned_representatives_evaluate_to_their_vectors():
    ev = Evaluator()
    for t, vec in Enumerator(PLUS_GRAMMAR, ENVS, max_size=6).enumerate():
        assert tuple(ev.eval(t, env) for env in ENVS) == vec


def test_enumerate_all_helper_is_unpruned():
    assert len(enumerate_all(PLUS_GRAMMAR, "S", 5)) == sum(_count(s) for s in range(1, 6))


def test_max_finite_size():
    assert Enumerator(PLUS_GRAMMAR, ENVS).max_finite_size() is None
    flat = Grammar(
        nonterminals=(("S", INT), ("A", INT)),
        start="S",
        productions=(("S", (Apply("+", (Hole("A", INT), Hole("A", INT)), INT),)), ("A", (X, Lit(1, INT)))),
    )
    assert Enumerator(flat, ENVS).max_finite_size() == 3


# --- PBE extraction ---------------------------------------------------------


def _pbe(constraints):
    return parse(
        "(set-logic LIA)\n"
        "(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))\n"
        + constraints
        + "\n(check-synth)"
    )


def test_extract_pbe_points_dedup():
    p = _pbe("(constraint (= (f 1) 2)) (constraint (= 2 (f 1))) (constraint (= (f 3) 4))")
    pts = extract_pbe_points(p)
    assert [(e.inputs, e.output) for e in pts] == [((1,), 2), ((3,), 4)]


def test_extract_pbe_points_conflict():
    p = _pbe("(constraint (= (f 1) 2)) (constraint (= (f 1) 3))")
    with pytest.raises(ConflictingExamples):
        extract_pbe_points(p)


def test_extract_pbe_points_rejects_non_pbe():
    p = _pbe("(declare-var y Int) (constraint (= (f y) y))")
    assert extract_pbe_points(p) is None


# --- synthesis loops --------------------------------------------------------


def test_cegis_solves_abs():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = cegis_solve(p, Budget(wallclock=30))
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["abs"]
    ev = Evaluator()
    for v in range(-50, 51):
        assert ev.eval(body, {params[0]: v}) == abs(v)
    assert check_conformance(body, p.targets[0].grammar).kind == "valid"


def test_unify_solves_qm_inner():
    p = parse_file(os.path.join(BENCH, "qm_inner.sl"))
    sol = unify_solve(p, Budget(wallclock=30))
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["qm-inner-loop"]
    ev = Evaluator(p.macro_map())
    assert ev.eval(body, {params[0]: 0}) == 7
    for v in range(1, 101):
        assert ev.eval(body, {params[0]: v}) == v - 1


def test_unify_stitches_ite_max():
    p = parse(
        "(set-logic LIA)\n"
        "(synth-fun f ((x Int) (y Int)) Int\n"
        "  ((Start Int (x y (ite B Start Start)))\n"
        "   (B Bool ((<= Start Start)))))\n"
        "(constraint (= (f 0 1) 1)) (constraint (= (f 1 0) 1))\n"
        "(constraint (= (f 3 2) 3)) (constraint (= (f -1 -2) -1))\n"
        "(constraint (= (f 2 5) 5)) (constraint (= (f 7 7) 7))\n"
        "(check-synth)"
    )
    sol = unify_solve(p, Budget(wallclock=30))
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["f"]
    ev = Evaluator()
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert ev.eval(body, dict(zip(params, (a, b)))) == max(a, b)
    assert check_conformance(body, p.targets[0].grammar).kind == "valid"


def test_unsolvable_reports_failure():
    # 2*f(y) = 1 has no integer solution
    p = _pbe("(declare-var y Int) (constraint (= (* (f y) 2) 1))")
    out = cegis_solve(p, Budget(wallclock=5, max_term_size=6))
    assert isinstance(out, Failure)


def test_round_caps(monkeypatch):
    """CEGIS and unification give up after more than `max_points`
    counterexamples; the ICE learner counts rounds, one fewer."""
    from sygus import oracle

    p = parse(
        "(set-logic LIA)\n"
        "(synth-fun f ((x Int)) Int\n"
        "  ((Start Int (x 0 (ite B Start Start))) (B Bool ((<= Start Start)))))\n"
        "(declare-var x Int) (constraint (>= (f x) x)) (check-synth)"
    )
    calls = []

    def refute(problem, sol_map, cfg=None):
        calls.append(sol_map)
        return oracle.Counterexample({"x": len(calls)})

    with monkeypatch.context() as m:
        m.setattr(oracle, "verify", refute)
        for solve in (cegis_solve, unify_solve):
            calls.clear()
            out = solve(p, Budget(wallclock=30, max_points=2))
            assert isinstance(out, Failure) and out.reason == "budget-exhausted"
            assert len(calls) == 3

    inv = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))  # solved in one round
    assert unify_solve(inv, Budget(wallclock=30, max_points=0)).reason == "budget-exhausted"
    assert isinstance(unify_solve(inv, Budget(wallclock=30, max_points=1)), Solution)


def test_solver_determinism():
    p = parse_file(os.path.join(BENCH, "qm_inner.sl"))
    a = unify_solve(p, Budget(wallclock=30))
    b = unify_solve(p, Budget(wallclock=30))
    assert a.emit() == b.emit()


# --- predicate pools -------------------------------------------------------


def _enumerated_pool(en, nt, max_size, kind):
    """Reference pool, read off `enumerate` up to the first term past the
    cap; `_predicate_pool` gives the same pool without building past it."""
    pool, seen = [], set()
    for term, vec in en.enumerate(nt):
        if term_size(term) > max_size:
            break
        bvec = tuple(v == 1 if kind == "if0" else bool(v) for v in vec)
        if bvec in seen or all(bvec) or not any(bvec):
            continue
        seen.add(bvec)
        pool.append((term, bvec))
    return pool


def test_predicate_pool_stops_at_its_cap():
    # one point makes every Bool vector constant, so pruning empties the
    # Bool banks and no term past the cap is ever reached
    g = parse_file(os.path.join(BENCH, "abs.sl")).targets[0].grammar
    kind, cond_nt = _conditional_kind(g)
    en = Enumerator(g, [{"x": 0}], max_size=20)
    assert _predicate_pool(en, cond_nt, 9, kind) == ([], False)
    assert en._done == 9


@pytest.mark.parametrize(
    "bench, envs, cap",
    [
        ("abs.sl", [{"x": v} for v in (-2, 0, 3)], 5),
        ("abs.sl", [{"x": v} for v in (-3, -1, 0, 2, 5)], 6),
        ("fig2_bv_template.sl", [{"x": v} for v in (1, 2, 4, 8, 3, 16)], 4),
    ],
)
def test_predicate_pool_matches_enumeration(bench, envs, cap):
    p = parse_file(os.path.join(BENCH, bench))
    g = p.targets[0].grammar
    kind, cond_nt = _conditional_kind(g)
    want = _enumerated_pool(Enumerator(g, envs, p.macro_map(), max_size=cap + 2), cond_nt, cap, kind)
    got, expired = _predicate_pool(Enumerator(g, envs, p.macro_map(), max_size=cap + 2), cond_nt, cap, kind)
    assert got == want and want and not expired


def test_auto_keeps_the_budget_on_abs():
    # unification on abs stitches over a few points, where pruning empties
    # the Bool banks: only the pool's size cap bounds the stitch
    cfg = SuiteConfig(engine="auto", timeout=5)
    outcome, wall, _cpu, _size, _text = solve_benchmark(os.path.join(BENCH, "abs.sl"), cfg)
    assert outcome == "unknown-verified"
    assert wall < cfg.timeout


# --- nuggets ---------------------------------------------------------------


def test_nuggets_are_new_behaviours_at_size_k():
    sample = [{"x": v} for v in range(-5, 6)]
    ev = Evaluator()

    def vec(t):
        return tuple(ev.eval(t, env) for env in sample)

    smaller = {vec(t) for s in range(1, 3) for t in Enumerator(PLUS_GRAMMAR, sample, max_size=3, prune=False).bank("S", s)[0:0]}
    # recompute smaller vectors honestly (unpruned, sizes 1..2)
    smaller = set()
    for s in (1, 2):
        for t in [u for u, _ in Enumerator(PLUS_GRAMMAR, sample, max_size=3, prune=False).bank("S", s)]:
            smaller.add(vec(t))
    nuggets = generate_nuggets(PLUS_GRAMMAR, 3, sample)
    assert nuggets
    for t in nuggets:
        assert term_size(t) == 3
        assert vec(t) not in smaller


def test_nuggets_k1_are_the_distinct_leaves():
    sample = [{"x": v} for v in range(-2, 3)]
    nuggets = generate_nuggets(PLUS_GRAMMAR, 1, sample)
    # x, 0 and 1 are pairwise distinct on the sample
    assert len(nuggets) == 3


def test_nuggets_rejects_bad_k():
    with pytest.raises(ValueError):
        generate_nuggets(PLUS_GRAMMAR, 0, ENVS)
