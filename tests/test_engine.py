"""Enumeration, pruning, PBE extraction, synthesis loops, nuggets."""

import glob
import itertools
import os
import random
import time
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sygus.core import Apply, BOOL, Grammar, Hole, INT, Lit, STRING, Var, subst, term_size
from sygus import engine, oracle, semantics
from sygus.engine import (
    Budget,
    BudgetExceeded,
    ConflictingExamples,
    Enumerator,
    Failure,
    Leaf,
    Solution,
    _conditional_kind,
    _ice_seed,
    _octagon_atoms,
    _predicate_pool,
    _string_keep,
    cegis_solve,
    extract_pbe_points,
    generate_nuggets,
    unify_solve,
)
from sygus.frontend import parse, parse_file
from sygus.harness import SuiteConfig, _pick_solver, solve_benchmark
from sygus.oracle import check_conformance
from sygus.semantics import Evaluator, eval_constraints

import reference
from reference import TreeEvaluator, enumerate_all

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
    ev = TreeEvaluator()
    for t, vec in Enumerator(PLUS_GRAMMAR, ENVS, max_size=6).enumerate():
        assert tuple(ev.eval(t, env) for env in ENVS) == vec


def test_an_alias_admits_as_a_production_does():
    # S reads T's bank through an alias: keep sees each composite term S
    # admits, never a leaf, and pruning keeps one term per S vector
    g = Grammar(
        nonterminals=(("S", INT), ("T", INT)),
        start="S",
        productions=(
            ("S", (Hole("T", INT), X)),
            ("T", (Apply("+", (Hole("S", INT), Hole("S", INT)), INT), Lit(1, INT))),
        ),
    )
    asked = []

    def keep(nt, term, vec):
        asked.append((nt, term))
        return nt != "S" or max(vec) < 3

    en = Enumerator(g, ENVS, max_size=7, keep=keep)
    entries = [e for s in range(1, 8) for e in en.bank("S", s)]
    assert (X, tuple(range(-3, 4))) in entries
    assert all(max(vec) < 3 for term, vec in entries if isinstance(term, Apply))
    assert any(isinstance(term, Apply) for term, _ in entries)
    assert len({vec for _, vec in entries}) == len(entries)
    assert not any(isinstance(term, (Var, Lit)) for _, term in asked)
    assert ("S", entries[-1][0]) in asked


def test_enumerate_all_helper_is_unpruned():
    assert len(enumerate_all(PLUS_GRAMMAR, "S", 5)) == sum(_count(s) for s in range(1, 6))


def _vector_cases():
    sample = [{"x": v} for v in [0, 1, 2, 7, 2**63, 2**64 - 1]]
    yield pytest.param("fig2_bv_template.sl", lambda _p: sample, id="fig2")  # macro productions
    yield pytest.param("abs.sl", lambda _p: ENVS, id="abs")
    yield pytest.param("initials.sl", lambda p: [{"name": ex.inputs[0]} for ex in extract_pbe_points(p)], id="initials")
    # more points than engine.UNROLL_POINTS: one comprehension per vector
    wide = sample + [{"x": (v * 0x9E3779B97F4A7C15) & (2**64 - 1)} for v in range(engine.UNROLL_POINTS)]
    yield pytest.param("fig2_bv_template.sl", lambda _p: wide, id="fig2-wide")
    yield pytest.param("abs.sl", lambda _p: [{"x": v} for v in range(-engine.UNROLL_POINTS, engine.UNROLL_POINTS)],
                       id="abs-wide")


@pytest.mark.parametrize("bench, envs", _vector_cases())
def test_generated_vectors_match_the_tree_walk(bench, envs):
    p = parse_file(os.path.join(BENCH, bench))
    g, envs = p.targets[0].grammar, envs(p)
    en = Enumerator(g, envs, p.macro_map(), max_size=7)
    ev = TreeEvaluator(p.macro_map())
    for nt, _ in g.nonterminals:
        for s in range(1, 8):
            for term, vec in en.bank(nt, s):
                want = [ev.eval(term, env) for env in envs]
                assert [(type(v), v) for v in vec] == [(type(v), v) for v in want], term


# The fig2 grammar's generated source over one point: one generator per
# production, its macros expanded, its BitVec builtins written as Python
# operators, each vector element an expression of its own, and the inner
# loop of each commutative production halved over a bank paired with
# itself; this pins the source byte for byte.
FIG2_VECTOR_SOURCE = '''\
def _p0(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        vec = (0,)
        n += 1
        if not n % 1024 and deadline is not None and deadline.expired():
            raise _k1(f'deadline reached while building size {s}')
        if prune and vec in sigs:
            return
        term = _k2
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        en.constructed = n
        yield nt, entry
    finally:
        en.constructed = n
def _p3(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        vec = (1,)
        n += 1
        if not n % 1024 and deadline is not None and deadline.expired():
            raise _k1(f'deadline reached while building size {s}')
        if prune and vec in sigs:
            return
        term = _k4
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        en.constructed = n
        yield nt, entry
    finally:
        en.constructed = n
def _p5(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    _v7, = _k6
    try:
        vec = (_v7,)
        n += 1
        if not n % 1024 and deadline is not None and deadline.expired():
            raise _k1(f'deadline reached while building size {s}')
        if prune and vec in sigs:
            return
        term = _k8
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        en.constructed = n
        yield nt, entry
    finally:
        en.constructed = n
def _p9(en, nt, s, _v10):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v11, _v12 in _v10:
            _v13, = _v12
            vec = ((_v13 ^ 18446744073709551615),)
            n += 1
            if not n % 1024 and deadline is not None and deadline.expired():
                raise _k1(f'deadline reached while building size {s}')
            if prune and vec in sigs:
                continue
            term = _k14('bvnot', (_v11,), _k15)
            if keep is not None and not keep(nt, term, vec):
                continue
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            en.constructed = n
            yield nt, entry
    finally:
        en.constructed = n
def _p16(en, nt, s, _v17):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v18, _v19 in _v17:
            _v20, = _v19
            vec = ((_v20 << 1 & 18446744073709551615),)
            n += 1
            if not n % 1024 and deadline is not None and deadline.expired():
                raise _k1(f'deadline reached while building size {s}')
            if prune and vec in sigs:
                continue
            term = _k14('shl1', (_v18,), _k15)
            if keep is not None and not keep(nt, term, vec):
                continue
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            en.constructed = n
            yield nt, entry
    finally:
        en.constructed = n
def _p21(en, nt, s, _v22):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v23, _v24 in _v22:
            _v25, = _v24
            vec = ((_v25 >> 1),)
            n += 1
            if not n % 1024 and deadline is not None and deadline.expired():
                raise _k1(f'deadline reached while building size {s}')
            if prune and vec in sigs:
                continue
            term = _k14('shr1', (_v23,), _k15)
            if keep is not None and not keep(nt, term, vec):
                continue
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            en.constructed = n
            yield nt, entry
    finally:
        en.constructed = n
def _p26(en, nt, s, _v27):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v28, _v29 in _v27:
            _v30, = _v29
            vec = ((_v30 >> 4),)
            n += 1
            if not n % 1024 and deadline is not None and deadline.expired():
                raise _k1(f'deadline reached while building size {s}')
            if prune and vec in sigs:
                continue
            term = _k14('shr4', (_v28,), _k15)
            if keep is not None and not keep(nt, term, vec):
                continue
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            en.constructed = n
            yield nt, entry
    finally:
        en.constructed = n
def _p31(en, nt, s, _v32):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v33, _v34 in _v32:
            _v35, = _v34
            vec = ((_v35 >> 16),)
            n += 1
            if not n % 1024 and deadline is not None and deadline.expired():
                raise _k1(f'deadline reached while building size {s}')
            if prune and vec in sigs:
                continue
            term = _k14('shr16', (_v33,), _k15)
            if keep is not None and not keep(nt, term, vec):
                continue
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            en.constructed = n
            yield nt, entry
    finally:
        en.constructed = n
def _p36(en, nt, s, _v37, _v38):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    diagonal = _v37 is _v38
    try:
        for k, (_v39, _v41) in enumerate(_v37):
            _v43, = _v41
            for _v40, _v42 in _k45(_v38, k if diagonal else 0, None):
                _v44, = _v42
                vec = ((_v43 & _v44),)
                n += 1
                if not n % 1024 and deadline is not None and deadline.expired():
                    raise _k1(f'deadline reached while building size {s}')
                if prune and vec in sigs:
                    continue
                term = _k14('bvand', (_v39,_v40,), _k15)
                if keep is not None and not keep(nt, term, vec):
                    continue
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                en.constructed = n
                yield nt, entry
    finally:
        en.constructed = n
def _p46(en, nt, s, _v47, _v48):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    diagonal = _v47 is _v48
    try:
        for k, (_v49, _v51) in enumerate(_v47):
            _v53, = _v51
            for _v50, _v52 in _k45(_v48, k if diagonal else 0, None):
                _v54, = _v52
                vec = ((_v53 | _v54),)
                n += 1
                if not n % 1024 and deadline is not None and deadline.expired():
                    raise _k1(f'deadline reached while building size {s}')
                if prune and vec in sigs:
                    continue
                term = _k14('bvor', (_v49,_v50,), _k15)
                if keep is not None and not keep(nt, term, vec):
                    continue
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                en.constructed = n
                yield nt, entry
    finally:
        en.constructed = n
def _p55(en, nt, s, _v56, _v57):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    diagonal = _v56 is _v57
    try:
        for k, (_v58, _v60) in enumerate(_v56):
            _v62, = _v60
            for _v59, _v61 in _k45(_v57, k if diagonal else 0, None):
                _v63, = _v61
                vec = ((_v62 ^ _v63),)
                n += 1
                if not n % 1024 and deadline is not None and deadline.expired():
                    raise _k1(f'deadline reached while building size {s}')
                if prune and vec in sigs:
                    continue
                term = _k14('bvxor', (_v58,_v59,), _k15)
                if keep is not None and not keep(nt, term, vec):
                    continue
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                en.constructed = n
                yield nt, entry
    finally:
        en.constructed = n
def _p64(en, nt, s, _v65, _v66):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    diagonal = _v65 is _v66
    try:
        for k, (_v67, _v69) in enumerate(_v65):
            _v71, = _v69
            for _v68, _v70 in _k45(_v66, k if diagonal else 0, None):
                _v72, = _v70
                vec = ((_v71 + _v72 & 18446744073709551615),)
                n += 1
                if not n % 1024 and deadline is not None and deadline.expired():
                    raise _k1(f'deadline reached while building size {s}')
                if prune and vec in sigs:
                    continue
                term = _k14('bvadd', (_v67,_v68,), _k15)
                if keep is not None and not keep(nt, term, vec):
                    continue
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                en.constructed = n
                yield nt, entry
    finally:
        en.constructed = n
def _p73(en, nt, s, _v74, _v75, _v76):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline = en.prune, en.keep, en.deadline
    try:
        for _v77, _v80 in _v74:
            _v83, = _v80
            for _v78, _v81 in _v75:
                _v84, = _v81
                for _v79, _v82 in _v76:
                    _v85, = _v82
                    vec = ((_v84 if (_v83 == 1) else _v85),)
                    n += 1
                    if not n % 1024 and deadline is not None and deadline.expired():
                        raise _k1(f'deadline reached while building size {s}')
                    if prune and vec in sigs:
                        continue
                    term = _k14('if0', (_v77,_v78,_v79,), _k15)
                    if keep is not None and not keep(nt, term, vec):
                        continue
                    if prune:
                        sigs[vec] = term
                    entry = term, vec
                    out.append(entry)
                    en.constructed = n
                    yield nt, entry
    finally:
        en.constructed = n
_fns = (_p0,_p3,_p5,_p9,_p16,_p21,_p26,_p31,_p36,_p46,_p55,_p64,_p73,)
'''


def test_fig2_vector_source_is_unchanged(monkeypatch):
    p = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    sources = []
    build = semantics.SourceEmitter.build
    monkeypatch.setattr(semantics.SourceEmitter, "build",
                        lambda em, source, name: sources.append("\n".join(em.defs + [source])) or build(em, source, name))
    Enumerator(p.targets[0].grammar, [{"x": 1}], p.macro_map(), max_size=3).bank("Start", 1)
    assert sources == [FIG2_VECTOR_SOURCE.rstrip("\n")]


def _keep_all(_nt, _term, _vec):
    return True


def _halving_cases():
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    abs_grammar = parse_file(os.path.join(BENCH, "abs.sl")).targets[0].grammar
    points = [(v * 0x9E3779B97F4A7C15) & (2**64 - 1) for v in range(engine.UNROLL_POINTS + 6)]
    bv = fig2.targets[0].grammar, fig2.macro_map()
    yield pytest.param(*bv, [{"x": v} for v in points[:10]], 7, True, id="fig2")
    yield pytest.param(*bv, [{"x": v} for v in points], 6, True, id="fig2-wide")
    yield pytest.param(abs_grammar, None, ENVS, 7, True, id="abs")
    yield pytest.param(PLUS_GRAMMAR, None, ENVS, 9, True, id="plus")
    x, y = Var("x", INT), Var("y", INT)
    universe = Grammar(  # criterion 9's
        (("S", INT), ("B", BOOL)),
        "S",
        (("S", (x, y, Lit(0, INT), Lit(1, INT),
                Apply("+", (Hole("S", INT), Hole("S", INT)), INT),
                Apply("ite", (Hole("B", BOOL), Hole("S", INT), Hole("S", INT)), INT))),
         ("B", (Apply("<=", (Hole("S", INT), Hole("S", INT)), BOOL),))),
    )
    yield pytest.param(universe, None, [{"x": a, "y": b} for a in (-2, 0, 1, 3) for b in (-1, 0, 2)], 7, True,
                       id="universe")
    # not halved: the holes of `+` have different nonterminals, or a macro
    # shadows `+` with an operator that does not commute
    mixed = Grammar(
        (("S", INT), ("A", INT)),
        "S",
        (("S", (X, Apply("+", (Hole("S", INT), Hole("A", INT)), INT))), ("A", (X, Lit(1, INT), Lit(2, INT)))),
    )
    yield pytest.param(mixed, None, ENVS, 9, False, id="mixed")
    minus = Apply("-", (Var("a", INT), Var("b", INT)), INT)
    yield pytest.param(PLUS_GRAMMAR, {"+": (["a", "b"], minus)}, ENVS, 8, False, id="shadowed")


@pytest.mark.parametrize("grammar, macros, envs, size, halved", _halving_cases())
def test_halving_keeps_every_bank(grammar, macros, envs, size, halved):
    # a keep turns halving off, and this one refuses nothing
    en = Enumerator(grammar, envs, macros, max_size=size)
    full = Enumerator(grammar, envs, macros, max_size=size, keep=_keep_all)
    for s in range(1, size + 1):
        for nt, _ in grammar.nonterminals:
            assert en.bank(nt, s) == full.bank(nt, s), (nt, s)
    assert any(p[0] == "comp" and p[6] for ps in en._prods.values() for p in ps) == halved
    if halved:
        assert en.constructed < full.constructed
    else:
        assert en.constructed == full.constructed


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
    assert _predicate_pool(en, cond_nt, 9, kind) == []
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
    got = _predicate_pool(Enumerator(g, envs, p.macro_map(), max_size=cap + 2), cond_nt, cap, kind)
    assert got == want and want


def test_auto_keeps_the_budget_on_abs():
    # unification on abs stitches over a few points, where pruning empties
    # the Bool banks: only the pool's size cap bounds the stitch
    cfg = SuiteConfig(engine="auto", timeout=5)
    outcome, wall, _cpu, _size, _text = solve_benchmark(os.path.join(BENCH, "abs.sl"), cfg)
    assert outcome == "unknown-verified"
    assert wall < cfg.timeout


# --- the wallclock budget --------------------------------------------------


class _Clock:
    """Deadline stub: `left` seconds remain until a test sets it."""

    def __init__(self, left):
        self.left = left

    def remaining(self):
        return self.left

    def expired(self):
        return self.left < 0


class _PassingClock(_Clock):
    """A deadline that passes the first time it is checked inside a size."""

    def expired(self):
        self.left = -1.0
        return True


def test_size_cost_counts_the_candidates_a_size_constructs():
    # on the halved path (pruning, no keep) and on the full product
    abs_grammar = parse_file(os.path.join(BENCH, "abs.sl")).targets[0].grammar
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    bv = [{"x": v} for v in (1, 2, 4, 8, 3, 16)]
    cases = [
        (PLUS_GRAMMAR, ENVS, None, 9, {"prune": False}),
        (PLUS_GRAMMAR, ENVS, None, 9, {}),
        (PLUS_GRAMMAR, ENVS, None, 9, {"keep": _keep_all}),
        (abs_grammar, ENVS, None, 9, {}),
        (abs_grammar, ENVS, None, 9, {"keep": _keep_all}),
        (fig2.targets[0].grammar, bv, fig2.macro_map(), 7, {}),
        (fig2.targets[0].grammar, bv, fig2.macro_map(), 7, {"keep": _keep_all}),
    ]
    for case, (grammar, envs, macros, size, options) in enumerate(cases):
        en = Enumerator(grammar, envs, macros, max_size=size, **options)
        for s in range(1, size + 1):
            cost, before = en.size_cost(s), en.constructed
            en.ensure(s)
            assert en.constructed - before == cost, (case, s)
    assert Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False).size_cost(1) == _count(1)


def test_no_time_left_builds_nothing():
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=8, deadline=_Clock(0.0))
    with pytest.raises(BudgetExceeded, match="deadline reached before size 1"):
        en.bank("S", 1)
    assert (en.constructed, en._done) == (0, 0)

    clock = _Clock(60.0)
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=8, deadline=clock)
    built = en.bank("S", 3)
    constructed = en.constructed
    clock.left = -0.5
    with pytest.raises(BudgetExceeded):
        en.bank("S", 4)
    assert (en.constructed, en._done) == (constructed, 3)
    assert en.bank("S", 3) == built  # sizes already built stay readable


def test_a_size_stops_at_the_deadline():
    # sizes 1-7 construct 471 candidates; the check at the 1024th falls in size 9
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False, deadline=_PassingClock(60.0))
    with pytest.raises(BudgetExceeded, match="deadline reached while building size 9"):
        en.ensure(9)
    assert (en.constructed, en._done) == (1024, 8)
    with pytest.raises(BudgetExceeded, match="before size 9"):
        en.bank("S", 9)  # the half-built size is never read
    assert en.constructed == 1024


def test_a_cut_build_is_never_resumed():
    clock = _PassingClock(60.0)
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False, deadline=clock)
    with pytest.raises(BudgetExceeded, match="while building size 9"):
        en.ensure(9)
    clock.left = 60.0  # time to spare again: still not restarted over stale signatures
    with pytest.raises(BudgetExceeded, match="size 9 was cut short"):
        en.bank("S", 9)
    assert (en.constructed, en._done) == (1024, 8)


def test_a_request_builds_every_size_while_time_is_left():
    # no size is refused for what it might cost: with a nanosecond left that
    # never runs out, one request for sizes 10-11 builds both, as with no deadline
    clock = _Clock(60.0)
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=12, prune=False, deadline=clock)
    en.ensure(9)
    clock.left = 1e-9
    free = Enumerator(PLUS_GRAMMAR, ENVS, max_size=12, prune=False)
    assert en.bank("S", 11) == free.bank("S", 11)
    assert (en.constructed, en._done) == (free.constructed, 11)


def test_a_pool_builds_every_size_while_time_is_left():
    # however little time is left, a size starts while the deadline has not
    # been reached, and the pool is the one built with no deadline at all
    p = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    g = p.targets[0].grammar
    kind, cond_nt = _conditional_kind(g)
    envs = [{"x": v} for v in (1, 2, 4, 8, 3, 16)]
    timed = Enumerator(g, envs, p.macro_map(), deadline=_Clock(1e-9))
    free = Enumerator(g, envs, p.macro_map())
    pool = _predicate_pool(timed, cond_nt, 9, kind)
    assert pool == _predicate_pool(free, cond_nt, 9, kind)
    assert timed._done == free._done == 9 and timed.constructed == free.constructed


@pytest.mark.parametrize("bench, envs, size", [
    ("fig2_bv_template.sl", [{"x": v} for v in (1, 2, 4, 8, 3, 16, 2**63, 2**64 - 1)], 6),
    ("abs.sl", [{"x": v} for v in range(-8, 9)], 7),
], ids=["if0", "ite"])
def test_predicate_pool_matches_the_reference(bench, envs, size):
    p = parse_file(os.path.join(BENCH, bench))
    g = p.targets[0].grammar
    kind, cond_nt = _conditional_kind(g)
    assert kind == ("if0" if bench.startswith("fig2") else "ite")
    en = Enumerator(g, envs, p.macro_map())
    pool = _predicate_pool(en, cond_nt, size, kind)
    assert len(pool) > 20  # not a vacuous comparison
    assert pool == reference.predicate_pool(en, cond_nt, size, kind)
    assert all(type(b) is bool for _, bvec in pool for b in bvec)


CORPUS = sorted(glob.glob(os.path.join(BENCH, "*.sl")))


# --- early stop at the first accepted term ---------------------------------


def _fig2_pbe_problems():
    """Criterion-6 style PBE problems over the fig2 grammar, planted at
    sizes 3-5 so that the goal falls inside a size."""
    p = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    target, macros = p.targets[0], p.macro_map()
    sample = [{"x": v} for v in [0, 1, 2, 7, 2**63, 2**64 - 1]]
    nuggets = [t for k in (2, 3) for t in generate_nuggets(target.grammar, k, sample, macros)]
    programs = [subst(a, {"x": b}) for a, b in itertools.product(nuggets, repeat=2)]
    rng = random.Random(0)
    programs = [t for t in programs if term_size(t) <= 5] + nuggets
    rng.shuffle(programs)
    mask = (1 << 64) - 1
    ev = Evaluator(macros)
    out = []
    for body in programs[:6]:
        inputs = [0, 1, mask, 1 << 32, (1 << 32) - 1] + [rng.getrandbits(64) for _ in range(5)]
        out.append((target, macros, [{"x": v} for v in inputs], tuple(ev.eval(body, {"x": v}) for v in inputs)))
    return out


def _initials_problem():
    p = parse_file(os.path.join(BENCH, "initials.sl"))
    target = p.targets[0]
    examples = extract_pbe_points(p)
    return target, p.macro_map(), [{"name": ex.inputs[0]} for ex in examples], tuple(ex.output for ex in examples)


def _pbe_enumerators(target, macros, envs, expected):
    """The enumerator `_solve_pbe` builds, with its goal, and a goal-free twin."""
    keep = _string_keep([str(o) for o in expected]) if target.ret == STRING else None
    ens = [Enumerator(target.grammar, envs, macros, max_size=16, keep=keep) for _ in range(2)]
    ens[0].goal = (target.grammar.start, lambda _term, vec: vec == expected)
    return ens


def _until_goal(en, expected):
    seq = []
    for term, vec in en.enumerate():
        seq.append((term, vec))
        if vec == expected:
            return seq


@pytest.mark.parametrize("problem", _fig2_pbe_problems() + [_initials_problem()],
                         ids=[f"fig2-{i}" for i in range(6)] + ["initials"])
def test_the_build_stops_at_the_goal_and_resumes_in_order(problem):
    target, _macros, _envs, expected = problem
    en, ref = _pbe_enumerators(*problem)
    seq = _until_goal(en, expected)
    assert seq == _until_goal(ref, expected)
    size = term_size(seq[-1][0])
    assert en._done == size - 1 and en._build is not None  # paused inside the size
    assert en.constructed <= ref.constructed
    en.bank(target.grammar.start, size + 1)  # resumes, and builds on past the pause
    ref.bank(target.grammar.start, size + 1)
    assert en.constructed == ref.constructed
    for nt, _ in target.grammar.nonterminals:
        for s in range(1, size + 2):
            assert en.bank(nt, s) == ref.bank(nt, s), (nt, s)


def test_find_returns_the_first_match_in_bank_order():
    def goal(_term, vec):
        return vec == (0, 1, 2, 3, 4, 5, 6)

    ref = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False)
    want = next(e for e in ref.bank("S", 7) if goal(*e))
    assert want != ref.bank("S", 7)[0]
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False)
    assert en.find("S", 7, goal) == want
    assert en._done == 6 and en.constructed < ref.constructed
    assert en.find("S", 7, goal) == want  # the built part is scanned first
    assert en.find("S", 7, lambda _t, vec: False) is None  # and then the rest is built
    assert en.bank("S", 7) == ref.bank("S", 7)


def test_find_on_a_complete_bank_builds_nothing():
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9)
    bank = en.bank("S", 5)
    constructed = en.constructed
    assert en.find("S", 5, lambda _t, vec: True) == bank[0]
    assert en.find("S", 5, lambda _t, vec: vec == bank[-1][1]) == bank[-1]
    assert en.find("S", 5, lambda _t, vec: False) is None
    assert (en.constructed, en._done, en._build) == (constructed, 5, None)


def _whole_size_find(self, nt, size, goal):
    """Reference `find`: build the whole size, then scan it."""
    return next((e for e in self.bank(nt, size) if goal(*e)), None)


ITE_SPECS = ["(ite (<= x y) y x)", "(ite (= x y) (+ x 1) (- x y))", "(ite (< x 0) (- 0 x) (+ x y))"]
# These three end at the deadline under cegis; a smaller size cap ends them
# at the cap instead, so that nothing depends on the clock.
CLOCK_BOUND = {"inv_loop.sl", "inv_loop_guarded.sl", "qm_loop.sl"}


def _ite_spec(body):
    return parse("(set-logic LIA)\n(synth-fun f ((x Int) (y Int)) Int)\n(declare-var x Int)\n"
                 f"(declare-var y Int)\n(constraint (= (f x y) {body}))\n(check-synth)\n")


def _cegis_specs():
    for path in CORPUS:
        name = os.path.basename(path)
        yield pytest.param(lambda path=path: parse_file(path), 6 if name in CLOCK_BOUND else 20, id=name)
    for body in ITE_SPECS:
        yield pytest.param(lambda body=body: _ite_spec(body), 20, id=body)


@pytest.mark.parametrize("problem, cap", _cegis_specs())
def test_cegis_stops_early_like_a_whole_size_scan(problem, cap, monkeypatch):
    calls = []
    point_check = engine._point_check

    def counted(*args):  # counts calls to each round's check
        check = point_check(*args)
        return lambda entries: calls.append(1) or check(entries)

    monkeypatch.setattr(engine, "_point_check", counted)

    def run():
        calls.clear()
        out = cegis_solve(problem(), Budget(wallclock=60, max_term_size=cap))
        return out.emit() if isinstance(out, Solution) else out, len(calls)

    got = run()
    monkeypatch.setattr(Enumerator, "find", _whole_size_find)
    assert got == run()


@pytest.mark.parametrize("engine", ["cegis", "unif", "auto"])
@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_every_solver_keeps_a_one_second_budget(path, engine):
    p = parse_file(path)
    t0 = time.monotonic()
    _pick_solver(p, engine)(p, Budget(wallclock=1.0))
    assert time.monotonic() - t0 < 1.5


# f(1) = 0, else f(x) = x.  Wide inputs keep many predicate vectors apart,
# so the size-9 predicate pool takes several times the 0.5 s budget below
# (unbounded, the run is solved after about 2.4 s on a shared 2-core
# x86-64 host).
IF0_EXAMPLES = [(1, 0), (2, 2), (4, 4), (8, 8), (3, 3), (16, 16)] + [
    (v, v) for v in (2**63, 2**64 - 1, 0x123456789ABCDEF0, 0x0F0F0F0F0F0F0F0F)
]


def _if0_problem():
    with open(os.path.join(BENCH, "fig2_bv_template.sl")) as fh:
        text = fh.read()
    examples = "".join(f"(constraint (= (f #x{i:016x}) #x{o:016x}))\n" for i, o in IF0_EXAMPLES)
    return parse(text.replace("(check-synth)", examples + "(check-synth)"))


@pytest.mark.parametrize(
    "solve, problem, seconds",
    [
        (cegis_solve, lambda: parse_file(os.path.join(BENCH, "inv_loop.sl")), 3.0),
        (unify_solve, _if0_problem, 0.5),  # stitching reads Start predicates up to size 9
    ],
    ids=["inv_loop-cegis", "if0-unif"],
)
def test_budget_overruns_stop_at_the_deadline(solve, problem, seconds):
    p = problem()
    t0 = time.monotonic()
    out = solve(p, Budget(wallclock=seconds))
    assert time.monotonic() - t0 < seconds + 0.5
    assert isinstance(out, Failure) and out.reason == "budget-exhausted" and out.detail


# --- stop reasons ----------------------------------------------------------

# Finite grammars: an ite over x, 0 and 1; the same with only constant
# conditions, so that no predicate splits anything; no conditional at all.
# And two grammars with no size bound.
FINITE_ITE = "((Start Int (A (ite B A A))) (A Int (x 0 1)) (B Bool ((<= A A))))"
CONST_ITE = "((Start Int (A (ite B A A))) (A Int (x 0 1)) (B Bool ((= C C))) (C Int (0 1)))"
MINUS_ITE = "((Start Int (A (- A A) (ite B A A))) (A Int (x 0 1)) (B Bool ((<= A A))))"
FINITE_PLAIN = "((Start Int (A (+ A A))) (A Int (x 1)))"
OPEN_ITE = "((Start Int (x 0 1 (+ Start Start) (ite B Start Start))) (B Bool ((<= Start Start))))"
OPEN_PLAIN = "((Start Int (x 1 (+ Start Start))))"


def _lia_spec(grammar, constraints, decls="(declare-var x Int)", extra=""):
    return (f"(set-logic LIA)\n(synth-fun f ((x Int)) Int {grammar})\n{extra}{decls}\n"
            f"{constraints}\n(check-synth)")


# (problem text, size cap, counterexamples the oracle returns in turn,
#  {engine: (reason, detail)})
STOP_REASONS = {
    # PBE: no term gives f(1) = 5, so the covers never complete
    "pbe-finite-ite": (
        _lia_spec(FINITE_ITE, "(constraint (= (f 1) 5))"), 20, [],
        {"cegis": ("grammar-exhausted", ""), "unif": ("cover-stall", "")},
    ),
    # PBE with no conditional to stitch with: enumeration alone decides
    "pbe-finite-plain": (
        _lia_spec(FINITE_PLAIN, "(constraint (= (f 0) 7))"), 20, [],
        {"cegis": ("grammar-exhausted", ""), "unif": ("grammar-exhausted", "")},
    ),
    "pbe-open-plain": (
        _lia_spec(OPEN_PLAIN, "(constraint (= (f 0) -1))"), 5, [],
        {"cegis": ("budget-exhausted", "size cap reached"), "unif": ("budget-exhausted", "size cap reached")},
    ),
    # PBE: x, 0 and 1 cover the examples, but every condition is constant
    "pbe-stitch-fails": (
        _lia_spec(CONST_ITE, "(constraint (= (f 0) 0)) (constraint (= (f 1) 0)) (constraint (= (f 2) 1))"), 20, [],
        {"cegis": ("grammar-exhausted", ""), "unif": ("predicate-exhausted", "")},
    ),
    # no term up to size 4 gives f(3) = 103
    "size-cap": (
        _lia_spec(OPEN_ITE, "(constraint (= (f x) (+ x 100)))"), 4, [{"x": 3}],
        {"unif": ("budget-exhausted", "size cap reached")},
    ),
    "finite-ite": (
        _lia_spec(FINITE_ITE, "(constraint (= (f x) (+ x 100)))"), 20, [{"x": 3}],
        {"unif": ("cover-stall", "")},
    ),
    # 0 covers x = -1 and x covers x = 2, but every condition is constant
    "predicate-exhausted": (
        _lia_spec(CONST_ITE, "(constraint (= (f x) (ite (<= x 0) 0 x)))"), 20, [{"x": -1}, {"x": 2}],
        {"unif": ("predicate-exhausted", "")},
    ),
    # x covers the first point and (- 0 x) the second; no term covers both
    "two-invocations": (
        _lia_spec(MINUS_ITE, "(constraint (= (f x) (+ (f y) 1)))", "(declare-var x Int) (declare-var y Int)"),
        20, [{"x": 1, "y": 0}, {"x": 2, "y": 3}],
        {"unif": ("cover-stall", "multiple target invocations per point")},
    ),
    # as many environments (x = 1, x = 0) as points, still not one per point
    "two-invocations-as-many-envs-as-points": (
        _lia_spec(MINUS_ITE, "(constraint (= (f x) (+ (f y) 1)))", "(declare-var x Int) (declare-var y Int)"),
        20, [{"x": 1, "y": 0}, {"x": 0, "y": 1}],
        {"unif": ("cover-stall", "multiple target invocations per point")},
    ),
    # one invocation, equal arguments at both points: x and (+ x 1) cover
    # them, and no predicate tells their environments apart
    "one-invocation-repeated-args": (
        _lia_spec(OPEN_ITE, "(constraint (= (f x) (ite (<= y 0) x (+ x 1))))", "(declare-var x Int) (declare-var y Int)"),
        4, [{"x": 1, "y": 0}, {"x": 1, "y": 5}],
        {"unif": ("predicate-exhausted", "")},
    ),
    # (+ x 1) is refuted at x = 3 even though it holds there
    "repeated-counterexample": (
        _lia_spec(OPEN_ITE, "(constraint (= (f x) (+ x 1)))"), 20, [{"x": 3}, {"x": 3}],
        {"cegis": ("oracle-stall", "repeated counterexample"), "unif": ("oracle-stall", "repeated counterexample")},
    ),
    "two-targets": (
        _lia_spec("", "(constraint (= (f x) (g x)))", extra="(synth-fun g ((x Int)) Int)\n"), 20, [],
        {"unif": ("no-conditional-production", "unification handles a single target")},
    ),
    "no-conditional": (
        _lia_spec(OPEN_PLAIN, "(constraint (= (f x) (+ x 7)))"), 20, [],
        {"unif": ("no-conditional-production", "")},
    ),
}


def _refuting(points):
    """An `oracle.verify` that refutes the k-th candidate with `points[k]`."""
    calls = []

    def verify(problem, sol_map, cfg=None):
        calls.append(sol_map)
        assert len(calls) <= len(points), f"{sol_map} passed every chosen point"
        return oracle.Counterexample(points[len(calls) - 1])

    return verify


@pytest.mark.parametrize("name", list(STOP_REASONS))
def test_stop_reasons(name, monkeypatch):
    text, cap, points, want = STOP_REASONS[name]
    p = parse(text)
    for engine_name, reason in want.items():
        monkeypatch.setattr(oracle, "verify", _refuting(points))
        out = {"cegis": cegis_solve, "unif": unify_solve}[engine_name](p, Budget(wallclock=30, max_term_size=cap))
        assert isinstance(out, Failure), (engine_name, out)
        assert (out.reason, out.detail) == reason, engine_name


MAX2 = (
    "(set-logic LIA)\n(synth-fun max2 ((x Int) (y Int)) Int\n"
    "  ((Start Int (x y 0 1 (ite B Start Start))) (B Bool ((<= Start Start)))))\n"
    "(declare-var x Int) (declare-var y Int)\n"
    "(constraint (>= (max2 x y) x)) (constraint (>= (max2 x y) y))\n"
    "(constraint (or (= x (max2 x y)) (= y (max2 x y))))\n(check-synth)"
)


LET_ARG = "(constraint (let ((y (+ x 1))) (= (f y) (+ y 1))))"
TWO_TARGETS = (f"(set-logic LIA)\n(synth-fun f ((x Int)) Int {OPEN_ITE})\n(synth-fun g ((x Int)) Int {OPEN_ITE})\n"
               "(declare-var x Int)\n(constraint (= (f x) (g x)))\n(check-synth)")


def _point_check_specs():
    for name in ("abs.sl", "qm_inner.sl"):
        yield pytest.param(lambda name=name: parse_file(os.path.join(BENCH, name)), id=name)
    yield pytest.param(lambda: parse(MAX2), id="max2")
    for body in ITE_SPECS:
        yield pytest.param(lambda body=body: _ite_spec(body), id=body)
    two_vars = "(declare-var x Int) (declare-var y Int)"
    yield pytest.param(lambda: parse(_lia_spec(OPEN_ITE, "(constraint (= (f x) (+ (f y) 1)))", two_vars)),
                       id="two-applications")
    yield pytest.param(lambda: parse(_lia_spec(OPEN_ITE, "(constraint (= (f (f x)) (+ x 2)))")), id="nested")
    yield pytest.param(lambda: parse(TWO_TARGETS), id="two-targets")
    yield pytest.param(lambda: parse(_lia_spec(OPEN_ITE, LET_ARG)), id="let")


@pytest.mark.parametrize("problem", _point_check_specs())
def test_point_covers_match_a_per_point_check(problem):
    p = problem()
    rng = random.Random(3)
    points = [{n: rng.randint(-4, 4) for n, _ in p.universals} for _ in range(4)]
    envs = [engine.collect_envs(p, t, points) for t in p.targets]
    check = engine._point_check(p, points, envs)
    size = 6 if len(p.targets) == 1 else 3
    banks = [list(Enumerator(t.grammar, e, p.macro_map(), max_size=size, prune=False).enumerate())
             for t, e in zip(p.targets, envs)]
    partial = 0
    for entries in itertools.product(*banks):
        sol = {t.name: ([n for n, _ in t.params], term) for t, (term, _) in zip(p.targets, entries)}
        want = frozenset(i for i, pt in enumerate(points) if eval_constraints(p, sol, pt))
        assert check(entries) == want, entries
        # with no vector, as for a stitched term, every value is computed
        assert check([(term, ()) for term, _ in entries]) == want, entries
        partial += 0 < len(want) < len(points)
    assert partial


@pytest.mark.parametrize("engine_name", ["cegis", "unif", "auto"])
def test_a_let_bound_target_argument_is_solved(engine_name):
    p = parse(_lia_spec("", LET_ARG))
    out = _pick_solver(p, engine_name)(p, Budget(wallclock=30))
    assert isinstance(out, Solution), out
    assert out.emit() == "(define-fun f ((x Int)) Int (+ x 1))"


@pytest.mark.parametrize(
    "prods, want",
    [
        ("(qm S S) (if0 S S S) (ite B S S) (ite D S S)", ("ite", "B")),
        ("(qm S S) (if0 C S S) (if0 S S S)", ("if0", "C")),
        ("(qm S S) (ite true S S)", ("qm", None)),
        ("(+ S S)", (None, None)),
    ],
)
def test_conditional_kind_prefers_ite_then_if0_then_qm(prods, want):
    p = parse(
        "(set-logic LIA)\n(define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))\n"
        "(define-fun if0 ((c Int) (a Int) (b Int)) Int (ite (= c 1) a b))\n"
        f"(synth-fun f ((x Int)) Int ((S Int (x {prods})) (B Bool ((<= S S))) (C Int (x 1)) (D Bool ((< S S)))))\n"
        "(check-synth)"
    )
    assert _conditional_kind(p.targets[0].grammar) == want


CONFLICTING ="(constraint (= (f 1) 2)) (constraint (= (f 1) 3))"
AUTO_PICKS = {os.path.basename(path): unify_solve for path in CORPUS} | {
    "qm_loop.sl": cegis_solve,  # two targets
    "conflicting, default grammar": unify_solve,  # classed by the grammar's ite
    "conflicting, no conditional": cegis_solve,
}


@pytest.mark.parametrize("name", list(AUTO_PICKS))
def test_auto_picks_by_problem_class(name):
    if name.startswith("conflicting"):
        grammar = "" if "default" in name else OPEN_PLAIN
        p = parse(_lia_spec(grammar, CONFLICTING, decls=""))
    else:
        p = parse_file(os.path.join(BENCH, name))
    assert _pick_solver(p, "auto") is AUTO_PICKS[name]


# --- invariant atoms -------------------------------------------------------


INV_BENCHES = ["inv_loop.sl", "inv_loop_guarded.sl"]


def _ice_inputs(bench):
    p = parse_file(os.path.join(BENCH, bench))
    spec = p.invariant_spec
    names = [n for n, _ in spec.state_vars]
    return p, spec, names, p.target(spec.inv_name)


@pytest.mark.parametrize("bench", INV_BENCHES)
def test_ice_seed_matches_the_tree_walk(bench):
    p, spec, names, _ = _ice_inputs(bench)
    for seed in (0, 5):
        got = _ice_seed(p, spec, names, Budget(seed=seed))
        assert got == reference.ice_seed(p, spec, names, Budget(seed=seed))
        assert all(got)


@pytest.mark.parametrize("bench", INV_BENCHES)
def test_octagon_atoms_are_the_first_conformant_atom_per_vector(bench, monkeypatch):
    p, spec, names, target = _ice_inputs(bench)
    pos, neg, _ = _ice_seed(p, spec, names, Budget())
    states = sorted(pos | neg)
    envs = [dict(zip(names, s)) for s in states]
    bool_nt = next(n for n, s in target.grammar.nonterminals if s.kind == "Bool")
    got = _octagon_atoms(target, bool_nt, envs)
    # A checker that derives nothing is asked about every candidate atom.
    asked = []
    with monkeypatch.context() as m:
        m.setattr(oracle, "Derivable", lambda grammar: lambda nt, t: asked.append(t) or False)
        assert _octagon_atoms(target, bool_nt, envs) == []
    g = replace(target.grammar, start=bool_nt)
    ev = TreeEvaluator()
    conformant = [(t, tuple(ev.eval(t, env) for env in envs))
                  for t in asked if oracle.check_conformance(t, g).kind == "valid"]
    first = {}
    for t, v in conformant:
        first.setdefault(v, t)
    assert got == [(t, v) for v, t in first.items()] and len(asked) > 1000

    # _ice_tree's deduplicated predicate lists are those of every
    # conformant atom
    def preds_seen(atoms):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(engine, "_octagon_atoms", lambda *_: atoms)
            m.setattr(engine, "build_decision_tree", lambda ids, labels, leaf, preds, depth: seen.append(preds))
            engine._ice_tree(target, states, envs, pos, Budget(max_pred_size=5),
                             engine._Deadline(60), None, None)
        return seen

    seen = preds_seen(got)
    assert seen == preds_seen(conformant) and len(seen) == 9  # 3 pools x 3 depths


@pytest.mark.parametrize("bench", INV_BENCHES)
def test_ice_tree_reads_every_stage_from_one_enumerator(bench, monkeypatch):
    # each stage's predicates are the curated atoms plus the pool that an
    # enumerator capped at the stage's size builds, deduplicated once per stage
    p, spec, names, target = _ice_inputs(bench)
    pos, neg, _ = _ice_seed(p, spec, names, Budget())
    states = sorted(pos | neg)
    envs = [dict(zip(names, s)) for s in states]
    bool_nt = next(n for n, s in target.grammar.nonterminals if s.kind == "Bool")
    built, seen = [], []
    with monkeypatch.context() as m:
        m.setattr(engine, "Enumerator", lambda *a, **k: built.append(Enumerator(*a, **k)) or built[-1])
        m.setattr(engine, "build_decision_tree", lambda ids, labels, leaf, preds, depth: seen.append(preds))
        engine._ice_tree(target, states, envs, pos, Budget(max_pred_size=7),
                         engine._Deadline(60), None, None)
    assert len(built) == 1 and len(seen) == 12  # 4 pools x 3 depths
    curated = _octagon_atoms(target, bool_nt, envs)
    for stage in range(4):
        preds = curated
        if stage:
            cap = 2 * stage + 1
            preds = curated + _predicate_pool(Enumerator(target.grammar, envs, max_size=cap), bool_nt, cap)
        first = {}
        for t, v in preds:
            first.setdefault(v, t)
        assert seen[3 * stage] == [(t, v) for v, t in first.items()]
        assert seen[3 * stage + 1] is seen[3 * stage] and seen[3 * stage + 2] is seen[3 * stage]


# The states (50, 0), in pre, and (0, 50), outside post, lie beyond the
# seeds' range, so the seeds label nothing and the first two proposals are
# forced: true, then false.  trans keeps x + y, so (50, 0) reaches (0, 50).
SPLIT_INV = (
    "(set-logic LIA)\n(synth-inv inv ((x Int) (y Int)))\n"
    "(declare-primed-var x Int) (declare-primed-var y Int)\n"
    "(define-fun pre ((x Int) (y Int)) Bool (and (= x 50) (= y 0)))\n"
    "(define-fun trans ((x Int) (y Int) (x! Int) (y! Int)) Bool (= (+ x! y!) (+ x y)))\n"
    "(define-fun post ((x Int) (y Int)) Bool (not (and (= x 0) (= y 50))))\n"
    "(inv-constraint inv pre trans post)\n(check-synth)"
)
IN, OUT = (50, 0), (0, 50)


def _step(state, succ):
    return {"x": state[0], "y": state[1], "x!": succ[0], "y!": succ[1]}


@pytest.mark.parametrize("points, reason, detail, learned", [
    # true fails post at OUT, false fails pre at IN, and the split between
    # them fails trans from IN to OUT, which forces OUT inside as well
    ([_step(OUT, OUT), _step(IN, IN), _step(IN, OUT)], "ice-conflict",
     "an example is forced both inside and outside", [(set(), set()), (set(), {OUT}), ({IN}, {OUT})]),
    # under false every constraint holds at OUT, so OUT again teaches nothing
    ([_step(OUT, OUT), _step(OUT, OUT)], "oracle-stall", "counterexample added no new example",
     [(set(), set()), (set(), {OUT})]),
])
def test_ice_counterexamples_label_states(points, reason, detail, learned, monkeypatch):
    p = parse(SPLIT_INV)
    seen = []
    learn = engine._ice_learn

    def spy(target, names, pos, neg, *rest):
        seen.append((set(pos), set(neg)))
        return learn(target, names, pos, neg, *rest)

    monkeypatch.setattr(engine, "_ice_learn", spy)
    monkeypatch.setattr(oracle, "verify", _refuting(points))
    out = unify_solve(p, Budget(wallclock=30))
    assert isinstance(out, Failure) and (out.reason, out.detail) == (reason, detail)
    assert seen == learned


@pytest.mark.parametrize("succ, want", [((0, 1), "repaired"), (OUT, "ice-conflict")])
def test_ice_learn_repairs_a_broken_implication(succ, want, monkeypatch):
    # the first tree separates IN from OUT and leaves `succ` outside
    p = parse(SPLIT_INV)
    target, names = p.targets[0], ["x", "y"]
    calls = []
    tree = engine._ice_tree
    monkeypatch.setattr(engine, "_ice_tree", lambda *a: calls.append(set(a[3])) or tree(*a))
    body = engine._ice_learn(target, names, {IN}, {OUT}, {(IN, succ)}, Budget(), engine._Deadline(30))
    if want == "ice-conflict":
        assert isinstance(body, Failure) and body.reason == want and calls == [{IN}]
        return
    assert calls == [{IN}, {IN, succ}]
    holds = lambda s: Evaluator().eval(body, dict(zip(names, s)))
    assert holds(IN) and holds(succ) and not holds(OUT)


# --- decision trees -------------------------------------------------------


@st.composite
def _tree_inputs(draw):
    """Arguments for `build_decision_tree`: ids over 2-5 classes, boolean
    vectors with duplicates and constant ones among them, a depth, and a
    leaf like `_stitch`'s (the first cover holding every id) or like
    `_ice_tree`'s (one class throughout)."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(2, 5))
    ids = draw(st.sets(st.integers(0, n - 1), min_size=1))
    vec = st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)
    vecs = draw(st.lists(vec | st.sampled_from([(True,) * n, (False,) * n]), max_size=10))
    if vecs:
        vecs += draw(st.lists(st.sampled_from(vecs), max_size=4))
    preds = [(f"p{j}", v) for j, v in enumerate(vecs)]
    depth = draw(st.none() | st.integers(0, 3))
    if draw(st.booleans()):
        # each id is covered by its own class and maybe others, and is
        # labelled with the first class covering it, as in `_stitch`
        own = [draw(st.integers(0, k - 1)) for _ in range(n)]
        covers = [frozenset(i for i in range(n) if own[i] == c or draw(st.booleans())) for c in range(k)]
        labels = {i: next(c for c in range(k) if i in covers[c]) for i in range(n)}

        def leaf(subset):
            assert isinstance(subset, frozenset)
            return next((Leaf(c) for c in range(k) if subset <= covers[c]), None)
    else:
        labels = {i: draw(st.integers(0, k - 1)) for i in range(n)}

        def leaf(subset):
            assert isinstance(subset, frozenset)
            found = {labels[i] for i in subset}
            return Leaf(found.pop()) if len(found) == 1 else None

    return ids, labels, leaf, preds, depth


@settings(max_examples=300)
@given(_tree_inputs())
def test_mask_learner_grows_the_reference_tree(args):
    assert engine.build_decision_tree(*args) == reference.build_decision_tree(*args)


@pytest.mark.parametrize("name", ["inv_loop_guarded.sl", "abs.sl"])
def test_mask_learner_grows_the_reference_tree_inside_the_solvers(name, monkeypatch):
    calls = []
    learner = engine.build_decision_tree

    def both(ids, labels, leaf, preds, depth=None):
        got = learner(ids, labels, leaf, preds, depth)
        assert got == reference.build_decision_tree(ids, labels, leaf, preds, depth)
        calls.append(got)
        return got

    monkeypatch.setattr(engine, "build_decision_tree", both)
    assert unify_solve(parse_file(os.path.join(BENCH, name)), Budget(wallclock=60)).verdict.kind != "counterexample"
    assert any(t is not None for t in calls)


# --- nuggets ---------------------------------------------------------------


def test_nuggets_are_new_behaviours_at_size_k():
    sample = [{"x": v} for v in range(-5, 6)]
    ev = TreeEvaluator()

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


def test_nuggets_refuse_a_size_past_the_cap_before_building_it(monkeypatch):
    made = []

    class Recording(Enumerator):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            made.append(self)

    monkeypatch.setattr(engine, "Enumerator", Recording)
    below = sum(_count(s) for s in range(1, 5))  # 12 candidates up to size 4
    monkeypatch.setattr(engine, "MAX_NUGGET_BANK", below + _count(5) - 1)
    with pytest.raises(BudgetExceeded, match="up to size 5"):
        generate_nuggets(PLUS_GRAMMAR, 7, ENVS)
    assert (made[0].constructed, made[0]._done) == (below, 4)
    monkeypatch.setattr(engine, "MAX_NUGGET_BANK", below + _count(5))
    assert generate_nuggets(PLUS_GRAMMAR, 5, ENVS)


def test_nuggets_rejects_bad_k():
    with pytest.raises(ValueError):
        generate_nuggets(PLUS_GRAMMAR, 0, ENVS)
