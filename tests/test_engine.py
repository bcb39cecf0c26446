"""Enumeration, pruning, PBE extraction, synthesis loops, nuggets."""

import gc
import glob
import itertools
import os
import random
import re
import time
import weakref
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sygus.core import Apply, BOOL, Grammar, Hole, INT, Lit, STRING, Var, subst, template_holes, term_size
from sygus import engine, oracle, semantics
from sygus.engine import (
    BudgetExceeded,
    ConflictingExamples,
    Enumerator,
    Failure,
    Leaf,
    Solution,
    _conditional,
    _ice_seed,
    _octagon_atoms,
    _predicate_pool,
    _string_keep,
    cegis_solve,
    extract_pbe_points,
    generate_nuggets,
    unify_solve,
)
from sygus.frontend import default_grammar, parse, parse_file
from sygus.harness import SuiteConfig, _pick_solver, solve_benchmark
from sygus import oracle
from sygus.oracle import check_conformance
from sygus.semantics import Evaluator, eval_constraints

import reference
from reference import PointWalk, TreeEvaluator, enumerate_all

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


# S reads T's bank through an alias
ALIAS_GRAMMAR = Grammar(
    nonterminals=(("S", INT), ("T", INT)),
    start="S",
    productions=(
        ("S", (Hole("T", INT), X)),
        ("T", (Apply("+", (Hole("S", INT), Hole("S", INT)), INT), Lit(1, INT))),
    ),
)


def test_an_alias_admits_as_a_production_does():
    # keep is asked about each composite entry S admits, never a leaf,
    # and pruning keeps one term per S vector
    g = ALIAS_GRAMMAR
    asked = []

    def keep(nt, vec):
        asked.append((nt, vec))
        return nt != "S" or max(vec) < 3

    en = Enumerator(g, ENVS, max_size=7, keep=keep)
    entries = [e for s in range(1, 8) for e in en.bank("S", s)]
    assert (X, tuple(range(-3, 4))) in entries
    assert all(max(vec) < 3 for term, vec in entries if isinstance(term, Apply))
    assert any(isinstance(term, Apply) for term, _ in entries)
    assert len({vec for _, vec in entries}) == len(entries)
    # x, banked for S, and 1, for T and read into S, are leaves
    assert not {("S", tuple(range(-3, 4))), ("S", (1,) * 7), ("T", (1,) * 7)} & set(asked)
    assert ("S", entries[-1][1]) in asked


def test_enumerate_all_helper_is_unpruned():
    assert len(enumerate_all(PLUS_GRAMMAR, "S", 5)) == sum(_count(s) for s in range(1, 6))


def _vector_cases():
    sample = [{"x": v} for v in [0, 1, 2, 7, 2**63, 2**64 - 1]]
    yield pytest.param("fig2_bv_template.sl", lambda _p: sample, id="fig2")  # macro productions
    yield pytest.param("abs.sl", lambda _p: ENVS, id="abs")
    yield pytest.param("initials.sl", lambda p: [{"name": ex.inputs[0]} for ex in extract_pbe_points(p)], id="initials")
    # wide, as many-example PBE is: 70 and 128 points
    wide = sample + [{"x": (v * 0x9E3779B97F4A7C15) & (2**64 - 1)} for v in range(64)]
    yield pytest.param("fig2_bv_template.sl", lambda _p: wide, id="fig2-wide")
    yield pytest.param("abs.sl", lambda _p: [{"x": v} for v in range(-64, 64)], id="abs-wide")


@pytest.mark.parametrize("bench, envs", _vector_cases())
def test_generated_vectors_match_the_tree_walk(bench, envs):
    p = parse_file(os.path.join(BENCH, bench))
    g, envs = p.targets[0].grammar, envs(p)
    en = Enumerator(g, envs, p.macro_map(), max_size=7)
    # a BitVec vector is packed, one int per entry: decoded, it is the tuple
    entries = [(term, reference.unpacked(vec, sort, len(envs)))
               for nt, sort in g.nonterminals for s in range(1, 8) for term, vec in en.bank(nt, s)]
    assert all(len(vec) == len(envs) for _, vec in entries)
    for i, env in enumerate(envs):
        ev = PointWalk(p.macro_map(), env)
        for term, vec in entries:
            want = ev.eval(term, env)
            assert (type(vec[i]), vec[i]) == (type(want), want), (term, env)


# The fig2 grammar's generated source over one point: one function per
# production, its macros expanded, each vector one packed word computed by
# whole-word operations (a shift by a literal masked to its lanes, bvadd
# as a carry-free sum of each lane's low bits with the top bits set apart,
# if0's ite as a select through the lane mask of its selection), the inner
# loop of each commutative production halved over a bank paired with
# itself, the one-sided `if0` reading only the condition entries that
# `_s73` finds selecting both ways, each as a lane mask, and each banked
# entry tested against the goal inline, returning at a hit; this pins the
# source byte for byte.
FIG2_VECTOR_SOURCE = '''\
def _p0(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        vec = 0x0
        n += 1
        if not n % 1024: deadline.check(f'while building size {s}')
        if prune and vec in sigs:
            return
        term = _k1
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        if goal is not None and nt == goal[0] and goal[1](term, vec):
            en.hit = entry
            return
    finally:
        en.constructed = n
def _p2(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        vec = 0x1
        n += 1
        if not n % 1024: deadline.check(f'while building size {s}')
        if prune and vec in sigs:
            return
        term = _k3
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        if goal is not None and nt == goal[0] and goal[1](term, vec):
            en.hit = entry
            return
    finally:
        en.constructed = n
def _p4(en, nt, s):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        vec = _k5
        n += 1
        if not n % 1024: deadline.check(f'while building size {s}')
        if prune and vec in sigs:
            return
        term = _k7
        if prune:
            sigs[vec] = term
        entry = term, vec
        out.append(entry)
        if goal is not None and nt == goal[0] and goal[1](term, vec):
            en.hit = entry
            return
    finally:
        en.constructed = n
def _p8(en, nt, s, _v9):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v10, _v11 in _v9:
            vec = (_v11 ^ 0xffffffffffffffff)
            n += 1
            if not n % 1024: deadline.check(f'while building size {s}')
            if prune and vec in sigs:
                continue
            if keep is not None and not keep(nt, vec):
                continue
            term = _k13('bvnot', (_v10,), _k14)
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            if goal is not None and nt == goal[0] and goal[1](term, vec):
                en.hit = entry
                return
    finally:
        en.constructed = n
def _p15(en, nt, s, _v16):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v17, _v18 in _v16:
            vec = (_v18 << 1 & 0xfffffffffffffffe)
            n += 1
            if not n % 1024: deadline.check(f'while building size {s}')
            if prune and vec in sigs:
                continue
            if keep is not None and not keep(nt, vec):
                continue
            term = _k13('shl1', (_v17,), _k14)
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            if goal is not None and nt == goal[0] and goal[1](term, vec):
                en.hit = entry
                return
    finally:
        en.constructed = n
def _p20(en, nt, s, _v21):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v22, _v23 in _v21:
            vec = (_v23 >> 1 & 0x7fffffffffffffff)
            n += 1
            if not n % 1024: deadline.check(f'while building size {s}')
            if prune and vec in sigs:
                continue
            if keep is not None and not keep(nt, vec):
                continue
            term = _k13('shr1', (_v22,), _k14)
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            if goal is not None and nt == goal[0] and goal[1](term, vec):
                en.hit = entry
                return
    finally:
        en.constructed = n
def _p25(en, nt, s, _v26):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v27, _v28 in _v26:
            vec = (_v28 >> 4 & 0xfffffffffffffff)
            n += 1
            if not n % 1024: deadline.check(f'while building size {s}')
            if prune and vec in sigs:
                continue
            if keep is not None and not keep(nt, vec):
                continue
            term = _k13('shr4', (_v27,), _k14)
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            if goal is not None and nt == goal[0] and goal[1](term, vec):
                en.hit = entry
                return
    finally:
        en.constructed = n
def _p30(en, nt, s, _v31):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v32, _v33 in _v31:
            vec = (_v33 >> 16 & 0xffffffffffff)
            n += 1
            if not n % 1024: deadline.check(f'while building size {s}')
            if prune and vec in sigs:
                continue
            if keep is not None and not keep(nt, vec):
                continue
            term = _k13('shr16', (_v32,), _k14)
            if prune:
                sigs[vec] = term
            entry = term, vec
            out.append(entry)
            if goal is not None and nt == goal[0] and goal[1](term, vec):
                en.hit = entry
                return
    finally:
        en.constructed = n
def _p35(en, nt, s, _v36, _v37):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    diagonal = _v36 is _v37
    try:
        for k, (_v38, _v40) in enumerate(_v36):
            for _v39, _v41 in _k44(_v37, k if diagonal else 0, None):
                vec = (_v40 & _v41)
                n += 1
                if not n % 1024: deadline.check(f'while building size {s}')
                if prune and vec in sigs:
                    continue
                if keep is not None and not keep(nt, vec):
                    continue
                term = _k13('bvand', (_v38,_v39,), _k14)
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                if goal is not None and nt == goal[0] and goal[1](term, vec):
                    en.hit = entry
                    return
    finally:
        en.constructed = n
def _p45(en, nt, s, _v46, _v47):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    diagonal = _v46 is _v47
    try:
        for k, (_v48, _v50) in enumerate(_v46):
            for _v49, _v51 in _k44(_v47, k if diagonal else 0, None):
                vec = (_v50 | _v51)
                n += 1
                if not n % 1024: deadline.check(f'while building size {s}')
                if prune and vec in sigs:
                    continue
                if keep is not None and not keep(nt, vec):
                    continue
                term = _k13('bvor', (_v48,_v49,), _k14)
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                if goal is not None and nt == goal[0] and goal[1](term, vec):
                    en.hit = entry
                    return
    finally:
        en.constructed = n
def _p54(en, nt, s, _v55, _v56):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    diagonal = _v55 is _v56
    try:
        for k, (_v57, _v59) in enumerate(_v55):
            for _v58, _v60 in _k44(_v56, k if diagonal else 0, None):
                vec = (_v59 ^ _v60)
                n += 1
                if not n % 1024: deadline.check(f'while building size {s}')
                if prune and vec in sigs:
                    continue
                if keep is not None and not keep(nt, vec):
                    continue
                term = _k13('bvxor', (_v57,_v58,), _k14)
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                if goal is not None and nt == goal[0] and goal[1](term, vec):
                    en.hit = entry
                    return
    finally:
        en.constructed = n
def _p63(en, nt, s, _v64, _v65):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    diagonal = _v64 is _v65
    try:
        for k, (_v66, _v68) in enumerate(_v64):
            for _v67, _v69 in _k44(_v65, k if diagonal else 0, None):
                vec = ((_v68 & 0x7fffffffffffffff) + (_v69 & 0x7fffffffffffffff) ^ (_v68 ^ _v69) & 0x8000000000000000)
                n += 1
                if not n % 1024: deadline.check(f'while building size {s}')
                if prune and vec in sigs:
                    continue
                if keep is not None and not keep(nt, vec):
                    continue
                term = _k13('bvadd', (_v66,_v67,), _k14)
                if prune:
                    sigs[vec] = term
                entry = term, vec
                out.append(entry)
                if goal is not None and nt == goal[0] and goal[1](term, vec):
                    en.hit = entry
                    return
    finally:
        en.constructed = n
def _s73(bank):
    out = []
    for term, _v74 in bank:
        top = ((((_w76 := (_v74 ^ 0x1)) & 0x7fffffffffffffff) + 0x7fffffffffffffff | _w76) & 0x8000000000000000 ^ 0x8000000000000000)
        if top and top != 0x8000000000000000:
            out.append((term, ((top) >> 63) * 0xffffffffffffffff))
    return out
def _p72(en, nt, s, _v77, _v78, _v79):
    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed
    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal
    try:
        for _v80, _v83 in _s73(_v77):
            for _v81, _v84 in _v78:
                for _v82, _v85 in _v79:
                    vec = (_v85 ^ (_v84 ^ _v85) & _v83)
                    n += 1
                    if not n % 1024: deadline.check(f'while building size {s}')
                    if prune and vec in sigs:
                        continue
                    if keep is not None and not keep(nt, vec):
                        continue
                    term = _k13('if0', (_v80,_v81,_v82,), _k14)
                    if prune:
                        sigs[vec] = term
                    entry = term, vec
                    out.append(entry)
                    if goal is not None and nt == goal[0] and goal[1](term, vec):
                        en.hit = entry
                        return
    finally:
        en.constructed = n
_fns = (_p0,_p2,_p4,_p8,_p15,_p20,_p25,_p30,_p35,_p45,_p54,_p63,_s73,_p72,)
'''


def test_fig2_vector_source_is_unchanged(monkeypatch):
    p = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    sources = []
    build = semantics.SourceEmitter.build
    monkeypatch.setattr(semantics.SourceEmitter, "build",
                        lambda em, source, name: sources.append("\n".join(em.defs + [source])) or build(em, source, name))
    Enumerator(p.targets[0].grammar, [{"x": 1}], p.macro_map(), max_size=3).bank("Start", 1)
    assert sources == [FIG2_VECTOR_SOURCE.rstrip("\n")]


@pytest.mark.parametrize("points", [1, 65, 200])
def test_every_point_count_unrolls_its_vectors(monkeypatch, points):
    # each element of a tuple vector is an expression of its own at any
    # point count: no comprehension zips the columns; a BitVec vector is
    # one packed word at any point count, read whole
    sources = []
    build = semantics.SourceEmitter.build
    monkeypatch.setattr(semantics.SourceEmitter, "build",
                        lambda em, source, name: sources.append(source) or build(em, source, name))
    envs = [{"x": (v * 0x9E3779B97F4A7C15) & (2**64 - 1)} for v in range(points)]
    for bench in ("abs.sl", "fig2_bv_template.sl"):
        p = parse_file(os.path.join(BENCH, bench))
        Enumerator(p.targets[0].grammar, envs, p.macro_map(), max_size=3).bank("Start", 1)
    ints, words = sources
    assert not any("zip(" in src or "tuple(" in src for src in sources)
    # abs's leaf x unpacks its column into one local per point; fig2's is its column
    assert re.search(rf"^ +(_v\d+,){{{points}}} = _k\d+$", ints, re.M)
    assert re.search(r"^ +vec = _k\d+$", words, re.M) and not re.search(r"^ +(_v\d+,)+ = ", words, re.M)


def test_no_generated_build_function_yields(monkeypatch):
    # a build stops at a goal hit by returning, so nothing pauses to be
    # resumed: neither a production's function nor the shared alias one
    sources = []
    build = semantics.SourceEmitter.build
    monkeypatch.setattr(semantics.SourceEmitter, "build",
                        lambda em, source, name: sources.append(source) or build(em, source, name))
    Enumerator(ALIAS_GRAMMAR, ENVS, max_size=3).bank("S", 1)
    assert "def _alias(" in sources[0] and "def _p" in sources[0] and "yield" not in sources[0]


def _initials_problem():
    p = parse_file(os.path.join(BENCH, "initials.sl"))
    target = p.targets[0]
    examples = extract_pbe_points(p)
    return target, p.macro_map(), [{"name": ex.inputs[0]} for ex in examples], tuple(ex.output for ex in examples)


def _pbe_keep(target, expected):
    """The keep `_solve_pbe` gives a PBE problem with these outputs."""
    return _string_keep(dict(target.grammar.nonterminals), [str(o) for o in expected]) if target.ret == STRING else None


def _halving_cases():
    """(grammar, macros, envs, size, keep, halved)."""
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    abs_grammar = parse_file(os.path.join(BENCH, "abs.sl")).targets[0].grammar
    points = [(v * 0x9E3779B97F4A7C15) & (2**64 - 1) for v in range(70)]
    bv = fig2.targets[0].grammar, fig2.macro_map()
    yield pytest.param(*bv, [{"x": v} for v in points[:10]], 7, None, True, id="fig2")
    yield pytest.param(*bv, [{"x": v} for v in points], 6, None, True, id="fig2-wide")
    yield pytest.param(abs_grammar, None, ENVS, 7, None, True, id="abs")
    yield pytest.param(PLUS_GRAMMAR, None, ENVS, 9, None, True, id="plus")
    # `(+ ntInt ntInt)` is halved while keep refuses String candidates
    target, macros, envs, expected = _initials_problem()
    yield pytest.param(target.grammar, macros, envs, 8, _pbe_keep(target, expected), True, id="initials")
    x, y = Var("x", INT), Var("y", INT)
    universe = Grammar(  # criterion 9's
        (("S", INT), ("B", BOOL)),
        "S",
        (("S", (x, y, Lit(0, INT), Lit(1, INT),
                Apply("+", (Hole("S", INT), Hole("S", INT)), INT),
                Apply("ite", (Hole("B", BOOL), Hole("S", INT), Hole("S", INT)), INT))),
         ("B", (Apply("<=", (Hole("S", INT), Hole("S", INT)), BOOL),))),
    )
    yield pytest.param(universe, None, [{"x": a, "y": b} for a in (-2, 0, 1, 3) for b in (-1, 0, 2)], 7, None, True,
                       id="universe")
    # not halved: the holes of `+` have different nonterminals, or a macro
    # shadows `+` with an operator that does not commute
    mixed = Grammar(
        (("S", INT), ("A", INT)),
        "S",
        (("S", (X, Apply("+", (Hole("S", INT), Hole("A", INT)), INT))), ("A", (X, Lit(1, INT), Lit(2, INT)))),
    )
    yield pytest.param(mixed, None, ENVS, 9, None, False, id="mixed")
    minus = Apply("-", (Var("a", INT), Var("b", INT)), INT)
    yield pytest.param(PLUS_GRAMMAR, {"+": (["a", "b"], minus)}, ENVS, 8, None, False, id="shadowed")


@pytest.mark.parametrize("grammar, macros, envs, size, keep, halved", _halving_cases())
def test_halving_keeps_every_bank(grammar, macros, envs, size, keep, halved):
    # the full product under the same keep banks the same entries in order
    en = Enumerator(grammar, envs, macros, max_size=size, keep=keep)
    full = reference.FullProduct(grammar, envs, macros, max_size=size, keep=keep)
    for s in range(1, size + 1):
        for nt, _ in grammar.nonterminals:
            assert en.bank(nt, s) == full.bank(nt, s), (nt, s)
    assert any(p[0] == "comp" and p[6] for ps in en._prods.values() for p in ps) == halved
    if halved:
        assert en.constructed < full.constructed
    else:
        assert en.constructed == full.constructed


def _skip_cases():
    """(grammar, macros, envs, size, keep, mirrored, one_sided): a twin
    case, with how many productions are left out as mirrored and how many
    are built one-sided."""
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    bv = fig2.targets[0].grammar, fig2.macro_map()
    # an if0 on `x` selects at one point (x = 1), on 1 at every point and on
    # 0 at none: some conditions select both ways and some one way only
    yield pytest.param(*bv, [{"x": v} for v in (1, 2, 4, 8, 3, 16, 2**63, 2**64 - 1)], 7, None, 0, 1, id="fig2-if0")
    # the clia specs' default grammar: `>` and `>=` mirror `<` and `<=`
    # before them, and `(ite BoolNT IntNT IntNT)` is one-sided
    lia = default_grammar("LIA", (("x", INT), ("y", INT)), INT)
    lia_envs = [{"x": a, "y": b} for a in (-2, 0, 3) for b in (-1, 0, 2)]
    yield pytest.param(lia, None, lia_envs, 7, None, 2, 1, id="clia")
    # a keep that refuses some vectors of each nonterminal, skipped candidates' too
    refuse = lambda nt, vec: sum(vec) % 5 != 0
    yield pytest.param(lia, None, lia_envs, 7, refuse, 2, 1, id="clia-keep")
    a, b = Hole("A", INT), Hole("B", INT)
    comparisons = Grammar(  # only a mirror with its holes swapped is left out
        (("P", BOOL), ("A", INT), ("B", INT)),
        "P",
        (("P", (Apply("<", (a, b), BOOL), Apply(">", (b, a), BOOL), Apply(">", (a, b), BOOL),
                Apply(">=", (a, a), BOOL), Apply("<=", (a, a), BOOL), Apply("not", (Hole("P", BOOL),), BOOL))),
         ("A", (X, Lit(1, INT), Apply("+", (a, b), INT))),
         ("B", (X, Lit(0, INT), Apply("-", (b, a), INT)))),
    )
    yield pytest.param(comparisons, None, ENVS, 7, None, 2, 0, id="comparisons")
    # qm's expansion `(ite (< a 0) b a)` has hole 0 as a branch: not one-sided
    qm = parse_file(os.path.join(BENCH, "qm_inner.sl"))
    yield pytest.param(qm.targets[0].grammar, qm.macro_map(), ENVS, 7, None, 0, 0, id="qm")
    # `<=` shadowed by a macro mirrors nothing, and an ite whose branches
    # have another nonterminal is not one-sided
    s = Hole("S", INT)
    shadowed = Grammar(
        (("S", INT), ("B", BOOL), ("A", INT)),
        "S",
        (("S", (X, Lit(1, INT), Apply("+", (s, s), INT), Apply("ite", (Hole("B", BOOL), a, a), INT))),
         ("B", (Apply(">=", (s, s), BOOL), Apply("<=", (s, s), BOOL))),
         ("A", (X, Lit(2, INT)))),
    )
    le = (["p", "q"], Apply("<", (Var("p", INT), Var("q", INT)), BOOL))
    yield pytest.param(shadowed, {"<=": le}, ENVS, 7, None, 0, 0, id="shadowed")


def test_string_keep_takes_every_shortcut_on_initials():
    # `_solve_pbe`'s build for initials stops at the full product's hit,
    # every size before it banked alike, from fewer candidates
    target, macros, envs, expected = _initials_problem()
    keep = _pbe_keep(target, expected)
    ens = [cls(target.grammar, envs, macros, max_size=20, keep=keep) for cls in (Enumerator, reference.FullProduct)]
    hits = [en.first(lambda _term, vec: vec == expected) for en in ens]
    assert hits[0] == hits[1] is not None
    assert ens[0]._done == ens[1]._done
    for s in range(1, ens[0]._done + 1):
        for nt, _ in target.grammar.nonterminals:
            assert ens[0].bank(nt, s) == ens[1].bank(nt, s), (nt, s)
    assert [en.constructed for en in ens] == [79_334, 86_843]


@pytest.mark.parametrize("grammar, macros, envs, size, keep, mirrored, one_sided", _skip_cases())
def test_skipped_candidates_keep_every_bank(grammar, macros, envs, size, keep, mirrored, one_sided):
    # the full product under the same keep banks the same entries in order
    en = Enumerator(grammar, envs, macros, max_size=size, keep=keep)
    full = reference.FullProduct(grammar, envs, macros, max_size=size, keep=keep)
    for s in range(1, size + 1):
        for twin in (en, full):
            cost, before = twin.size_cost(s), twin.constructed
            twin.ensure(s)
            assert twin.constructed - before == cost, s
        for nt, _ in grammar.nonterminals:
            assert en.bank(nt, s) == full.bank(nt, s), (nt, s)
    count = lambda e: sum(len(ps) for ps in e._prods.values())
    assert count(full) - count(en) == mirrored
    assert sum(p[0] == "comp" and p[7] is not None for ps in en._prods.values() for p in ps) == one_sided
    assert not any(p[0] == "comp" and p[7] is not None for ps in full._prods.values() for p in ps)
    if mirrored or one_sided:
        assert en.constructed < full.constructed


def test_max_finite_size():
    assert Enumerator(PLUS_GRAMMAR, ENVS).max_finite_size() is None
    flat = Grammar(
        nonterminals=(("S", INT), ("A", INT)),
        start="S",
        productions=(("S", (Apply("+", (Hole("A", INT), Hole("A", INT)), INT),)), ("A", (X, Lit(1, INT)))),
    )
    assert Enumerator(flat, ENVS).max_finite_size() == 3


# --- packed BitVec vectors ------------------------------------------------


def _bv_literal(value, width):
    return f"#x{value:0{width // 4}x}" if width % 4 == 0 else f"#b{value:0{width}b}"


@st.composite
def _packed_cases(draw):
    """(problem, envs, size): a small BitVec grammar at width 1, 4, 8 or
    64 over 1-128 points.  S draws from the arithmetic and bitwise
    operators, shifts by literals (amounts at or past the width among
    them), a one-sided `ite` on a Bool nonterminal over `=`, a one-sided
    `if0` macro, and two-sided selections whose else branch is another
    BitVec nonterminal."""
    width = draw(st.sampled_from([1, 4, 8, 64]))
    bv, lit = f"(BitVec {width})", lambda v: _bv_literal(v % (1 << width), width)
    rng = random.Random(draw(st.integers(0, 2**16)))
    points = ([0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(126)])[:draw(st.integers(1, 128))]
    shifts = [f"({op} S {lit(k)})" for op in ("bvshl", "bvlshr")
              for k in draw(st.lists(st.integers(0, width + 2), max_size=2))]
    ops = draw(st.lists(st.sampled_from([
        "(bvadd S S)", "(bvsub S S)", "(bvneg S)", "(bvmul S S)", "(bvand S S)", "(bvor S S)", "(bvxor S S)",
        "(bvnot S)", "(ite B S S)", "(if0 S S S)", "(ite B S T)", "(if0 S S T)"]), min_size=1, max_size=5, unique=True))
    start = " ".join(["x", lit(0), lit(1), lit(draw(st.integers(0, (1 << width) - 1))), *shifts, *ops])
    text = (f"(set-logic BV)\n"
            f"(define-fun if0 ((c {bv}) (a {bv}) (b {bv})) {bv} (ite (= c {lit(draw(st.integers(0, 3)))}) a b))\n"
            f"(synth-fun f ((x {bv})) {bv} ((S {bv} ({start})) (T {bv} (x {lit(3)} (bvxor T S)))"
            f" (B Bool ((= S S) (= S {lit(1)}) (not B)))))\n(check-synth)")
    return parse(text), [{"x": v} for v in points], draw(st.integers(4, 6))


@settings(max_examples=40, deadline=None)
@given(_packed_cases())
def test_packed_vectors_match_the_full_product_and_the_tree_walk(case):
    # every BitVec vector is one int whose lanes, decoded, are the walked
    # values at each point; the shortcut build and the full product bank the
    # same entries in order, and each size constructs what size_cost says
    p, envs, size = case
    g, macros = p.targets[0].grammar, p.macro_map()
    en = Enumerator(g, envs, macros, max_size=size)
    full = reference.FullProduct(g, envs, macros, max_size=size)
    for s in range(1, size + 1):
        for twin in (en, full):
            cost, before = twin.size_cost(s), twin.constructed
            twin.ensure(s)
            assert twin.constructed - before == cost, s
        for nt, _ in g.nonterminals:
            assert en.bank(nt, s) == full.bank(nt, s), (nt, s)
    walks = [PointWalk(macros, env) for env in envs]
    for nt, sort in g.nonterminals:
        for s in range(1, size + 1):
            for term, vec in en.bank(nt, s):
                assert reference.unpacked(vec, sort, len(envs)) == tuple(w.eval(term, w.env) for w in walks), term


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
    sol = cegis_solve(p, 30)
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["abs"]
    ev = Evaluator()
    for v in range(-50, 51):
        assert ev.eval(body, {params[0]: v}) == abs(v)
    assert check_conformance(body, p.targets[0].grammar).kind == "valid"


def test_unify_solves_qm_inner():
    p = parse_file(os.path.join(BENCH, "qm_inner.sl"))
    sol = unify_solve(p, 30)
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["qm-inner-loop"]
    ev = Evaluator(p.macro_map())
    assert ev.eval(body, {params[0]: 0}) == 7
    for v in range(1, 101):
        assert ev.eval(body, {params[0]: v}) == v - 1


# qm_inner.sl with a `qm` that selects its first argument where it is
# negative: a chain stitched on the sign of its branch terms would be wrong
QM_FLIPPED = open(os.path.join(BENCH, "qm_inner.sl")).read().replace("(ite (< a 0) b a)", "(ite (< a 0) a b)")


def test_unify_rechecks_each_stitched_term(monkeypatch):
    rechecked = []
    cover_and_stitch = engine._cover_and_stitch

    def spy(*args):
        *rest, check = args

        def recorded(term):
            rechecked.append((term, check(term)))
            return rechecked[-1][1]

        return cover_and_stitch(*rest, recorded if check else None)

    monkeypatch.setattr(engine, "_cover_and_stitch", spy)
    # each chain takes a term where the flipped `qm` does, so each holds at
    # every point of its round; here every right value is nonnegative, so
    # none is ever taken, and the answer is a direct hit
    out = unify_solve(parse(QM_FLIPPED), 60)
    assert all(ok for _, ok in rechecked)
    assert isinstance(out, Solution) and out.verdict.kind != "counterexample"
    assert out.emit() == "(define-fun qm-inner-loop ((x Int)) Int (- x (- 1 (- 7 (qm (- x 1) 7)))))"
    # with the right values negated, the answer is a chain
    out = unify_solve(parse(QM_FLIPPED.replace("(ite (= x 0) 7 (- x 1))", "(ite (= x 0) (- 0 7) (- 0 x))")), 60)
    assert rechecked and all(ok for _, ok in rechecked)
    assert isinstance(out, Solution) and out.verdict.kind != "counterexample"
    assert out.emit() == "(define-fun qm-inner-loop ((x Int)) Int (qm (- 0 x) (- x 7)))"


# fig2 with an `if0` that selects where its condition is 0, and examples
# that a tree stitched on conditions equal to 1 gets wrong at x = 1
IF0_ON_ZERO = (
    open(os.path.join(BENCH, "fig2_bv_template.sl")).read()
    .replace("(ite (= x #x0000000000000001) y z)", "(ite (= x #x0000000000000000) y z)")
    .replace("(check-synth)", "".join(f"(constraint (= (f #x{i:016x}) #x{o:016x}))\n"
                                      for i, o in [(1, 0), (2, 2), (4, 4), (8, 8), (3, 3), (16, 16)]) + "(check-synth)")
)


def test_unify_pbe_returns_no_stitched_term_that_fails_an_example():
    p = parse(IF0_ON_ZERO)
    sol = unify_solve(p, 30)
    assert isinstance(sol, Solution) and sol.verdict.kind == "valid"
    assert sol.emit() == "(define-fun f ((x (BitVec 64))) (BitVec 64) (if0 (shr1 x) #x0000000000000000 x))"


def test_unify_returns_no_stitched_term_outside_the_grammar():
    # the ite's branches derive only x and 0, so (ite (<= x 0) 0 (+ x 1)) is no answer
    p = parse(_lia_spec("((Start Int (x 0 1 (+ Start Start) (ite B L L))) (L Int (x 0)) (B Bool ((<= Start Start))))",
                        "(constraint (= (f x) (ite (<= x 0) 0 (+ x 1))))"))
    out = unify_solve(p, 30)
    assert isinstance(out, Failure)
    assert (out.reason, out.detail) == ("cover-stall", "stitched candidate is not in the grammar")


QM_INNER = parse_file(os.path.join(BENCH, "qm_inner.sl"))


def _qm_cover_terms(terms, expected):
    """(term, cover mask, selection mask) over x = 0..len(expected)-1: the
    selection holds where `(qm t b)`, with b any other value, is t."""
    ev = Evaluator(QM_INNER.macro_map())
    out = []
    for t in terms:
        vec = tuple(ev.eval(t, {"x": x}) for x in range(len(expected)))
        taken = [ev.eval(Apply("qm", (Lit(v, INT), Lit(v + 1, INT)), INT), {}) == v for v in vec]
        out.append((t, engine._mask([v == e for v, e in zip(vec, expected)]), engine._mask(taken)))
    return out


def test_stitch_qm_chains_terms_by_their_sign():
    x = Var("x", INT)
    neg_x = Apply("-", (Lit(0, INT), x), INT)  # nonnegative at x = 0 only
    one_minus_x = Apply("-", (Lit(1, INT), x), INT)  # nonnegative at x = 0, 1
    expected = (0, 0, 2, 3)
    cond = _conditional(QM_INNER.targets[0].grammar, QM_INNER.macro_map())
    chain = engine._stitch_chain(_qm_cover_terms([neg_x, one_minus_x, x], expected), 0b1111, cond)
    assert chain == Apply("qm", (neg_x, Apply("qm", (one_minus_x, x), INT)), INT)
    ev = Evaluator(QM_INNER.macro_map())
    assert tuple(ev.eval(chain, {"x": v}) for v in range(4)) == expected


def test_stitch_qm_needs_a_sign_split_inside_a_cover():
    x = Var("x", INT)
    # together the terms cover every id, but x and 5 are nonnegative at
    # every id, and -x selects id 0 while it covers only id 2
    cover_terms = _qm_cover_terms([x, Apply("-", (Lit(0, INT), x), INT), Lit(5, INT)], (5, 1, -2))
    assert [c for _, c, _ in cover_terms] == [0b010, 0b100, 0b001]
    out = engine._stitch_chain(cover_terms, 0b111, _conditional(QM_INNER.targets[0].grammar, QM_INNER.macro_map()))
    assert isinstance(out, Failure) and out.reason == "predicate-exhausted"


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
    sol = unify_solve(p, 30)
    assert isinstance(sol, Solution)
    params, body = sol.as_map()["f"]
    ev = Evaluator()
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert ev.eval(body, dict(zip(params, (a, b)))) == max(a, b)
    assert check_conformance(body, p.targets[0].grammar).kind == "valid"


def test_unsolvable_reports_failure(monkeypatch):
    # 2*f(y) = 1 has no integer solution
    p = _pbe("(declare-var y Int) (constraint (= (* (f y) 2) 1))")
    monkeypatch.setattr(engine, "MAX_TERM_SIZE", 6)
    out = cegis_solve(p, 5)
    assert isinstance(out, Failure)


def test_round_caps(monkeypatch):
    """CEGIS and unification give up after more than `MAX_POINTS`
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
        m.setattr(engine, "MAX_POINTS", 2)
        for solve in (cegis_solve, unify_solve):
            calls.clear()
            out = solve(p, 30)
            assert isinstance(out, Failure) and out.reason == "budget-exhausted"
            assert len(calls) == 3

    inv = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))  # solved in one round
    monkeypatch.setattr(engine, "MAX_POINTS", 0)
    assert unify_solve(inv, 30).reason == "budget-exhausted"
    monkeypatch.setattr(engine, "MAX_POINTS", 1)
    assert isinstance(unify_solve(inv, 30), Solution)


def test_solver_determinism():
    p = parse_file(os.path.join(BENCH, "qm_inner.sl"))
    a = unify_solve(p, 30)
    b = unify_solve(p, 30)
    assert a.emit() == b.emit()


# --- predicate pools -------------------------------------------------------


def _pool_args(p):
    """Hole 0's nonterminal and the condition of `p`'s conditional production."""
    tmpl, cond, _, _ = _conditional(p.targets[0].grammar, p.macro_map())
    return template_holes(tmpl)[0].nonterminal, cond


def _enumerated_pool(en, nt, max_size, cond):
    """Reference pool, read off `enumerate` up to the first term past the
    cap, with `cond` evaluated on each element by the tree walk;
    `_predicate_pool` gives the same pool without building past it."""
    pool, seen, ev = [], set(), TreeEvaluator()
    for term, vec in en.enumerate(nt):
        if term_size(term) > max_size:
            break
        bvec = tuple(ev.eval(cond, {"0": v}) for v in reference.unpacked(vec, en.grammar.sort_of(nt), len(en.envs)))
        if bvec in seen or all(bvec) or not any(bvec):
            continue
        seen.add(bvec)
        pool.append((term, engine._mask(bvec)))  # a selection is an id mask
    return pool


def test_predicate_pool_stops_at_its_cap():
    # one point makes every Bool vector constant, so pruning empties the
    # Bool banks and no term past the cap is ever reached
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    cond_nt, cond = _pool_args(p)
    en = Enumerator(p.targets[0].grammar, [{"x": 0}], max_size=20)
    assert _predicate_pool(en, cond_nt, 9, en.sides(cond)) == []
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
    cond_nt, cond = _pool_args(p)
    want = _enumerated_pool(Enumerator(g, envs, p.macro_map(), max_size=cap + 2), cond_nt, cap, cond)
    en = Enumerator(g, envs, p.macro_map(), max_size=cap + 2)
    got = _predicate_pool(en, cond_nt, cap, en.sides(cond))
    assert got == want and want


def test_auto_keeps_the_budget_on_abs():
    # unification on abs stitches over a few points, where pruning empties
    # the Bool banks: only the pool's size cap bounds the stitch
    cfg = SuiteConfig(engine="auto", timeout=5)
    outcome, wall, _cpu, _size, _text = solve_benchmark(os.path.join(BENCH, "abs.sl"), cfg)
    assert outcome == "unknown-verified"
    assert wall < cfg.timeout


# --- the wallclock budget --------------------------------------------------


class _Clock(engine._Deadline):
    """Deadline stub: `left` seconds remain until a test sets it."""

    def __init__(self, left):
        super().__init__(left)
        self.left = left

    def remaining(self):
        return self.left


class _PassingClock(_Clock):
    """A deadline that passes the first time it is checked inside a size."""

    def check(self, where=""):
        if where.startswith("while building"):
            self.left = -1.0
        super().check(where)


def test_size_cost_counts_the_candidates_a_size_constructs():
    # on the shortcut path (pruning, with or without keep) and on the full product
    abs_grammar = parse_file(os.path.join(BENCH, "abs.sl")).targets[0].grammar
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    bv = [{"x": v} for v in (1, 2, 4, 8, 3, 16)]
    initials, initials_macros, initials_envs, expected = _initials_problem()
    keep = _pbe_keep(initials, expected)
    full = reference.FullProduct
    cases = [
        (Enumerator, PLUS_GRAMMAR, ENVS, None, 9, {"prune": False}),
        (Enumerator, PLUS_GRAMMAR, ENVS, None, 9, {}),
        (full, PLUS_GRAMMAR, ENVS, None, 9, {}),
        (Enumerator, abs_grammar, ENVS, None, 9, {}),
        (full, abs_grammar, ENVS, None, 9, {}),
        (Enumerator, fig2.targets[0].grammar, bv, fig2.macro_map(), 7, {}),
        (full, fig2.targets[0].grammar, bv, fig2.macro_map(), 7, {}),
        (Enumerator, initials.grammar, initials_envs, initials_macros, 8, {"keep": keep}),
        (full, initials.grammar, initials_envs, initials_macros, 8, {"keep": keep}),
    ]
    for case, (cls, grammar, envs, macros, size, options) in enumerate(cases):
        en = cls(grammar, envs, macros, max_size=size, **options)
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
    cond_nt, cond = _pool_args(p)
    envs = [{"x": v} for v in (1, 2, 4, 8, 3, 16)]
    timed = Enumerator(g, envs, p.macro_map(), deadline=_Clock(1e-9))
    free = Enumerator(g, envs, p.macro_map())
    pool = _predicate_pool(timed, cond_nt, 9, timed.sides(cond))
    assert pool == _predicate_pool(free, cond_nt, 9, free.sides(cond))
    assert timed._done == free._done == 9 and timed.constructed == free.constructed


@pytest.mark.parametrize("bench, envs, size", [
    ("fig2_bv_template.sl", [{"x": v} for v in (1, 2, 4, 8, 3, 16, 2**63, 2**64 - 1)], 6),
    ("abs.sl", [{"x": v} for v in range(-8, 9)], 7),
], ids=["if0", "ite"])
def test_predicate_pool_matches_the_reference(bench, envs, size):
    p = parse_file(os.path.join(BENCH, bench))
    g = p.targets[0].grammar
    cond_nt, cond = _pool_args(p)
    assert isinstance(cond, Var) == (bench == "abs.sl")  # (ite B S S) selects on B itself, if0 on (= C 1)
    en = Enumerator(g, envs, p.macro_map())
    pool = _predicate_pool(en, cond_nt, size, en.sides(cond))
    assert len(pool) > 20  # not a vacuous comparison
    assert pool == reference.predicate_pool(en, cond_nt, size, cond)
    assert all(type(sel) is int for _, sel in pool)


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


def _goal_vector(en, expected):
    """The start vector with the `expected` values: packed for a BitVec start."""
    return reference.packed(expected, en.grammar.sort_of(en.grammar.start))


def _pbe_enumerators(target, macros, envs, expected):
    """The enumerator `_solve_pbe` builds, with its goal, and a goal-free twin."""
    keep = _pbe_keep(target, expected)
    ens = [Enumerator(target.grammar, envs, macros, max_size=16, keep=keep) for _ in range(2)]
    want = _goal_vector(ens[0], expected)
    ens[0].goal = (target.grammar.start, lambda _term, vec: vec == want)
    return ens


def _until_goal(en, expected):
    seq, want = [], _goal_vector(en, expected)
    for term, vec in en.enumerate():
        seq.append((term, vec))
        if vec == want:
            return seq


@pytest.mark.parametrize("problem", _fig2_pbe_problems() + [_initials_problem()],
                         ids=[f"fig2-{i}" for i in range(6)] + ["initials"])
def test_the_build_stops_at_the_goal_and_resumes_in_order(problem):
    # the enumeration runs in order up to the size of the goal's first hit,
    # which stops that size for good and yields only the hit
    target, _macros, _envs, expected = problem
    en, ref = _pbe_enumerators(*problem)
    want = _until_goal(ref, expected)
    seq = list(itertools.islice(en.enumerate(), len(want) + 1))
    size = term_size(want[-1][0])
    assert seq == [e for e in want if term_size(e[0]) < size] + want[-1:]
    assert (en._done, en.hit, en.goal) == (size - 1, want[-1], None)  # stopped inside the size
    assert en.constructed <= ref.constructed
    with pytest.raises(BudgetExceeded, match=f"size {size} was cut short"):
        en.bank(target.grammar.start, size + 1)  # nothing resumes the stopped size
    for nt, _ in target.grammar.nonterminals:
        for s in range(1, size):
            assert en.bank(nt, s) == ref.bank(nt, s), (nt, s)


def _protocol_cases():
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    sample = [{"x": v} for v in [0, 1, 2, 7, 2**63, 2**64 - 1]]
    yield pytest.param(fig2.targets[0].grammar, fig2.macro_map(), sample, 6, "Start", id="fig2")
    yield pytest.param(ALIAS_GRAMMAR, None, ENVS, 8, "S", id="alias")


@pytest.mark.parametrize("grammar, macros, envs, size, _nt", _protocol_cases())
def test_a_build_with_no_goal_yields_nothing(grammar, macros, envs, size, _nt):
    en = Enumerator(grammar, envs, macros, max_size=size)
    twin = Enumerator(grammar, envs, macros, max_size=size)
    for s in range(1, size + 1):
        en._build_size(s)
        assert en.hit is None
        twin.ensure(s)
        assert en.constructed == twin.constructed
    assert en._bank == twin._bank


@pytest.mark.parametrize("grammar, macros, envs, size, nt", _protocol_cases())
def test_a_build_yields_once_per_goal_hit(grammar, macros, envs, size, nt):
    # a size built with a goal stops for good at its first hit, having
    # built a prefix of what a goal-free build of the size holds
    def goal(_term, vec):
        return reference.unpacked(vec, grammar.sort_of(nt), len(envs))[0] % 2 == 0

    twin = Enumerator(grammar, envs, macros, max_size=size)
    stops = 0
    for s in range(1, size + 1):
        before = twin.constructed
        hits = [e for e in twin.bank(nt, s) if goal(*e)]
        en = Enumerator(grammar, envs, macros, max_size=size)
        en.ensure(s - 1)
        en.goal = (nt, goal)
        en.ensure(s)
        if not hits:
            assert (en._done, en.hit, en.constructed) == (s, None, twin.constructed)
            continue
        stops += 1
        assert (en._done, en.hit) == (s - 1, hits[0]) and en._bank[nt, s][-1] is en.hit
        assert before + len(en._bank[nt, s]) <= en.constructed <= twin.constructed  # each entry banked was counted
        assert all(bank == twin._bank[k][:len(bank)] for k, bank in en._bank.items())
        assert all(list(sigs.items()) == list(twin._sigs[k].items())[:len(sigs)] for k, sigs in en._sigs.items())
        with pytest.raises(BudgetExceeded, match=f"size {s} was cut short"):
            en.ensure(s)
    assert stops


def _whole_size_first(self, goal):
    """Reference `first`: build each whole size, then scan it."""
    for s in range(1, self.max_size + 1):
        hit = next((e for e in self.bank(self.grammar.start, s) if goal(*e)), None)
        if hit is not None:
            return hit
    return None


def test_first_returns_the_entry_a_whole_size_scan_finds():
    def goal(_term, vec):
        return vec == (0, 1, 2, 3, 4, 5, 6)

    ref = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False)
    want = _whole_size_first(ref, goal)
    assert term_size(want[0]) == 7 and want != ref.bank("S", 7)[0]
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=9, prune=False)
    assert en.first(goal) == want
    assert en._done == 6 and en.constructed < ref.constructed and en.goal is None


def test_first_with_no_hit_builds_every_size():
    en = Enumerator(PLUS_GRAMMAR, ENVS, max_size=5)
    ref = Enumerator(PLUS_GRAMMAR, ENVS, max_size=5)
    assert en.first(lambda _t, vec: False) is None
    assert (en._done, en.goal) == (5, None)
    ref.ensure(5)
    assert (en._bank, en.constructed) == (ref._bank, ref.constructed)


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
    monkeypatch.setattr(engine, "MAX_TERM_SIZE", cap)

    def run():
        calls.clear()
        out = cegis_solve(problem(), 60)
        return out.emit() if isinstance(out, Solution) else out, len(calls)

    got = run()
    monkeypatch.setattr(Enumerator, "first", _whole_size_first)
    assert got == run()


@pytest.mark.parametrize("engine", ["cegis", "unif", "auto"])
@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_every_solver_keeps_a_one_second_budget(path, engine):
    p = parse_file(path)
    t0 = time.monotonic()
    _pick_solver(p, engine)(p, 1.0)
    assert time.monotonic() - t0 < 1.5


# f(1) = 0, else f(x) = x.  Wide inputs keep many predicate vectors apart,
# so the size-9 predicate pool takes several times the 0.5 s budget below
# (unbounded, the run is solved after about 2.4 s on a shared 2-core
# x86-64 host).
IF0_EXAMPLES = [(1, 0), (2, 2), (4, 4), (8, 8), (3, 3), (16, 16)] + [
    (v, v) for v in (2**63, 2**64 - 1, 0x123456789ABCDEF0, 0x0F0F0F0F0F0F0F0F)
]


def _fig2_pbe_text(examples):
    """The fig2 grammar with f's (input, output) `examples` as constraints."""
    with open(os.path.join(BENCH, "fig2_bv_template.sl")) as fh:
        text = fh.read()
    examples = "".join(f"(constraint (= (f #x{i:016x}) #x{o:016x}))\n" for i, o in examples)
    return text.replace("(check-synth)", examples + "(check-synth)")


def _fig2_pbe(examples):
    return parse(_fig2_pbe_text(examples))


def _if0_problem():
    return _fig2_pbe(IF0_EXAMPLES)


# The conditional macros renamed, in their define-fun and their
# applications only (`qm-inner-loop` keeps its name).
RENAMES = (("if0", "sel"), ("qm", "pick"))


def _renamed(text, back=False):
    for name, new in RENAMES:
        old, new = (new, name) if back else (name, new)
        text = text.replace(f"(define-fun {old} ", f"(define-fun {new} ").replace(f"({old} ", f"({new} ")
    return text


@pytest.mark.parametrize("engine_name", ["unif", "auto"])
def test_a_renamed_conditional_stitches_the_same(engine_name):
    # the stitcher reads a conditional production by its meaning, so a
    # problem whose conditional macro has another name has the same answer
    texts = {"qm_inner.sl": open(os.path.join(BENCH, "qm_inner.sl")).read(), "if0-on-zero": IF0_ON_ZERO}
    for i, (_target, _macros, envs, expected) in enumerate(_fig2_pbe_problems()):
        texts[f"fig2-pbe-{i}"] = _fig2_pbe_text([(env["x"], out) for env, out in zip(envs, expected)])
    for name, text in texts.items():
        assert _renamed(text) != text, name
        outs = []
        for t in (text, _renamed(text)):
            p = parse(t)
            out = _pick_solver(p, engine_name)(p, 30)
            assert isinstance(out, Solution), (name, out)
            outs.append(out.emit())
        assert _renamed(outs[1], back=True) == outs[0], name


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
    out = solve(p, seconds)
    assert time.monotonic() - t0 < seconds + 0.5
    assert isinstance(out, Failure) and out.reason == "budget-exhausted" and out.detail


class _ExpiringClock(_Clock):
    """A deadline that passes at its `looks`-th look over the predicates."""

    def __init__(self, looks):
        super().__init__(60.0)
        self.looks = looks

    def check(self, where=""):
        if where.endswith("predicates"):
            self.looks -= 1
            if self.looks <= 0:
                self.left = 0.0
        super().check(where)


@pytest.mark.parametrize("late", [0, 1], ids=["cut", "in-time"])
def test_the_pool_pass_stops_at_the_deadline(late):
    # with every size built, the pass over the banks reads the deadline once
    # per DEADLINE_STRIDE entries of each: a deadline that passes at its last
    # look cuts the pass inside the largest bank; one look later, it never does
    p = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    g = p.targets[0].grammar
    cond_nt, cond = _pool_args(p)
    envs = [{"x": i} for i, _ in IF0_EXAMPLES]
    en = Enumerator(g, envs, p.macro_map())
    banks = [en.bank(cond_nt, s) for s in range(1, 7)]
    assert len(banks[-1]) > 2 * engine.DEADLINE_STRIDE
    en.deadline = _ExpiringClock(sum(-(-len(b) // engine.DEADLINE_STRIDE) for b in banks) + late)
    if late:
        free = Enumerator(g, envs, p.macro_map())
        assert _predicate_pool(en, cond_nt, 6, en.sides(cond)) == _predicate_pool(free, cond_nt, 6, free.sides(cond))
    else:
        with pytest.raises(BudgetExceeded, match="deadline reached while reading the size-6 predicates"):
            _predicate_pool(en, cond_nt, 6, en.sides(cond))
    assert en.deadline.looks == late


def _stopped(problem):
    """An enumerator stopped at the goal of a direct fig2 PBE `problem`."""
    target, macros, envs, expected = problem
    en = _pbe_enumerators(target, macros, envs, expected)[0]
    assert _until_goal(en, expected) and en._done < term_size(en.hit[0])
    return en


@pytest.fixture
def collector_off():
    """The cyclic collector off for the test; what the test left is collected after it."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()
    gc.collect()


def test_an_enumerator_stopped_at_its_goal_is_freed_by_reference_counting(collector_off):
    for problem in _fig2_pbe_problems():
        ref = weakref.ref(_stopped(problem))
        assert ref() is None  # it is in no reference cycle


def test_a_bank_read_while_a_goal_enumeration_waits_is_whole():
    # the goal applies only to the sizes the enumeration builds, so a size
    # built for `bank` meanwhile, as a stitch's predicate pool builds it,
    # is whole, and the enumeration goes on over whole sizes to the hit
    for problem in _fig2_pbe_problems():
        target, _macros, _envs, expected = problem
        en, ref = _pbe_enumerators(*problem)
        want = _until_goal(ref, expected)
        size = term_size(want[-1][0])
        seq = en.enumerate()
        got = [next(seq)]
        for s in range(1, size + 2):
            for nt, _ in target.grammar.nonterminals:
                assert en.bank(nt, s) == ref.bank(nt, s), (nt, s)
        assert en.constructed == ref.constructed
        while got[-1][1] != _goal_vector(en, expected):
            got.append(next(seq))
        assert got == want


# Criterion-6 program #11: its covers complete in size 5 ahead of the
# direct hit in that size, which a stopped size yields alone.
SHL1_REFERENCE = "(shl1 (bvnot (bvxor #x0000000000000001 x)))"
SHL1_INPUTS = (0x0, 0x1, 0xffffffffffffffff, 0x100000000, 0xffffffff, 0xb4ca01423b239fd8, 0x7a31a27cced4dd7c,
               0x7d5e121623a35ae, 0x14c30b503d0daad0, 0x1932263c4eec95b0)


@pytest.mark.parametrize("engine_name", ["unif", "auto"])
def test_a_direct_hit_beats_a_stitch_in_its_own_size(engine_name):
    mask = (1 << 64) - 1
    p = _fig2_pbe([(x, ((1 ^ x) ^ mask) << 1 & mask) for x in SHL1_INPUTS])
    out = _pick_solver(p, engine_name)(p, 30)
    assert isinstance(out, Solution) and out.emit().endswith(f" {SHL1_REFERENCE})")


# A size-6 fig2 program over 200 examples, three times as many points as
# any CEGIS round here reaches.
WIDE_REFERENCE = "(bvadd x (shl1 (shr4 x)))"


def _wide_pbe():
    mask = (1 << 64) - 1
    rng = random.Random(200)
    inputs = [0, 1, mask] + [rng.getrandbits(64) for _ in range(197)]
    return _fig2_pbe([(x, (x + ((x >> 4) << 1)) & mask) for x in inputs])


@pytest.mark.parametrize("engine_name", ["cegis", "auto"])
def test_many_example_pbe_finds_its_term(engine_name):
    p = _wide_pbe()
    assert len(extract_pbe_points(p)) == 200
    out = _pick_solver(p, engine_name)(p, 30)
    assert isinstance(out, Solution) and out.emit().endswith(f" {WIDE_REFERENCE})")
    assert out.verdict.kind == "valid"


def _fig2_direct_problems():
    """Three criterion-6 style problems as fig2 PBE problems: each is solved
    by a term that meets every example, found in a build that stops there."""
    return [_fig2_pbe([(env["x"], out) for env, out in zip(envs, expected)])
            for _target, _macros, envs, expected in _fig2_pbe_problems()[:3]]


def test_a_solve_frees_every_enumerator_it_paused(monkeypatch, collector_off):
    refs = []

    def make(*args, **kwargs):
        en = Enumerator(*args, **kwargs)
        refs.append(weakref.ref(en))
        return en

    monkeypatch.setattr(engine, "Enumerator", make)
    for p in _fig2_direct_problems():
        for solve in (unify_solve, cegis_solve):
            refs.clear()
            assert isinstance(solve(p, 30), Solution)
            assert refs and all(r() is None for r in refs)


def test_no_object_stays_frozen_after_a_solve():
    problems = _fig2_direct_problems()
    tracked = []
    for _ in range(3):
        for p in problems:
            for solve in (unify_solve, cegis_solve):
                assert isinstance(solve(p, 30), Solution)
                assert gc.get_freeze_count() == 0
        tracked.append(len(gc.get_objects()))
    # a solve leaves nothing behind for a later collection to find
    assert tracked[-1] < tracked[0] + 1000, tracked
    assert gc.get_freeze_count() == 0
    inv = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))  # the ICE learner
    assert isinstance(unify_solve(inv, 30), Solution)
    assert gc.get_freeze_count() == 0
    fig2 = parse_file(os.path.join(BENCH, "fig2_bv_template.sl"))
    sample = [{"x": v} for v in range(10)]
    assert generate_nuggets(fig2.targets[0].grammar, 3, sample, fig2.macro_map())
    assert gc.get_freeze_count() == 0


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
        {"cegis": ("budget-exhausted", "size cap reached"), "unif": ("budget-exhausted", "size cap reached")},
    ),
    "finite-ite": (
        _lia_spec(FINITE_ITE, "(constraint (= (f x) (+ x 100)))"), 20, [{"x": 3}],
        {"cegis": ("grammar-exhausted", ""), "unif": ("cover-stall", "")},
    ),
    # 0 covers x = -1 and x covers x = 2, but every condition is constant
    "predicate-exhausted": (
        _lia_spec(CONST_ITE, "(constraint (= (f x) (ite (<= x 0) 0 x)))"), 20, [{"x": -1}, {"x": 2}],
        {"cegis": ("grammar-exhausted", ""), "unif": ("predicate-exhausted", "")},
    ),
    # x covers the first point and (- 0 x) the second; no term covers both
    "two-invocations": (
        _lia_spec(MINUS_ITE, "(constraint (= (f x) (+ (f y) 1)))", "(declare-var x Int) (declare-var y Int)"),
        20, [{"x": 1, "y": 0}, {"x": 2, "y": 3}],
        {"cegis": ("grammar-exhausted", ""), "unif": ("cover-stall", "multiple target invocations per point")},
    ),
    # as many environments (x = 1, x = 0) as points, still not one per point
    "two-invocations-as-many-envs-as-points": (
        _lia_spec(MINUS_ITE, "(constraint (= (f x) (+ (f y) 1)))", "(declare-var x Int) (declare-var y Int)"),
        20, [{"x": 1, "y": 0}, {"x": 0, "y": 1}],
        {"cegis": ("grammar-exhausted", ""), "unif": ("cover-stall", "multiple target invocations per point")},
    ),
    # one invocation, equal arguments at both points: x and (+ x 1) cover
    # them, and no predicate tells their environments apart
    "one-invocation-repeated-args": (
        _lia_spec(OPEN_ITE, "(constraint (= (f x) (ite (<= y 0) x (+ x 1))))", "(declare-var x Int) (declare-var y Int)"),
        4, [{"x": 1, "y": 0}, {"x": 1, "y": 5}],
        {"cegis": ("budget-exhausted", "size cap reached"), "unif": ("predicate-exhausted", "")},
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
    # the product loop: no pair of finite-grammar terms gives f(3) = g(3) + 100
    "two-targets-finite": (
        _lia_spec(FINITE_PLAIN, "(constraint (= (f x) (+ (g x) 100)))",
                  extra=f"(synth-fun g ((x Int)) Int {FINITE_PLAIN})\n"), 20, [{"x": 3}],
        {"cegis": ("grammar-exhausted", "")},
    ),
    # the product loop: no pair of terms up to size 4 gives f(3) = g(3) + 10,
    # though (+ x (+ x (+ x (+ 1 1)))) and 1 would
    "two-targets-size-cap": (
        _lia_spec(OPEN_PLAIN, "(constraint (= (f x) (+ (g x) 10)))",
                  extra=f"(synth-fun g ((x Int)) Int {OPEN_PLAIN})\n"), 4, [{"x": 3}],
        {"cegis": ("budget-exhausted", "size cap reached")},
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
    monkeypatch.setattr(engine, "MAX_TERM_SIZE", cap)
    for engine_name, reason in want.items():
        monkeypatch.setattr(oracle, "verify", _refuting(points))
        out = {"cegis": cegis_solve, "unif": unify_solve}[engine_name](p, 30)
        assert isinstance(out, Failure), (engine_name, out)
        assert (out.reason, out.detail) == reason, engine_name


COUPLED = {
    "(= (f x) (g x))": "(define-fun f ((x Int)) Int x)\n(define-fun g ((x Int)) Int x)",
    "(= (f x) (+ (g x) 1))": "(define-fun f ((x Int)) Int 1)\n(define-fun g ((x Int)) Int 0)",
}


@pytest.mark.parametrize("engine_name", ["cegis", "auto"])
@pytest.mark.parametrize("constraint", list(COUPLED))
def test_the_product_loop_solves_coupled_targets(constraint, engine_name):
    # one constraint over both targets, so neither can be solved alone
    p = parse(_lia_spec(OPEN_ITE, f"(constraint {constraint})", extra=f"(synth-fun g ((x Int)) Int {OPEN_ITE})\n"))
    solve = _pick_solver(p, engine_name)
    assert solve is cegis_solve
    t0 = time.monotonic()
    out = solve(p, 30)
    assert time.monotonic() - t0 < 1.0
    assert isinstance(out, Solution) and out.emit() == COUPLED[constraint]


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
        want = sum(1 << i for i, pt in enumerate(points) if eval_constraints(p, sol, pt))
        assert check(entries) == want, entries
        # with no vector, as for a stitched term, every value is computed
        assert check([(term, ()) for term, _ in entries]) == want, entries
        partial += 0 < want.bit_count() < len(points)
    assert partial


@pytest.mark.parametrize("engine_name", ["cegis", "unif", "auto"])
def test_a_let_bound_target_argument_is_solved(engine_name):
    p = parse(_lia_spec("", LET_ARG))
    out = _pick_solver(p, engine_name)(p, 30)
    assert isinstance(out, Solution), out
    assert out.emit() == "(define-fun f ((x Int)) Int (+ x 1))"


@pytest.mark.parametrize(
    "prods, want",
    [
        ("(qm S S) (if0 S S S) (ite B S S) (ite D S S)", ("ite", "B")),
        ("(qm S S) (if0 C S S) (if0 S S S)", ("if0", "C")),
        ("(qm S S) (ite true S S)", ("qm", "S")),
        ("(+ S S)", (None, None)),
    ],
)
def test_conditional_kind_prefers_ite_then_if0_then_qm(prods, want):
    # (op, hole 0's nonterminal) of the production picked: a condition that
    # is hole 0, then one computed from it, then a chain; an ite whose
    # condition reads no hole is none of them
    p = parse(
        "(set-logic LIA)\n(define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))\n"
        "(define-fun if0 ((c Int) (a Int) (b Int)) Int (ite (= c 1) a b))\n"
        f"(synth-fun f ((x Int)) Int ((S Int (x {prods})) (B Bool ((<= S S))) (C Int (x 1)) (D Bool ((< S S)))))\n"
        "(check-synth)"
    )
    cond = _conditional(p.targets[0].grammar, p.macro_map())
    got = (None, None) if cond is None else (cond[0].op, template_holes(cond[0])[0].nonterminal)
    assert got == want


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
        got = _ice_seed(p, spec, names, seed)
        assert got == reference.ice_seed(p, spec, names, seed)
        assert all(got)


def test_ice_seeding_and_tier_2_read_the_seed_constant(monkeypatch):
    # one seed for the whole run: ICE samples its states from the
    # verifier's constant, and tier 2 draws its points from it
    ice_seeds, search_seeds = [], []
    ice_seed, search_points = engine._ice_seed, oracle._search_points
    monkeypatch.setattr(engine, "_ice_seed", lambda *a: ice_seeds.append(a[3]) or ice_seed(*a))
    monkeypatch.setattr(oracle, "_search_points", lambda *a: search_seeds.append(a[2]) or search_points(*a))
    monkeypatch.setattr(oracle, "SEED", 5)
    p = parse_file(os.path.join(BENCH, "inv_loop_guarded.sl"))
    assert isinstance(unify_solve(p), Solution)
    assert ice_seeds == [5]
    assert search_seeds and set(search_seeds) == {5}


@pytest.mark.parametrize("bench", INV_BENCHES)
def test_octagon_atoms_are_the_first_conformant_atom_per_vector(bench, monkeypatch):
    p, spec, names, target = _ice_inputs(bench)
    pos, neg, _ = _ice_seed(p, spec, names, 0)
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
            m.setattr(engine, "build_decision_tree", lambda ids, covers, preds, depth: seen.append(preds))
            m.setattr(engine, "MAX_PRED_SIZE", 5)
            engine._ice_tree(target, states, envs, pos, engine._Deadline(60))
        return seen

    seen = preds_seen(got)
    assert seen == preds_seen(conformant) and len(seen) == 9  # 3 pools x 3 depths


@pytest.mark.parametrize("bench", INV_BENCHES)
def test_ice_tree_reads_every_stage_from_one_enumerator(bench, monkeypatch):
    # each stage's predicates are the curated atoms plus the pool that an
    # enumerator capped at the stage's size builds, deduplicated once per stage
    p, spec, names, target = _ice_inputs(bench)
    pos, neg, _ = _ice_seed(p, spec, names, 0)
    states = sorted(pos | neg)
    envs = [dict(zip(names, s)) for s in states]
    bool_nt = next(n for n, s in target.grammar.nonterminals if s.kind == "Bool")
    built, seen = [], []
    with monkeypatch.context() as m:
        m.setattr(engine, "Enumerator", lambda *a, **k: built.append(Enumerator(*a, **k)) or built[-1])
        m.setattr(engine, "build_decision_tree", lambda ids, covers, preds, depth: seen.append(preds))
        m.setattr(engine, "MAX_PRED_SIZE", 7)
        engine._ice_tree(target, states, envs, pos, engine._Deadline(60))
    assert len(built) == 1 and len(seen) == 12  # 4 pools x 3 depths
    curated = [(t, engine._mask(v)) for t, v in _octagon_atoms(target, bool_nt, envs)]
    for stage in range(4):
        preds = curated
        if stage:
            cap = 2 * stage + 1
            en = Enumerator(target.grammar, envs, max_size=cap)
            preds = curated + _predicate_pool(en, bool_nt, cap, en.sides(Var("0", BOOL)))
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
    out = unify_solve(p, 30)
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
    body = engine._ice_learn(target, names, {IN}, {OUT}, {(IN, succ)}, engine._Deadline(30))
    if want == "ice-conflict":
        assert isinstance(body, Failure) and body.reason == want and calls == [{IN}]
        return
    assert calls == [{IN}, {IN, succ}]
    holds = lambda s: Evaluator().eval(body, dict(zip(names, s)))
    assert holds(IN) and holds(succ) and not holds(OUT)


# --- decision trees -------------------------------------------------------


def _id_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@st.composite
def _tree_inputs(draw):
    """The engine's arguments for `build_decision_tree` (an id mask, covers
    as (payload, mask), preds, depth) and the reference's (ids, labels,
    leaf, preds, depth) for one case: ids over 2-5 classes, predicates
    as (payload, mask) from boolean vectors with duplicates and constant
    ones among them, a depth, and
    covers and a leaf like `_stitch`'s (the first cover holding every id)
    or like `_ice_tree`'s (one class throughout)."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(2, 5))
    ids = draw(st.sets(st.integers(0, n - 1), min_size=1))
    vec = st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)
    vecs = draw(st.lists(vec | st.sampled_from([(True,) * n, (False,) * n]), max_size=10))
    if vecs:
        vecs += draw(st.lists(st.sampled_from(vecs), max_size=4))
    preds = [(f"p{j}", engine._mask(v)) for j, v in enumerate(vecs)]
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
        # the partition by label, as `_ice_tree`'s inside and outside
        covers = [frozenset(i for i in range(n) if labels[i] == c) for c in range(k)]

        def leaf(subset):
            assert isinstance(subset, frozenset)
            found = {labels[i] for i in subset}
            return Leaf(found.pop()) if len(found) == 1 else None

    masks = [(c, sum(1 << i for i in cover)) for c, cover in enumerate(covers)]
    return (sum(1 << i for i in ids), masks, preds, depth), (ids, labels, leaf, preds, depth)


@settings(max_examples=300)
@given(_tree_inputs())
def test_mask_learner_grows_the_reference_tree(args):
    engine_args, reference_args = args
    assert engine.build_decision_tree(*engine_args) == reference.build_decision_tree(*reference_args)


@pytest.mark.parametrize("name", ["inv_loop_guarded.sl", "abs.sl"])
def test_mask_learner_grows_the_reference_tree_inside_the_solvers(name, monkeypatch):
    calls = []
    learner = engine.build_decision_tree

    def both(ids, covers, preds, depth=None):
        got = learner(ids, covers, preds, depth)
        # the reference's labels and leaf, from the covers by the learner's rule
        sets = [(payload, _id_set(c)) for payload, c in covers]
        labels = {i: next(k for k, (_, c) in enumerate(sets) if i in c) for i in _id_set(ids)}

        def leaf(subset):
            return next((Leaf(payload) for payload, c in sets if subset <= c), None)

        assert got == reference.build_decision_tree(_id_set(ids), labels, leaf, preds, depth)
        calls.append(got)
        return got

    monkeypatch.setattr(engine, "build_decision_tree", both)
    assert unify_solve(parse_file(os.path.join(BENCH, name)), 60).verdict.kind != "counterexample"
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
