"""Golden solutions: at seed 0 the engines' output stays byte-identical.

Each entry is a problem, an engine and what the run must produce: the
emitted `Solution.emit()` text with its verdict kind and point count, or
the `Failure.reason`.  The expected values were captured from the
engines before their CEGIS loops, ID3 learners and predicate-pool
builders were merged into one of each; a refactor that changes search
order, tie-breaks or round caps shows up here.

Conditional kinds covered by stitching: `ite` (PBE `ite_max`, non-PBE
`max2`), `if0` (PBE `if0`) and `qm` (`qm_inner.sl` under unification),
plus the ICE learner on both invariant benchmarks.

`VERDICTS` pins what `verify` returns (kind, point, reason) for right and
wrong candidates, captured the same way.  One value differs from its
capture: the wrong `initials.sl` literal's point, which was `{}` while
PBE problems had their own branch in the oracle and is now the
universals' defaults, as for any other ground constraint.  The verdicts
from `(>= i 0)` on were captured while tier 2 still ran on the closure
evaluator, before it ran as generated code.
"""

import os

import pytest

from sygus.engine import Failure, cegis_solve, unify_solve
from sygus.frontend import parse, parse_file, parse_solution
from sygus.harness import _pick_solver
from sygus.oracle import verify

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

ITE_MAX = (
    "(set-logic LIA)\n"
    "(synth-fun f ((x Int) (y Int)) Int\n"
    "  ((Start Int (x y (ite B Start Start)))\n"
    "   (B Bool ((<= Start Start)))))\n"
    "(constraint (= (f 0 1) 1)) (constraint (= (f 1 0) 1))\n"
    "(constraint (= (f 3 2) 3)) (constraint (= (f -1 -2) -1))\n"
    "(constraint (= (f 2 5) 5)) (constraint (= (f 7 7) 7))\n"
    "(check-synth)"
)

MAX2 = (
    "(set-logic LIA)\n"
    "(synth-fun max2 ((x Int) (y Int)) Int\n"
    "  ((Start Int (x y 0 1 (ite B Start Start)))\n"
    "   (B Bool ((<= Start Start)))))\n"
    "(declare-var x Int) (declare-var y Int)\n"
    "(constraint (>= (max2 x y) x)) (constraint (>= (max2 x y) y))\n"
    "(constraint (or (= x (max2 x y)) (= y (max2 x y))))\n"
    "(check-synth)"
)

IF0 = (
    "(set-logic BV)\n"
    "(define-fun if0 ((c (BitVec 64)) (a (BitVec 64)) (b (BitVec 64))) (BitVec 64)\n"
    "  (ite (= c #x0000000000000001) a b))\n"
    "(synth-fun f ((x (BitVec 64))) (BitVec 64)\n"
    "  ((Start (BitVec 64) (#x0000000000000000 #x0000000000000001 x (bvnot Start)\n"
    "                       (if0 Start Start Start)))))\n"
    "(constraint (= (f #x0000000000000001) #x0000000000000000))\n"
    "(constraint (= (f #x0000000000000002) #x0000000000000002))\n"
    "(constraint (= (f #x0000000000000003) #x0000000000000003))\n"
    "(constraint (= (f #x0000000000000008) #x0000000000000008))\n"
    "(check-synth)"
)

# Universally quantified over BitVec and String, each with an equation
# that derives `y` or `t`: tier 2 over those sorts' pools and draws.
BV_DOUBLE = (
    "(set-logic BV)\n"
    "(synth-fun f ((x (BitVec 64))) (BitVec 64) ((Start (BitVec 64) (x (bvadd Start Start)))))\n"
    "(declare-var x (BitVec 64)) (declare-var y (BitVec 64))\n"
    "(constraint (=> (= y (bvadd x x)) (= (f x) y)))\n"
    "(check-synth)"
)

STR_PREFIX = (
    "(set-logic SLIA)\n"
    "(synth-fun f ((s String)) String ((Start String (s (str.++ Start Start)))))\n"
    "(declare-var s String) (declare-var t String)\n"
    '(constraint (=> (= t (str.++ s "a")) (= (f s) (str.substr t 0 (str.len s)))))\n'
    "(check-synth)"
)

# fig2's operators at (BitVec 8), a width whose lanes a packed vector
# holds eight to a 64-bit word; its solutions were captured from the
# engines while every vector was still a tuple.
BV8 = (
    "(set-logic BV)\n"
    "(define-fun shr1 ((x (BitVec 8))) (BitVec 8) (bvlshr x #x01))\n"
    "(define-fun shl1 ((x (BitVec 8))) (BitVec 8) (bvshl x #x01))\n"
    "(define-fun if0 ((x (BitVec 8)) (y (BitVec 8)) (z (BitVec 8))) (BitVec 8) (ite (= x #x01) y z))\n"
    "(synth-fun f ((x (BitVec 8))) (BitVec 8)\n"
    "  ((Start (BitVec 8) (#x00 #x01 x (bvnot Start) (shl1 Start) (shr1 Start)\n"
    "                      (bvand Start Start) (bvor Start Start) (bvxor Start Start) (bvadd Start Start)\n"
    "                      (if0 Start Start Start)))))\n"
    "(constraint (= (f #x00) #xff))\n"
    "(constraint (= (f #x01) #x02))\n"
    "(constraint (= (f #x80) #x7f))\n"
    "(constraint (= (f #xff) #x01))\n"
    "(constraint (= (f #x37) #x49))\n"
    "(check-synth)"
)

INLINE = {"ite_max": ITE_MAX, "max2": MAX2, "if0": IF0, "bv_double": BV_DOUBLE, "str_prefix": STR_PREFIX, "bv8": BV8}

# the tree that auto (unification) stitches for BV8
BV8_STITCHED = (
    "(define-fun f ((x (BitVec 8))) (BitVec 8) (if0 (bvand #x01 x) (if0 x (shl1 #x01) (if0 (bvnot (shl1 x)) #x01 "
    "(bvnot (bvadd x (shr1 (bvnot #x00)))))) (bvnot x)))"
)

# (problem, engine) -> (emitted text, verdict kind, points used), or a
# Failure.reason string; "unif" calls `unify_solve` directly, which is
# what the engine `auto` runs
GOLDEN = {
    ("abs.sl", "cegis"): (
        "(define-fun abs ((x Int)) Int (ite (< 0 x) x (- 0 x)))",
        "unknown",
        3,
    ),
    ("qm_inner.sl", "cegis"): (
        "(define-fun qm-inner-loop ((x Int)) Int (qm (- x 1) 7))",
        "unknown",
        2,
    ),
    ("qm_inner.sl", "unif"): (
        "(define-fun qm-inner-loop ((x Int)) Int (qm (- x 1) 7))",
        "unknown",
        2,
    ),
    ("initials.sl", "unif"): (
        '(define-fun f ((name String)) String (str.++ (str.at name 0) (str.++ "." '
        '(str.++ (str.at name (+ 1 (str.indexof name " " 0))) "."))))',
        "valid",
        4,
    ),
    ("inv_loop_guarded.sl", "unif"): (
        "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool "
        "(and (= (+ i j) (+ i0 j0)) (not (< i 0))))",
        "unknown",
        1009,
    ),
    ("inv_loop.sl", "unif"): "ice-conflict",
    ("fig2_bv_template.sl", "auto"): (
        "(define-fun f ((x (BitVec 64))) (BitVec 64) #x0000000000000000)",
        "valid",
        0,
    ),
    ("ite_max", "unif"): (
        "(define-fun f ((x Int) (y Int)) Int (ite (<= y x) x y))",
        "valid",
        6,
    ),
    ("max2", "unif"): (
        "(define-fun max2 ((x Int) (y Int)) Int (ite (<= x y) y x))",
        "unknown",
        2,
    ),
    ("if0", "unif"): (
        "(define-fun f ((x (BitVec 64))) (BitVec 64) (if0 x #x0000000000000000 x))",
        "valid",
        4,
    ),
    ("bv8", "auto"): (BV8_STITCHED, "valid", 5),
    ("bv8", "cegis"): (
        "(define-fun f ((x (BitVec 8))) (BitVec 8) (bvxor (bvadd x (bvnot #x00)) (bvor (shl1 x) (shr1 (shr1 (shl1 x))))))",
        "valid",
        5,
    ),
}


def _problem(name):
    if name in INLINE:
        return parse(INLINE[name])
    return parse_file(os.path.join(BENCH, name))


@pytest.mark.parametrize("name,engine", list(GOLDEN), ids=[f"{n}-{e}" for n, e in GOLDEN])
def test_golden_solution(name, engine):
    problem = _problem(name)
    solver = {"cegis": cegis_solve, "unif": unify_solve}.get(engine) or _pick_solver(problem, engine)
    result = solver(problem, 30)
    expected = GOLDEN[(name, engine)]
    if isinstance(expected, str):
        assert isinstance(result, Failure)
        assert result.reason == expected
    else:
        assert not isinstance(result, Failure), result
        assert (result.emit(), result.verdict.kind, result.points_used) == expected


INV_ARGS = "((i Int) (j Int) (i0 Int) (j0 Int)) Bool"

# (problem, candidate define-fun) -> (kind, point, reason)
VERDICTS = {
    ("abs.sl", "(define-fun abs ((x Int)) Int x)"): ("counterexample", {"x": -64}, ""),
    ("abs.sl", "(define-fun abs ((x Int)) Int (ite (< 0 x) x (- 0 x)))"): (
        "unknown",
        None,
        "unverified-beyond-bound",
    ),
    ("qm_inner.sl", "(define-fun qm-inner-loop ((x Int)) Int (qm (- x 1) 7))"): (
        "unknown",
        None,
        "unverified-beyond-bound",
    ),
    ("qm_inner.sl", "(define-fun qm-inner-loop ((x Int)) Int x)"): ("counterexample", {"x": 0}, ""),
    # pre-f's (= i i0) and (= j j0) derive i0 and j0: the derived-variable loop
    ("inv_loop_guarded.sl", f"(define-fun inv-f {INV_ARGS} (= j j0))"): (
        "counterexample",
        {"i": -64, "j": -64, "i0": -64, "j0": -64, "i!": 0, "j!": 0, "i0!": 0, "j0!": 0},
        "",
    ),
    ("inv_loop_guarded.sl", f"(define-fun inv-f {INV_ARGS} (and (= (+ i j) (+ i0 j0)) (not (< i 0))))"): (
        "unknown",
        None,
        "unverified-beyond-bound",
    ),
    # post-f derives j from (+ j0 i0); i0 = -1208 is a free draw, off the grid
    ("inv_loop_guarded.sl", f"(define-fun inv-f {INV_ARGS} (>= i 0))"): (
        "counterexample",
        {"i": 0, "j": -64, "i0": -1208, "j0": -64, "i!": 0, "j!": 0, "i0!": 0, "j0!": 0},
        "",
    ),
    # holds initially and at exit, but steps from i = 2 > i0 to i = 1:
    # found in the transition group
    ("inv_loop_guarded.sl", f"(define-fun inv-f {INV_ARGS} (and (= (+ i j) (+ i0 j0)) (>= i 0) (or (<= i i0) (> i 1))))"): (
        "counterexample",
        {"i": 2, "j": -2, "i0": -2, "j0": 2, "i!": 1, "j!": -1, "i0!": -2, "j0!": 2},
        "",
    ),
    ("initials.sl", '(define-fun f ((name String)) String "N.F.")'): ("counterexample", {"name": ""}, ""),
    ("fig2_bv_template.sl", "(define-fun f ((x (BitVec 64))) (BitVec 64) #x0000000000000000)"): (
        "valid",
        None,
        "",
    ),
    ("bv_double", "(define-fun f ((x (BitVec 64))) (BitVec 64) x)"): ("counterexample", {"x": 1, "y": 2}, ""),
    ("bv_double", "(define-fun f ((x (BitVec 64))) (BitVec 64) (bvadd x x))"): (
        "unknown",
        None,
        "unverified-beyond-bound",
    ),
    ("str_prefix", "(define-fun f ((s String)) String (str.++ s s))"): ("counterexample", {"s": "a", "t": "aa"}, ""),
    ("str_prefix", "(define-fun f ((s String)) String s)"): ("unknown", None, "unverified-beyond-bound"),
}


@pytest.mark.parametrize("name,candidate", list(VERDICTS), ids=[n for n, _ in VERDICTS])
def test_golden_verdict(name, candidate):
    problem = _problem(name)
    v = verify(problem, parse_solution(candidate, problem))
    assert (v.kind, v.point, v.reason) == VERDICTS[(name, candidate)]
