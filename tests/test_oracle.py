"""Conformance checking, semantic verification, SMT-LIB2 plumbing."""

import os
import stat

import pytest

from sygus.core import Apply, BOOL, Grammar, Hole, INT, Lit, STRING, Var
from sygus.engine import Budget, cegis_solve, enumerate_all, unify_solve
from sygus.frontend import parse, parse_file
from sygus import oracle
from sygus.oracle import (
    VerifyConfig,
    build_smt_script,
    check_conformance,
    external_check,
    parse_model,
    verify,
)

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


def test_solver_outputs_conform_to_their_grammars():
    for name, solver in (("abs.sl", cegis_solve), ("initials.sl", unify_solve)):
        p = parse_file(os.path.join(BENCH, name))
        sol = solver(p, Budget(wallclock=60))
        for t in p.targets:
            _, body = sol.as_map()[t.name]
            assert check_conformance(body, t.grammar).kind == "valid", name


# --- semantic verification --------------------------------------------------


def test_verify_pbe_valid_and_counterexample():
    p = parse_file(os.path.join(BENCH, "initials.sl"))
    sol = unify_solve(p, Budget(wallclock=60))
    assert verify(p, sol.as_map()).kind == "valid"
    wrong = {"f": (["name"], Lit("N.F.", STRING))}
    assert verify(p, wrong).kind == "counterexample"


def test_verify_finds_universal_counterexample():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    wrong = {"abs": (["x"], Var("x", INT))}
    v = verify(p, wrong)
    assert v.kind == "counterexample"
    assert v.point["x"] < 0


def test_verify_unverified_without_solver():
    p = parse_file(os.path.join(BENCH, "abs.sl"))
    sol = cegis_solve(p, Budget(wallclock=30))
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
    sol = cegis_solve(p, Budget(wallclock=30)).as_map()
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
    sol = cegis_solve(p, Budget(wallclock=30)).as_map()
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
