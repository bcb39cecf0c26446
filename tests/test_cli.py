"""End-to-end CLI checks through main(argv)."""

import glob
import json
import os
import re

import pytest

from sygus.cli import EXIT_FAILURE, EXIT_INPUT, EXIT_OK, EXIT_TIMEOUT, main
from sygus.frontend import parse_file
from sygus.harness import SuiteConfig, solve_benchmark

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _b(name):
    return os.path.join(BENCH, name)


def test_solve_prints_define_fun(capsys):
    assert main(["solve", _b("abs.sl"), "--timeout", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("(define-fun abs ((x Int)) Int")


def test_solve_missing_file_is_input_error(capsys):
    assert main(["solve", _b("no_such.sl")]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_solve_without_a_target_is_input_error(tmp_path, capsys):
    path = tmp_path / "no_target.sl"
    path.write_text("(set-logic LIA) (declare-var x Int) (constraint (>= x x)) (check-synth)")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_solve_unsolvable_is_failure(capsys):
    assert main(["solve", _b("inv_loop.sl"), "--timeout", "30"]) == EXIT_FAILURE
    assert "ice-conflict" in capsys.readouterr().err


def test_solve_says_why_it_stopped(capsys):
    # cegis enumerates inv_loop's invariant until the budget stops it
    assert main(["solve", _b("inv_loop.sl"), "--engine", "cegis", "--timeout", "1"]) == EXIT_TIMEOUT
    err = capsys.readouterr().err
    assert re.fullmatch(r"; no solution: budget-exhausted \(deadline reached.*\)\n", err), err


@pytest.mark.parametrize("name", sorted(
    os.path.basename(f) for f in glob.glob(_b("*.sl")) if os.path.basename(f) not in ("qm_loop.sl", "inv_loop.sl")
))
def test_solve_prints_what_the_harness_solves(name, capsys):
    # one mapping from flags to a solve: `sygus solve` at its default flags
    # and a batch run at SuiteConfig's defaults give the same solution
    assert main(["solve", _b(name)]) == EXIT_OK
    outcome, _, _, _, solution = solve_benchmark(_b(name), SuiteConfig())
    assert outcome in ("solved", "unknown-verified")
    assert capsys.readouterr().out == solution + "\n"


CONFLICTING = (
    "(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
    "(constraint (= (f 1) 2))\n(constraint (= (f 1) 3))\n(check-synth)\n"
)


@pytest.mark.parametrize("engine", ["cegis", "unif", "auto"])
def test_solve_conflicting_examples_is_failure(tmp_path, capsys, engine):
    path = tmp_path / "conflict.sl"
    path.write_text(CONFLICTING)
    assert main(["solve", str(path), "--engine", engine]) == EXIT_FAILURE
    assert "conflicting-examples" in capsys.readouterr().err


def test_verify_roundtrip(tmp_path, capsys):
    assert main(["solve", _b("initials.sl"), "--timeout", "60"]) == EXIT_OK
    sol = capsys.readouterr().out
    sol_path = tmp_path / "initials.sol"
    sol_path.write_text(sol)
    assert main(["verify", _b("initials.sl"), str(sol_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "valid"


def test_verify_wrong_solution_fails(tmp_path, capsys):
    sol_path = tmp_path / "abs.sol"
    sol_path.write_text("(define-fun abs ((x Int)) Int x)\n")
    assert main(["verify", _b("abs.sl"), str(sol_path)]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "counterexample" in out and "point" in out


def test_verify_nonconformant_body(tmp_path, capsys):
    # str.len is not in abs's default LIA grammar; build an Int via * instead,
    # using a literal the grammar does not contain
    sol_path = tmp_path / "abs.sol"
    sol_path.write_text("(define-fun abs ((x Int)) Int (* x 17))\n")
    assert main(["verify", _b("abs.sl"), str(sol_path)]) == EXIT_FAILURE
    assert "nonconformant" in capsys.readouterr().out


def test_verify_reads_a_solution_under_any_parameter_names(tmp_path, capsys):
    printed = []
    for param in ("x", "y"):
        sol_path = tmp_path / f"abs_{param}.sol"
        sol_path.write_text(f"(define-fun abs (({param} Int)) Int (ite (< {param} 0) (- 0 {param}) {param}))\n")
        assert main(["verify", _b("abs.sl"), str(sol_path)]) == EXIT_FAILURE
        printed.append(capsys.readouterr().out)
    assert printed == ["unknown: unverified-beyond-bound\n"] * 2


SHR1_PBE = """
(set-logic BV)
(define-fun shr1 ((x (BitVec 64))) (BitVec 64) (bvlshr x #x0000000000000001))
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (#x0000000000000001 x (shr1 Start) (bvadd Start Start)))))
(constraint (= (f #x0000000000000004) #x0000000000000008))
(check-synth)
"""


@pytest.mark.parametrize("problem, solution", [
    # `(shr1 x)` is wrong for f(4) = 8 unless the file may redefine shr1
    (lambda tmp: _problem(tmp, SHR1_PBE),
     "(define-fun shr1 ((x (BitVec 64))) (BitVec 64) (bvadd x x))\n"
     "(define-fun f ((x (BitVec 64))) (BitVec 64) (shr1 x))"),
    # `(>= i 0)` does not give the post-condition unless the file may weaken it
    (lambda tmp: _b("inv_loop_guarded.sl"),
     "(define-fun post-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool (= i i))\n"
     "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool (>= i 0))"),
], ids=["shr1", "post-f"])
def test_verify_ignores_a_macro_the_solution_redefines(problem, solution, tmp_path, capsys):
    assert main(["verify", problem(tmp_path), _solution(tmp_path, solution)]) == EXIT_FAILURE
    assert capsys.readouterr().out.startswith("counterexample\npoint: ")


def test_bench_score_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("initials.sl", "initials_repeat.sl"):
        (corpus / name).write_text(open(_b(name)).read())
    records = tmp_path / "records.jsonl"
    rc = main([
        "bench", str(corpus), "--timeout", "60",
        "--records", str(records), "--solutions", str(tmp_path / "sols"),
    ])
    assert rc == EXIT_OK
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 2
    assert all("solved" in line for line in table)

    assert main(["score", str(records)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["engines"]["auto"]["solved"] == 2


def test_score_missing_records_is_input_error(tmp_path, capsys):
    assert main(["score", str(tmp_path / "nope.jsonl")]) == EXIT_INPUT


def test_nuggets_emits_parsable_benchmarks(tmp_path, capsys):
    out_dir = str(tmp_path / "nuggets")
    rc = main([
        "nuggets", _b("fig2_bv_template.sl"), "--k", "2",
        "--count", "3", "--examples", "6", "--out", out_dir,
    ])
    assert rc == EXIT_OK
    files = sorted(glob.glob(os.path.join(out_dir, "*.sl")))
    assert len(files) == 3
    for f in files:
        p = parse_file(f)
        assert len(p.constraints) == 6
        assert p.targets[0].name == "f"


@pytest.mark.parametrize("flag, value", [("--k", "0"), ("--examples", "0"), ("--count", "-1")])
def test_nuggets_rejects_a_bad_count(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "nuggets"
    argv = {"--k": "2", "--examples": "6", "--count": "3"} | {flag: value}
    rc = main(["nuggets", _b("fig2_bv_template.sl"), *(x for kv in argv.items() for x in kv), "--out", str(out_dir)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {flag} must be at least {int(value) + 1}, got {value}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, says", [
    (lambda tmp: ["solve", _b("abs.sl"), "--timeout", "x"], "argument --timeout: invalid float value: 'x'"),
    (lambda tmp: ["nuggets", _b("fig2_bv_template.sl"), "--k", "three"], "argument --k: invalid int value: 'three'"),
    (lambda tmp: ["verify", _b("abs.sl"), str(tmp / "missing.sol")], "No such file"),
    (lambda tmp: ["verify", _b("abs.sl"), _solution(tmp, "(define-fun other ((x Int)) Int x)")],
     "solution does not bind abs"),
    (lambda tmp: ["bench", _b("abs.sl")], "is not a directory"),
    (lambda tmp: ["solve", _b("abs.sl"), "--timeout", "nan"], "argument --timeout: must be a finite number"),
    (lambda tmp: ["solve", _b("abs.sl"), "--timeout", "0"], "argument --timeout: must be a finite number"),
    (lambda tmp: ["solve", _b("abs.sl"), "--timeout", "-1"], "argument --timeout: must be a finite number"),
    (lambda tmp: ["bench", str(tmp), "--timeout", "inf"], "argument --timeout: must be a finite number"),
    (lambda tmp: ["verify", _b("abs.sl"), _solution(tmp, "(define-fun abs ((x Int) (y Int)) Int x)")],
     "solution 'abs' takes 2 arguments, the target 1"),
    (lambda tmp: ["verify", _b("abs.sl"), _solution(tmp, "(define-fun abs ((x Int)) Bool true)")],
     "solution 'abs' differs from the target's sorts (Int) Int"),
    (lambda tmp: ["verify", _b("abs.sl"), _solution(tmp, "(define-fun abs ((x Int)) Int (ite (< x 0) (- 0 x) x))\n"
                                                         "(define-fun abs ((x Int)) Int x)")],
     "solution 'abs' is defined twice"),
    (lambda tmp: ["bench", BENCH, "--records", _corrupt_records(tmp)], "unparsable record on line 1"),
    (lambda tmp: ["solve", _problem(tmp, "(set-logic LIA)\n(declare-var x Int)\n(constraint (= x ²))\n(check-synth)")],
     "unbound symbol '²' at 3:18"),
    (lambda tmp: ["bench", str(tmp), "--workers", "0"], "--workers must be at least 1, got 0"),
    (lambda tmp: ["bench", str(tmp), "--solutions", _solution(tmp, "")], "File exists"),
    (lambda tmp: ["bench", str(tmp), "--records", str(tmp / "missing" / "r.jsonl")], "No such file"),
    (lambda tmp: ["nuggets", _b("fig2_bv_template.sl"), "--k", "2", "--out", _solution(tmp, "")], "File exists"),
], ids=["bad-float", "bad-int", "verify-missing-file", "verify-unbound-target", "bench-not-a-directory",
        "solve-timeout-nan", "solve-timeout-0", "solve-timeout-negative", "bench-timeout-inf",
        "verify-wrong-arity", "verify-wrong-sort", "verify-target-defined-twice", "bench-corrupt-records",
        "solve-superscript-digit", "bench-workers-0", "bench-solutions-a-file", "bench-records-in-a-missing-directory",
        "nuggets-out-a-file"])
def test_input_errors_exit_3(argv, says, tmp_path, capsys):
    # a mistyped flag is an input error like any other, never exit 2 (timeout)
    try:
        rc = main(argv(tmp_path))
    except SystemExit as e:  # argparse's errors leave through sys.exit
        rc = e.code
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: " in err and says in err, err


def _solution(tmp, text):
    path = tmp / "solution.sol"
    path.write_text(text + "\n")
    return str(path)


def _problem(tmp, text):
    path = tmp / "problem.sl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _corrupt_records(tmp):
    path = tmp / "records.jsonl"
    path.write_text("not a record\n{}\n")
    return str(path)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "--help"])
    assert e.value.code == EXIT_OK and "--timeout" in capsys.readouterr().out
