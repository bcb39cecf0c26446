"""End-to-end CLI checks through main(argv)."""

import glob
import json
import os

import pytest

from sygus.cli import EXIT_FAILURE, EXIT_INPUT, EXIT_OK, main
from sygus.frontend import parse_file

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
