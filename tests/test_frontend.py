"""Parser, default grammars, invariant desugaring and emission."""

import glob
import os

import pytest

from sygus.core import Apply, BOOL, INT, Lit, SygusError, Var, expand_macros, term_size
from sygus.frontend import (
    DesugarError,
    default_grammar,
    emit_problem,
    emit_term,
    parse,
    parse_file,
    parse_solution,
)
from sygus.oracle import check_conformance
from sygus.sexpr import ParseError

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _bench(name):
    return parse_file(os.path.join(BENCH, name))


def test_parse_abs():
    p = _bench("abs.sl")
    assert p.logic == "LIA"
    assert [t.name for t in p.targets] == ["abs"]
    assert len(p.constraints) == 2
    assert p.universals == (("x", INT),)
    assert p.targets[0].is_default  # no explicit grammar in the file


def test_parse_initials():
    p = _bench("initials.sl")
    t = p.targets[0]
    assert t.name == "f"
    nts = [n for n, _ in t.grammar.nonterminals]
    assert nts == ["Start", "ntString", "ntInt", "ntBool"]
    assert len(p.constraints) == 4
    assert isinstance(p.constraints[0].args[1], Lit)
    assert p.constraints[0].args[1].value == "N.F."


def test_parse_qm_loop_two_targets():
    p = _bench("qm_loop.sl")
    assert [t.name for t in p.targets] == ["qm-inner-loop", "qm-outer-loop"]
    assert [m.name for m in p.macros] == ["qm"]


def test_default_grammar_admits_abs_solution():
    p = _bench("abs.sl")
    g = p.targets[0].grammar
    x = Var("x", INT)
    body = Apply(
        "ite",
        (Apply(">=", (x, Lit(0, INT)), BOOL), x, Apply("-", (Lit(0, INT), x), INT)),
        INT,
    )
    assert check_conformance(body, g).kind == "valid"


def test_invariant_desugaring_shape():
    p = _bench("inv_loop.sl")
    assert p.invariant_spec is not None
    assert len(p.constraints) == 3
    assert len(p.universals) == 8
    names = [n for n, _ in p.universals]
    for v in ("i", "j", "i0", "j0"):
        assert v in names and v + "!" in names
    # VC2 embeds the transition equations once macros are expanded
    vc2 = expand_macros(p.constraints[1], p.macro_map())
    text = emit_term(vc2)
    assert "(= i! (- i 1))" in text
    assert "(= j! (+ j 1))" in text


def test_inv_constraint_arity_mismatch_rejected():
    bad = """
(set-logic LIA)
(synth-inv inv-f ((i Int)))
(declare-primed-var i Int)
(define-fun pre-f ((i Int) (j Int)) Bool (= i j))
(define-fun trans-f ((i Int) (i! Int)) Bool (= i! i))
(define-fun post-f ((i Int)) Bool (>= i 0))
(inv-constraint inv-f pre-f trans-f post-f)
(check-synth)
"""
    with pytest.raises(DesugarError):
        parse(bad)


def test_round_trip_all_benchmarks():
    for path in sorted(glob.glob(os.path.join(BENCH, "*.sl"))):
        p = parse_file(path)
        assert parse(emit_problem(p)) == p, path


def test_emit_term_negative_numbers():
    t = Apply("+", (Var("x", INT), Lit(-3, INT)), INT)
    assert emit_term(t) == "(+ x -3)"


def test_emit_term_of_a_let_parses_back():
    p = _bench("abs.sl")
    sols = parse_solution("(define-fun abs ((x Int)) Int (let ((y (+ x 1)) (z x)) (ite (< z 0) (- 0 z) (- y 1))))", p)
    _, body = sols["abs"]
    text = f"(define-fun abs ((x Int)) Int {emit_term(body)})"
    assert "(let ((y (+ x 1)) (z x))" in text
    assert parse_solution(text, p)["abs"][1] == body


def test_parse_solution():
    p = _bench("qm_inner.sl")
    sols = parse_solution(
        "(define-fun qm-inner-loop ((x Int)) Int (qm (- x 1) 7))", p
    )
    params, body = sols["qm-inner-loop"]
    assert params == ["x"]
    assert term_size(body) == 5


@pytest.mark.parametrize(
    "text",
    [
        "(set-logic LIA",  # unbalanced
        "(constraint (= 1 1)) (check-synth)",  # missing set-logic
        "(set-logic LIA) (constraint (= 1 1) (= 2 2)) (check-synth)",  # 2-arg constraint
        "(set-logic LIA) (declare-var x Unknown) (check-synth)",
        "(set-logic LIA) (constraint (+ 1 2)) (check-synth)",  # non-Bool constraint
        "(set-logic LIA) (constraint (= x 1)) (check-synth)",  # unbound var
        "(set-logic LIA) (constraint (= 1 1))",  # no check-synth
        "(set-logic LIA) (declare-var x Int) (constraint (>= x x)) (check-synth)",  # nothing to synthesize
    ],
)
def test_malformed_inputs_raise_structured_errors(text):
    with pytest.raises((SygusError, ParseError)):
        parse(text)


def test_unsupported_default_grammar():
    from sygus.frontend import UnsupportedDefaultGrammar

    with pytest.raises(UnsupportedDefaultGrammar):
        parse('(set-logic BV) (synth-fun f ((x (BitVec 64))) (BitVec 64)) (check-synth)')


def test_duplicate_hex_digits_width():
    p = _bench("fig2_bv_template.sl")
    out = emit_problem(p)
    assert "#x0000000000000001" in out
