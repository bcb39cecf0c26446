"""Parser, default grammars, invariant desugaring and emission."""

import glob
import os

import pytest

from sygus.core import Apply, ArityError, BOOL, INT, Lit, Sort, SortError, SygusError, Var, expand_macros, term_size
from sygus.frontend import (
    DesugarError,
    default_grammar,
    emit_problem,
    emit_term,
    parse,
    parse_file,
    parse_solution,
    UnsupportedDefaultGrammar,
    UnsupportedLogic,
)
from sygus.oracle import check_conformance
from sygus.sexpr import LexError, ParseError, parse_sexprs

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


def test_an_invariant_problem_keeps_its_plain_constraints_and_universals():
    text = ("(set-logic LIA)\n(synth-inv inv-f ((x Int)))\n(declare-primed-var x Int)\n(declare-var z Int)\n"
            "(define-fun pre-f ((x Int)) Bool (= x 0))\n(define-fun trans-f ((x Int) (x! Int)) Bool (= x! (+ x 1)))\n"
            "(define-fun post-f ((x Int)) Bool (>= x 0))\n(constraint (>= z z))\n"
            "(inv-constraint inv-f pre-f trans-f post-f)\n(check-synth)")
    p = parse(text)
    assert [n for n, _ in p.universals] == ["x", "x!", "z"] and len(p.constraints) == 4
    out = emit_problem(p)
    assert "(declare-var z Int)" in out and "(constraint (>= z z))" in out
    assert parse(out) == p
    assert emit_problem(parse(out)) == out


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


@pytest.mark.parametrize("width", [1, 6])
def test_binary_literals_round_trip_at_their_width(width):
    # a width that is not a multiple of 4 has only binary literals, and is
    # emitted as one, so it reads back at its width
    bv = f"(BitVec {width})"
    one, top = "#b" + "1".rjust(width, "0"), "#b1" + "0" * (width - 1)
    text = (f"(set-logic BV)\n(synth-fun f ((x {bv})) {bv} ((Start {bv} (x {one} (bvnot Start) (bvadd Start Start)))))\n"
            f"(constraint (= (f {one}) {top}))\n(check-synth)")
    p = parse(text)
    assert {lit.sort.width for _, ts in p.targets[0].grammar.productions for lit in ts if isinstance(lit, Lit)} == {width}
    out = emit_problem(p)
    assert one in out and top in out and "#x" not in out
    assert parse(out) == p
    assert emit_problem(parse(out)) == out


_INV = """(set-logic LIA)
(synth-inv inv ((x Int)))
(synth-inv other ((y Int)))
(declare-primed-var x Int)
(define-fun pre ((x Int)) Bool (= x 0))
(define-fun trans ((x Int) (x! Int)) Bool (= x! (+ x 1)))
(define-fun post ((x Int)) Bool (>= x 0))
(define-fun two ((x Int) (y Int)) Bool (= x y))
"""


# f takes an Int, y is a Bool: every application below is ill-sorted
_BOOL_Y = "(set-logic LIA) (synth-fun f ((x Int)) Int) (declare-var y Bool) "


def _abs_solution(text):
    return parse_solution(text, _bench("abs.sl"))


# One row per raise site of the reader: sexpr.tokenize and parse_sexprs,
# then frontend's parse (with the helpers it calls) and parse_solution.
_READER_ERRORS = [
    # tokenize
    (parse_sexprs, '(f "abc)', LexError, "unterminated string literal at 1:4"),
    (parse_sexprs, '(f\n  "a""b" "c"")', LexError, "unterminated string literal at 2:10"),
    (parse_sexprs, "(f #x)", LexError, "empty hex literal at 1:4"),
    (parse_sexprs, "(f #xg1)", LexError, "empty hex literal at 1:4"),
    (parse_sexprs, "(f #b)", LexError, "empty binary literal at 1:4"),
    (parse_sexprs, "(f #b2)", LexError, "empty binary literal at 1:4"),
    (parse_sexprs, "(f #o17)", LexError, "unsupported '#' literal at 1:4"),
    (parse_sexprs, "(f ; c\n\t| x)", LexError, "unexpected character '|' at 2:2"),
    (parse_sexprs, "(f {x})", LexError, "unexpected character '{' at 1:4"),
    # a numeral or hex literal that runs into a symbol character is one atom
    (parse_sexprs, "7y", LexError, "malformed literal '7y' at 1:1"),
    (parse_sexprs, "(f 1abc x-1 #x1g)", LexError, "malformed literal '1abc' at 1:4"),
    (parse_sexprs, "(f x-1 #x1g)", LexError, "malformed literal '#x1g' at 1:8"),
    (parse_sexprs, "(f 1.5)", LexError, "malformed literal '1.5' at 1:4"),
    (parse_sexprs, "(f -1x)", LexError, "malformed literal '-1x' at 1:4"),
    (parse_sexprs, "(f #x0_)", LexError, "malformed literal '#x0_' at 1:4"),
    (parse_sexprs, "(f #b012)", LexError, "malformed literal '#b012' at 1:4"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int) (y Int)) Int ((Start Int (x 0 7y)))) (check-synth)", LexError,
     "malformed literal '7y' at 1:69"),
    # parse_sexprs
    (parse_sexprs, "a) b", ParseError, "unbalanced ')' at 1:2"),
    (parse_sexprs, "(a\n (b c)", ParseError, "unbalanced '(' at 1:1"),
    # a Unicode digit that is no numeral reads as a symbol
    (parse, "(set-logic LIA)\n(declare-var x Int)\n(constraint (= x ²))\n(check-synth)",
     ParseError, "unbound symbol '²' at 3:18"),
    # _parse_sort
    (parse, "(set-logic LIA) (declare-var x Real) (check-synth)", ParseError, "unknown sort 'Real'"),
    (parse, "(set-logic BV) (declare-var x (BitVec y)) (check-synth)", ParseError, "malformed sort (BitVec y)"),
    (parse, "(set-logic BV) (declare-var x (_ BitVec)) (check-synth)", ParseError, "malformed sort (_ BitVec)"),
    # _parse_params
    (parse, "(set-logic LIA) (synth-fun f x Int) (check-synth)", ParseError, "expected a parameter list"),
    (parse, "(set-logic LIA) (synth-fun f ((x)) Int) (check-synth)", ParseError, "malformed parameter (x)"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int) (x Int)) Int) (check-synth)", ParseError,
     "duplicate parameter 'x' at 1:40"),
    # _parse_term
    (parse, "(set-logic LIA)\n(constraint (= y 1)) (check-synth)", ParseError, "unbound symbol 'y' at 2:16"),
    # a string that spans lines: the next token's line starts after its last newline
    (parse, '(set-logic SLIA)\n(synth-fun f ((s String)) String ((Start String (s))))\n\n(constraint (= (f "a\nb") zz))'
     "\n(check-synth)", ParseError, "unbound symbol 'zz' at 5:5"),
    (parse, "(set-logic LIA) (constraint ()) (check-synth)", ParseError, "malformed term ()"),
    (parse, "(set-logic LIA) (constraint (1 2)) (check-synth)", ParseError, "malformed term (1 2)"),
    (parse, "(set-logic LIA) (constraint (let x true)) (check-synth)", ParseError, "malformed let (let x true)"),
    (parse, "(set-logic LIA) (constraint (let ((x)) true)) (check-synth)", ParseError, "malformed let binding (x)"),
    (parse, "(set-logic LIA) (constraint (foo 1)) (check-synth)", ParseError, "unknown operator 'foo' at 1:29"),
    # an application's sorts, written as SyGuS writes them, and its position
    (parse, _BOOL_Y + "(constraint (= (f y) 1)) (check-synth)", SortError, "f expects (Int), got (Bool) at 1:81"),
    (parse, _BOOL_Y + "(constraint (= (f 1 2) 1)) (check-synth)", ArityError, "f expects 1 arguments, got 2 at 1:81"),
    (parse, _BOOL_Y + "(constraint (= (+ y 1) 1)) (check-synth)", SortError,
     "+ needs Int arguments, got (Bool Int) at 1:81"),
    (parse, _BOOL_Y + "(constraint (= (ite y 1 y) 1)) (check-synth)", SortError,
     "ill-sorted ite over (Bool Int Bool) at 1:81"),
    (parse, _BOOL_Y + "(constraint (= y 1)) (check-synth)", SortError,
     "= needs >= 2 arguments of one sort, got (Bool Int) at 1:78"),
    (parse, "(set-logic BV) (declare-var x (BitVec 8)) (declare-var y (BitVec 4)) (constraint (= (bvadd x y) x)) "
     "(check-synth)", SortError, "bvadd expects two equal-width bitvectors, got ((BitVec 8) (BitVec 4)) at 1:85"),
    (parse, "(set-logic BV) (declare-var x (BitVec 8)) (declare-var y (BitVec 4)) (constraint (bvult x y)) "
     "(check-synth)", SortError, "bvult expects two equal-width bitvectors, got ((BitVec 8) (BitVec 4)) at 1:82"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int ((Start Int (x (ite Start Start Start))))) (check-synth)",
     SortError, "ill-sorted ite over (Int Int Int) at 1:59"),
    # _parse_grammar: a production is named as it is written
    (parse, "(set-logic BV) (synth-fun f ((x (BitVec 8))) (BitVec 8) ((Start (BitVec 8) (x #b101)))) (check-synth)",
     SortError, "production #b101 of 'Start' at 1:79 has sort (BitVec 3), expected (BitVec 8)"),
    # default_grammar
    (parse, "(set-logic BV) (synth-fun f ((x (BitVec 4))) (BitVec 4)) (check-synth)", UnsupportedDefaultGrammar,
     "no default grammar for logic 'BV'"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) String) (check-synth)", UnsupportedDefaultGrammar,
     "no default grammar at sort String"),
    # desugar_invariant
    (parse, _INV + "(inv-constraint inv pre0 trans post) (check-synth)", DesugarError, "pre macro 'pre0' is not defined"),
    (parse, _INV + "(inv-constraint inv pre trans0 post) (check-synth)", DesugarError,
     "trans macro 'trans0' is not defined"),
    (parse, _INV + "(inv-constraint inv pre trans post0) (check-synth)", DesugarError,
     "post macro 'post0' is not defined"),
    (parse, _INV + "(inv-constraint inv two trans post) (check-synth)", DesugarError, "'two' arity != |state vars|"),
    (parse, _INV + "(inv-constraint inv pre trans two) (check-synth)", DesugarError, "'two' arity != |state vars|"),
    (parse, _INV + "(inv-constraint inv pre post post) (check-synth)", DesugarError, "'post' arity != 2*|state vars|"),
    (parse, _INV + "(inv-constraint other pre trans post) (check-synth)", DesugarError,
     "state variable 'y' lacks a declared primed twin"),
    (parse, _INV + "(define-fun ipre ((x Int)) Int x) (inv-constraint inv ipre trans post) (check-synth)",
     DesugarError, "'ipre' differs from the invariant's sorts (Int) Bool"),
    (parse, _INV + "(define-fun bpre ((x Bool)) Bool x) (inv-constraint inv bpre trans post) (check-synth)",
     DesugarError, "'bpre' differs from the invariant's sorts (Int) Bool"),
    (parse, _INV + "(define-fun btrans ((x Int) (x! Bool)) Bool x!) (inv-constraint inv pre btrans post) (check-synth)",
     DesugarError, "'btrans' differs from the invariant's sorts (Int Int) Bool"),
    (parse, _INV + "(define-fun ipost ((x Int)) Int x) (inv-constraint inv pre trans ipost) (check-synth)",
     DesugarError, "'ipost' differs from the invariant's sorts (Int) Bool"),
    # _parse_grammar
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int ()) (check-synth)", ParseError, "malformed grammar ()"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int ((Start Int))) (check-synth)", ParseError,
     "malformed grammar group (Start Int)"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int ((S Int (x)) (S Int (0)))) (check-synth)", ParseError,
     "duplicate nonterminal in grammar"),
    # _define_fun
    (parse, "(set-logic LIA) (define-fun f ((x Int)) Int) (check-synth)", ParseError,
     "malformed define-fun (define-fun f ((x Int)) Int)"),
    (parse, "(set-logic LIA) (define-fun f ((x Int)) Int true) (check-synth)", SortError,
     "define-fun 'f' body has sort Bool, declared Int"),
    # parse
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int) (check-synth) (check-synth)", ParseError,
     "directives after (check-synth)"),
    (parse, "(set-logic LIA) x (check-synth)", ParseError, "malformed directive x"),
    (parse, "(set-logic LIA) (set-logic LIA) (check-synth)", ParseError, "duplicate set-logic"),
    (parse, "(set-logic) (check-synth)", ParseError, "malformed set-logic"),
    (parse, "(set-logic NIA) (check-synth)", UnsupportedLogic, "unsupported logic 'NIA'"),
    (parse, "(constraint (= 1 1)) (check-synth)", ParseError, "(constraint ...) before set-logic"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int))) (check-synth)", ParseError,
     "malformed synth-fun (synth-fun f ((x Int)))"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int ((B Bool (true)))) (check-synth)", SortError,
     "grammar start sort differs from return sort of 'f'"),
    (parse, "(set-logic LIA) (synth-inv inv) (check-synth)", ParseError, "malformed synth-inv (synth-inv inv)"),
    (parse, "(set-logic LIA) (declare-var x) (check-synth)", ParseError, "malformed declare-var (declare-var x)"),
    (parse, "(set-logic LIA) (declare-primed-var 1 Int) (check-synth)", ParseError,
     "malformed declare-primed-var (declare-primed-var 1 Int)"),
    # a name is declared once, by any directive
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int) (declare-var x Int) (declare-var x Bool) (check-synth)",
     ParseError, "'x' is declared twice at 1:78"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int) (synth-fun f ((x Int)) Int) (check-synth)", ParseError,
     "'f' is declared twice at 1:56"),
    (parse, "(set-logic LIA) (define-fun g () Int 0) (define-fun g () Int 1) (synth-fun f ((x Int)) Int) (check-synth)",
     ParseError, "'g' is declared twice at 1:53"),
    (parse, "(set-logic LIA) (define-fun f ((x Int)) Int x) (synth-fun f ((x Int)) Int) (check-synth)", ParseError,
     "'f' is declared twice at 1:59"),
    (parse, "(set-logic LIA) (synth-inv inv ((x Int))) (synth-inv inv ((x Int))) (check-synth)", ParseError,
     "'inv' is declared twice at 1:54"),
    (parse, "(set-logic LIA) (synth-inv inv ((x Int))) (declare-primed-var x Int) (declare-var x! Int) (check-synth)",
     ParseError, "'x!' is declared twice at 1:83"),
    (parse, "(set-logic LIA) (constraint (= 1 1) (= 2 2)) (check-synth)", ParseError,
     "constraint takes exactly one term: (constraint (= 1 1) (= 2 2))"),
    (parse, "(set-logic LIA) (constraint (+ 1 2)) (check-synth)", SortError, "constraint has sort Int, expected Bool"),
    (parse, _INV + "(inv-constraint inv pre trans) (check-synth)", ParseError,
     "malformed inv-constraint (inv-constraint inv pre trans)"),
    (parse, _INV + "(inv-constraint inv pre trans post) (inv-constraint inv pre trans post) (check-synth)",
     ParseError, "duplicate inv-constraint"),
    (parse, "(set-logic LIA) (check-synth now)", ParseError, "malformed check-synth"),
    (parse, "(set-logic LIA) (get-model) (check-synth)", ParseError, "unknown directive 'get-model'"),
    (parse, "(set-logic LIA) (synth-fun f ((x Int)) Int)", ParseError, "input does not end with (check-synth)"),
    (parse, "(set-logic LIA) (declare-var x Int) (check-synth)", ParseError, "no synth-fun or synth-inv to synthesize"),
    (parse, _INV + "(inv-constraint nope pre trans post) (check-synth)", DesugarError,
     "inv-constraint names unknown invariant 'nope'"),
    # parse_solution
    (_abs_solution, "(abs x)", ParseError, "expected define-fun, got (abs x)"),
    (_abs_solution, "(define-fun abs ((x Int)) Int x) (define-fun abs ((x Int)) Int 0)", ParseError,
     "solution 'abs' is defined twice"),
    (_abs_solution, "(define-fun abs () Int 0)", ArityError, "solution 'abs' takes 0 arguments, the target 1"),
    (_abs_solution, "(define-fun abs ((x Int) (x Int)) Int x)", ParseError, "duplicate parameter 'x' at 1:27"),
    (_abs_solution, "(define-fun abs ((x Bool)) Int 0)", SortError,
     "solution 'abs' differs from the target's sorts (Int) Int"),
]


@pytest.mark.parametrize("read, text, error, message", _READER_ERRORS, ids=[row[-1] for row in _READER_ERRORS])
def test_reader_errors_name_the_fault(read, text, error, message):
    with pytest.raises(SygusError) as ei:
        read(text)
    assert type(ei.value) is error and str(ei.value) == message


def test_indexed_bitvec_sort_parses():
    p = parse(
        "(set-logic BV)\n"
        "(synth-fun f ((x (_ BitVec 64))) (_ BitVec 64) ((Start (_ BitVec 64) (x #x0000000000000001 (bvadd Start Start)))))\n"
        "(declare-var x (_ BitVec 64))\n"
        "(constraint (= (f x) (bvadd x #x0000000000000001)))\n"
        "(check-synth)"
    )
    (t,) = p.targets
    assert t.params == (("x", Sort("BitVec", 64)),) and t.ret == Sort("BitVec", 64)
    assert p.universals == (("x", Sort("BitVec", 64)),)
