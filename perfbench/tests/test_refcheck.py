"""The reference checker against hand-computed values, and against
`sygus.semantics.Evaluator` on random terms."""

import random

import pytest

import gen
import refcheck
from refcheck import MASK64, check, define_fun, evaluate, read

FIG2, PRODS = gen._fig2()


def ev(text, env=None, funs=None):
    (term,) = read(text)
    return evaluate(term, env or {}, funs or {})


@pytest.mark.parametrize(
    "text, value",
    [
        ("(bvnot #x0000000000000000)", MASK64),
        ("(bvadd #xffffffffffffffff #x0000000000000002)", 1),
        ("(bvshl #x8000000000000001 #x0000000000000001)", 2),
        ("(bvlshr #x0000000000000100 #x0000000000000040)", 0),
        ("(bvxor #x00000000000000ff #x000000000000000f)", 0xF0),
        ("(- 3)", -3),
        ("(- 3 5)", -2),
        ("(+ 1 2 3)", 6),
        ("(ite (<= 2 2) 7 9)", 7),
        ("(=> false (< 1 0))", True),
        ('(str.++ "ab" "c")', "abc"),
        ('(str.at "abc" 3)', ""),
        ('(str.substr "hello" 1 3)', "ell"),
        ('(str.substr "hello" 3 9)', "lo"),
        ('(str.substr "hello" 1 0)', ""),
        ('(str.indexof "abcb" "b" 2)', 3),
        ('(str.indexof "ab" "" 2)', 2),
        ('(str.indexof "ab" "" 3)', -1),
        ('(str.replace "aaa" "a" "b")', "baa"),
        ('(str.replace "abc" "" "x")', "xabc"),
        ('(str.to.int "")', -1),
        ('(str.to.int "042")', 42),
        ("(int.to.str (- 3))", ""),
        ('(str.prefixof "ab" "abc")', True),
        ('(str.contains "abc" "bd")', False),
        ('"say ""hi"""', 'say "hi"'),
    ],
)
def test_hand_computed(text, value):
    assert ev(text) == value


def test_fig2_macros():
    assert ev("(shr16 #x0000000000010000)", funs=FIG2) == 1
    assert ev("(shl1 #x8000000000000001)", funs=FIG2) == 2
    assert ev("(shr4 (shr1 x))", {"x": 0xFF}, FIG2) == 0x7
    assert ev("(if0 #x0000000000000001 x #x0000000000000000)", {"x": 5}, FIG2) == 5
    assert ev("(if0 #x0000000000000002 x #x0000000000000000)", {"x": 5}, FIG2) == 0


def test_initials_reference():
    funs = {"f": (["name"], read(gen.INITIALS_REF)[0])}
    assert ev('(f "Nancy FreeHafer")', funs=funs) == "N.F."
    assert ev('(f "Jan Kotas")', funs=funs) == "J.K."


def test_size_counts_nodes():
    assert refcheck.size(read("(ite (< x 0) (- 0 x) x)")[0]) == 8
    assert refcheck.size(read("x")[0]) == 1


def test_unknown_operator_and_unbound_symbol():
    with pytest.raises(refcheck.RefError):
        ev("(bvudiv x x)", {"x": 1})
    with pytest.raises(refcheck.RefError):
        ev("(+ x 1)")


ABS = gen._corpus("abs.sl")
GUARDED = gen._corpus("inv_loop_guarded.sl")


@pytest.mark.parametrize(
    "spec, body, ok",
    [
        (ABS, gen.ABS_REF, True),
        (ABS, "(ite (< x 1) (- 0 x) x)", True),
        (ABS, "(ite (< x 5) (- 0 x) x)", False),
        (ABS, "x", False),
        (GUARDED, gen.INV_GUARDED_REF, True),
        (GUARDED, "(and (= (+ i j) (+ i0 j0)) (not (< i 0)))", True),
        (GUARDED, "(>= i 0)", False),  # not strong enough for post
        (GUARDED, "(= (+ i j) (+ i0 j0))", False),  # post fails below 0
        (GUARDED, "(and (= (+ i j) (+ i0 j0)) (>= i 1))", False),  # pre escapes
        (gen._corpus("initials.sl"), gen.INITIALS_REF, True),
        (gen._corpus("initials.sl"), '(str.++ (str.at name 0) ".")', False),
    ],
)
def test_check_verdicts(spec, body, ok):
    assert (check(spec, define_fun(spec, body)) is None) == ok


def test_check_rejects_wrong_signature():
    assert check(ABS, "(define-fun abs ((x Int) (y Int)) Int x)") is not None
    assert check(ABS, "(define-fun other ((x Int)) Int x)") is not None


# -- cross-check against sygus.semantics on random terms --------------------

def _random_term(rng, prods, nt_leaves, size):
    """A random term from `prods`, where a symbol in `nt_leaves` is a hole
    for the nonterminal it names, of at most about `size` nodes."""
    def go(nt, budget):
        leaves = [p for p in prods[nt] if not _holes(p, prods)]
        prod = rng.choice(prods[nt] if budget > 1 or not leaves else leaves)
        return fill(prod, budget - 1)

    def fill(t, budget):
        if isinstance(t, str) and t in prods:
            return go(t, max(1, budget))
        if isinstance(t, tuple):
            k = max(1, len(t) - 1)
            return (t[0],) + tuple(fill(a, budget // k) for a in t[1:])
        return t

    return go(nt_leaves, size)


def _holes(t, prods):
    if isinstance(t, str):
        return t in prods
    return isinstance(t, tuple) and any(_holes(a, prods) for a in t[1:])


def _sygus_eval(logic, macros, params, ret, term, env):
    from sygus.frontend import parse
    from sygus.semantics import Evaluator

    sig = " ".join(f"({n} {s})" for n, s in params)
    text = (
        f"(set-logic {logic})\n{macros}\n"
        f"(define-fun t ({sig}) {ret} {refcheck.show(term)})\n"
        f"(synth-fun f ({sig}) {ret} ((Start {ret} ({params[0][0]}))))\n"
        "(check-synth)\n"
    )
    problem = parse(text)
    macro_map = problem.macro_map()
    _, body = macro_map["t"]
    return Evaluator(macro_map).eval(body, env)


def test_bitvector_terms_agree_with_sygus():
    rng = random.Random(1)
    macros = "\n".join(
        f"(define-fun {n} ({' '.join(f'({p} (BitVec 64))' for p in ps)}) (BitVec 64) {refcheck.show(b)})"
        for n, (ps, b) in FIG2.items()
    )
    prods = {"Start": PRODS + [("bvshl", "Start", "Start"), ("bvlshr", "Start", "Start")]}
    inputs = [0, 1, MASK64, 1 << 32, 63, 64] + [rng.getrandbits(64) for _ in range(4)]
    for _ in range(150):
        term = _random_term(rng, prods, "Start", rng.randint(1, 9))
        for x in inputs:
            mine = evaluate(term, {"x": x}, FIG2)
            theirs = _sygus_eval("BV", macros, [("x", "(BitVec 64)")], "(BitVec 64)", term, {"x": x})
            assert mine == theirs, (refcheck.show(term), x)


def test_clia_terms_agree_with_sygus():
    rng = random.Random(2)
    prods = {
        "I": ["x", "y", 0, 1, ("+", "I", "I"), ("-", "I", "I"), ("-", "I"), ("ite", "B", "I", "I")],
        "B": [("<", "I", "I"), ("<=", "I", "I"), (">", "I", "I"), (">=", "I", "I"), ("=", "I", "I"),
              ("and", "B", "B"), ("or", "B", "B"), ("not", "B"), ("=>", "B", "B")],
    }
    for _ in range(200):
        term = _random_term(rng, prods, "I", rng.randint(1, 12))
        for x, y in [(0, 0), (-3, 5), (7, -7), (rng.randint(-99, 99), rng.randint(-99, 99))]:
            mine = evaluate(term, {"x": x, "y": y}, {})
            theirs = _sygus_eval("LIA", "", [("x", "Int"), ("y", "Int")], "Int", term, {"x": x, "y": y})
            assert mine == theirs, (refcheck.show(term), x, y)


def test_string_terms_agree_with_sygus():
    rng = random.Random(3)
    S = refcheck.Str
    prods = {
        "S": ["name", S(" "), S("."), ("str.++", "S", "S"), ("str.replace", "S", "S", "S"),
              ("str.at", "S", "I"), ("int.to.str", "I"), ("str.substr", "S", "I", "I")],
        "I": [0, 1, 2, ("+", "I", "I"), ("-", "I", "I"), ("str.len", "S"), ("str.to.int", "S"),
              ("str.indexof", "S", "S", "I")],
    }
    names = ["Nancy FreeHafer", "", "a.b c", "12", " x"]
    for _ in range(200):
        term = _random_term(rng, prods, "S", rng.randint(1, 10))
        for name in names:
            mine = evaluate(term, {"name": name}, {})
            theirs = _sygus_eval("SLIA", "", [("name", "String")], "String", term, {"name": name})
            assert mine == theirs, (refcheck.show(term), name)
