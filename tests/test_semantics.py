"""Theory evaluator tests against independent reference implementations."""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from sygus.core import (
    Apply, ArityError, BOOL, BUILTINS, BV64, Hole, INT, Let, Lit, SignatureTable, Sort, STRING, SygusError, Var,
)
from sygus.semantics import (
    Evaluator,
    SortMismatch,
    SourceEmitter,
    UnboundVariable,
    builtin_impl,
    default_value,
)

from reference import TreeEvaluator

ev = Evaluator()


class Emitted:
    """`SourceEmitter` behind the evaluators' `eval(t, env)`: one generated
    function per call, taking the environment's values positionally."""

    def __init__(self, interpretations=None):
        self.interpretations = interpretations

    def source(self, t, names):
        em = SourceEmitter(self.interpretations)
        local = {n: em.fresh() for n in names}
        return em, f"def run({', '.join(local.values())}): return {em.expr(t, local)}"

    def eval(self, t, env):
        em, source = self.source(t, env)
        return em.build(source, "run")(*env.values())


def _i(v):
    return Lit(v, INT)


def _s(v):
    return Lit(v, STRING)


def test_arith_and_ite():
    t = Apply("ite", (Apply("<", (_i(-1), _i(0)), BOOL), _i(7), _i(9)), INT)
    assert ev.eval(t, {}) == 7
    assert ev.eval(Apply("-", (_i(3),), INT), {}) == -3
    assert ev.eval(Apply("*", (_i(-7), _i(3)), INT), {}) == -21


def test_qm_via_macro():
    qm_body = Apply(
        "ite",
        (Apply("<", (Var("a", INT), _i(0)), BOOL), Var("b", INT), Var("a", INT)),
        INT,
    )
    e = Evaluator({"qm": (["a", "b"], qm_body)})
    assert e.eval(Apply("qm", (_i(-1), _i(7)), INT), {}) == 7
    assert e.eval(Apply("qm", (_i(4), _i(7)), INT), {}) == 4


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariable):
        ev.eval(Var("nope", INT), {})


def test_unbound_variable_raises_before_evaluation():
    # as in the tree walk, which evaluates every argument of an `ite`:
    # a variable the environment lacks raises even on a branch not taken
    t = Apply("ite", (Lit(True, BOOL), Var("x", INT), Var("nope", INT)), INT)
    for evaluator in (Evaluator(), TreeEvaluator()):
        with pytest.raises(UnboundVariable, match="'nope'"):
            evaluator.eval(t, {"x": 1})


# --- string semantics (totalized per SMT-LIB) ------------------------------

NAME = "Nancy FreeHafer"


def test_str_at_and_substr():
    assert ev.eval(Apply("str.at", (_s(NAME), _i(0)), STRING), {}) == "N"
    assert ev.eval(Apply("str.at", (_s(NAME), _i(-1)), STRING), {}) == ""
    assert ev.eval(Apply("str.at", (_s(NAME), _i(99)), STRING), {}) == ""
    assert ev.eval(Apply("str.substr", (_s(NAME), _i(0), _i(1)), STRING), {}) == "N"
    assert ev.eval(Apply("str.substr", (_s(NAME), _i(6), _i(4)), STRING), {}) == "Free"
    assert ev.eval(Apply("str.substr", (_s(NAME), _i(-2), _i(4)), STRING), {}) == ""
    assert ev.eval(Apply("str.substr", (_s("ab"), _i(1), _i(9)), STRING), {}) == "b"


def _indexof_ref(s, t, i):
    # character-scan reference
    if i < 0 or i > len(s):
        return -1
    if t == "":
        return i
    for k in range(i, len(s) - len(t) + 1):
        if s[k : k + len(t)] == t:
            return k
    return -1


@given(
    st.text(st.sampled_from("ab c."), max_size=8),
    st.text(st.sampled_from("ab c."), max_size=3),
    st.integers(-2, 10),
)
def test_str_indexof_matches_reference(s, t, i):
    got = ev.eval(Apply("str.indexof", (_s(s), _s(t), _i(i)), INT), {})
    assert got == _indexof_ref(s, t, i)


def test_str_replace_first_occurrence_only():
    t = Apply("str.replace", (_s("abab"), _s("ab"), _s("x")), STRING)
    assert ev.eval(t, {}) == "xab"
    # empty needle prepends the replacement
    t = Apply("str.replace", (_s("abc"), _s(""), _s("Z")), STRING)
    assert ev.eval(t, {}) == "Zabc"


def test_str_conversions():
    assert ev.eval(Apply("str.to.int", (_s("42"),), INT), {}) == 42
    assert ev.eval(Apply("str.to.int", (_s("-42"),), INT), {}) == -1
    assert ev.eval(Apply("str.to.int", (_s("4a"),), INT), {}) == -1
    assert ev.eval(Apply("int.to.str", (_i(42),), STRING), {}) == "42"
    assert ev.eval(Apply("int.to.str", (_i(-1),), STRING), {}) == ""


def test_str_predicates():
    assert ev.eval(Apply("str.prefixof", (_s("Na"), _s(NAME)), BOOL), {}) is True
    assert ev.eval(Apply("str.suffixof", (_s("fer"), _s(NAME)), BOOL), {}) is True
    assert ev.eval(Apply("str.contains", (_s(NAME), _s(" ")), BOOL), {}) is True
    assert ev.eval(Apply("str.contains", (_s(" "), _s(NAME)), BOOL), {}) is False


def test_len_concat():
    t = Apply("str.len", (Apply("str.++", (_s("ab"), _s("cde")), STRING),), INT)
    assert ev.eval(t, {}) == 5


# --- bitvector semantics ----------------------------------------------------

MASK = (1 << 64) - 1


def _bv(v):
    return Lit(v & MASK, BV64)


@settings(max_examples=300)
@given(st.integers(0, MASK), st.integers(0, MASK))
def test_bv_ops_match_mod_arithmetic(a, b):
    assert ev.eval(Apply("bvadd", (_bv(a), _bv(b)), BV64), {}) == (a + b) & MASK
    assert ev.eval(Apply("bvand", (_bv(a), _bv(b)), BV64), {}) == a & b
    assert ev.eval(Apply("bvor", (_bv(a), _bv(b)), BV64), {}) == a | b
    assert ev.eval(Apply("bvxor", (_bv(a), _bv(b)), BV64), {}) == a ^ b
    assert ev.eval(Apply("bvnot", (_bv(a),), BV64), {}) == a ^ MASK
    shift = b % 64
    assert ev.eval(Apply("bvshl", (_bv(a), _bv(shift)), BV64), {}) == (a << shift) & MASK
    assert ev.eval(Apply("bvlshr", (_bv(a), _bv(shift)), BV64), {}) == a >> shift


def test_bvshl_oversized_shift_is_zero():
    assert ev.eval(Apply("bvshl", (_bv(1), _bv(64)), BV64), {}) == 0
    assert ev.eval(Apply("bvlshr", (_bv(MASK), _bv(200)), BV64), {}) == 0


@given(st.integers(0, MASK // 2))
def test_shl1_shr1_roundtrip_on_small_values(a):
    shl = builtin_impl("bvshl", BV64)
    shr = builtin_impl("bvlshr", BV64)
    assert shr(shl(a, 1), 1) == a


def _bv_operator_cases(width):
    """(term, op, arguments, written as an operator) for each BitVec
    builtin at `width` over the variables x = "a" and y = "b": shifts by a
    literal are operators, and shifts by a variable and `bvashr` stay
    callables."""
    sort = Sort("BitVec", width)
    x, y = Var("x", sort), Var("y", sort)
    for op in ("bvnot", "bvneg"):
        yield Apply(op, (x,), sort), op, ("a",), True
    for op in ("bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvmul", "="):
        yield Apply(op, (x, y), BOOL if op == "=" else sort), op, ("a", "b"), True
    for op in ("bvshl", "bvlshr"):
        for k in (0, width - 1, width, width + 1):
            yield Apply(op, (x, Lit(k, sort)), sort), op, ("a", k), True
        yield Apply(op, (x, y), sort), op, ("a", "b"), False
    yield Apply("bvashr", (x, Lit(width - 1, sort)), sort), "bvashr", ("a", width - 1), False


@pytest.mark.parametrize("width", [1, 8, 32, 64])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emitted_bitvec_operators_match_builtin_impl(width, data):
    mask = (1 << width) - 1
    env = {"a": data.draw(st.integers(0, mask)), "b": data.draw(st.integers(0, mask))}
    for term, op, args, operator in _bv_operator_cases(width):
        em = SourceEmitter()
        source = em.expr(term, {"x": "a", "y": "b"})
        assert source.startswith("_k") != operator, (term, source)
        want = builtin_impl(op, term.sort)(*[env[v] if isinstance(v, str) else v for v in args])
        got = em.build(f"def run(a, b): return {source}", "run")(env["a"], env["b"])
        assert (type(got), got) == (type(want), want), (term, source, env)


# --- the builtin table: every row's value, source and algebra ---------------

_POOL = (INT, BOOL, STRING, Sort("BitVec", 1), Sort("BitVec", 8))


def _applications(op):
    """(argument sorts, result sort) of each application of `op` to one to
    three arguments of `_POOL`'s sorts that its logic's signatures accept."""
    logic = BUILTINS[op].logic
    table = SignatureTable("LIA" if logic == "Core" else logic)
    out = []
    for n in (1, 2, 3):
        for sorts in itertools.product(_POOL, repeat=n):
            try:
                out.append((sorts, table.result_sort(op, sorts)))
            except SygusError:
                pass
    return out


def _emitted(op, sorts, result):
    """The function generated code computes `op` by, one parameter per argument."""
    names = [f"x{i}" for i in range(len(sorts))]
    em = SourceEmitter()
    source = em.expr(Apply(op, tuple(map(Var, names, sorts)), result), dict(zip(names, names)))
    return em.build(f"def run({', '.join(names)}): return {source}", "run")


def _values(sort):
    if sort == INT:
        return st.integers(-3, 3) | st.integers()
    if sort == BOOL:
        return st.booleans()
    if sort == STRING:
        return st.text("ab0", max_size=4)
    return st.integers(0, (1 << sort.width) - 1)


# op -> [(argument sorts, result sort, emitted function, argument strategy)]
_CASES = {op: [(sorts, result, _emitted(op, sorts, result), st.tuples(*map(_values, sorts)))
               for sorts, result in _applications(op)]
          for op in BUILTINS}


def _outcome(fn, args, total):
    """(type, value) of `fn(*args)`, or the type of the error it raises,
    which it may not at a `total` arity."""
    try:
        value = fn(*args)
    except Exception as e:
        if total:
            raise
        return type(e)
    return type(value), value


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_builtin_rows_hold(data):
    """Over arguments of every sort a row's signature takes, its emitted
    source gives its value, neither raises at a total arity, and its
    algebra holds; a lanewise source over packed words gives each lane's value."""
    for op, row in BUILTINS.items():
        assert _CASES[op], op
        for sorts, result, emitted, draw in _CASES[op]:
            args = data.draw(draw)
            sort = sorts[0] if row.logic == "BV" else result  # a BitVec operator's width is its operands'
            value = builtin_impl(op, sort)
            total = len(args) in row.total
            assert _outcome(emitted, args, total) == _outcome(value, args, total), (op, args)
            if row.commutative and len(args) == 2:
                assert value(*args) == value(*args[::-1]), (op, args)
            if row.mirror:  # at equal arguments too, where < and <= differ
                for a, b in (args, args[:1] * 2):
                    assert value(a, b) == builtin_impl(row.mirror, sort)(b, a), (op, a, b)
            if row.lanewise:
                width, lanes = result.width, [data.draw(draw) for _ in range(3)]
                pack = lambda values: sum(v << width * i for i, v in enumerate(values))
                words = [pack(column) for column in zip(*lanes)]
                source = row.source[len(sorts)].format(*map(str, words), m=(1 << 3 * width) - 1)
                assert eval(source) == pack(value(*point) for point in lanes), (op, source, lanes)


@pytest.mark.parametrize("width", [1, 4, 8])
def test_signed_comparisons_order_twos_complement(width):
    # compiled at the operands' width, where the sign bit is; the result is Bool
    sort = Sort("BitVec", width)
    signed = lambda v: v - (v >> width - 1 << width)
    for op, compare in (("bvslt", operator.lt), ("bvsle", operator.le), ("bvsgt", operator.gt), ("bvsge", operator.ge)):
        fn = Evaluator().compile(Apply(op, (Var("x", sort), Var("y", sort)), BOOL))
        for x, y in itertools.product(range(1 << width), repeat=2):
            assert fn({"x": x, "y": y}) == compare(signed(x), signed(y)), (op, x, y)


def test_default_values():
    assert default_value(INT) == 0
    assert default_value(BOOL) is False
    assert default_value(STRING) == ""
    assert default_value(BV64) == 0


def test_parallel_let():
    # both bindings see the outer x
    t = Apply("+", (Var("a", INT), Var("b", INT)), INT)
    let = Let((("a", Var("x", INT)), ("b", Apply("+", (Var("x", INT), _i(1)), INT))), t, INT)
    assert ev.eval(let, {"x": 10}) == 21
    # a swap tells a parallel let from a sequential one
    swap = Let((("x", Var("y", INT)), ("y", Var("x", INT))), Apply("-", (Var("x", INT), Var("y", INT)), INT), INT)
    assert ev.eval(swap, {"x": 10, "y": 3}) == -7
    assert TreeEvaluator().eval(swap, {"x": 10, "y": 3}) == -7
    assert Emitted().eval(swap, {"x": 10, "y": 3}) == -7


def test_emitted_source_holds_no_sygus_names():
    # names that are not Python identifiers, swapped by a parallel let
    # inside a macro of such a name
    i, q = Var("i!", INT), Var("qm-inner-loop", INT)
    swap = Let((("i!", q), ("qm-inner-loop", i)), Apply("-", (i, q), INT), INT)
    interps = {"qm-inner-loop": (["i!", "qm-inner-loop"], swap)}
    call = Apply("qm-inner-loop", (i, q), INT)
    em = SourceEmitter(interps)
    local = {"i!": em.fresh(), "qm-inner-loop": em.fresh()}
    expr = em.expr(call, local)
    source = "\n".join(em.defs + [expr])
    assert "i!" not in source and "qm-inner-loop" not in source
    env = {"i!": 10, "qm-inner-loop": 3}
    assert Emitted(interps).eval(call, env) == Evaluator(interps).eval(call, env) == -7


def test_emitted_deep_term_moves_into_defs():
    # deeper than Python's parser nests parentheses
    t = Var("x", INT)
    for k in range(300):
        t = Apply("+", (t, _i(k)), INT)
    assert Emitted().eval(t, {"x": 1}) == ev.eval(t, {"x": 1}) == 1 + sum(range(300))


def test_emitter_writes_operators_for_int_and_bool_arguments_only():
    """Int and Bool builtins, and BitVec ones over BitVec arguments, are
    Python operators; strings, variadic `+`, `bvashr` and shifts by a
    variable amount stay bound callables."""
    x, y, p = Var("x", INT), Var("y", INT), Var("p", BOOL)
    a, b, s, t = Var("a", BV64), Var("b", BV64), Var("s", STRING), Var("t", STRING)
    env = {"x": -7, "y": 3, "p": True, "a": 12, "b": 10, "s": "ab", "t": "c"}  # locals _v0 ... _v6
    m = MASK
    operators = {
        Apply("+", (x, y), INT): "(_v0 + _v1)", Apply("-", (x, y), INT): "(_v0 - _v1)",
        Apply("*", (x, y), INT): "(_v0 * _v1)", Apply("-", (x,), INT): "(- _v0)",
        Apply("<", (x, y), BOOL): "(_v0 < _v1)", Apply("<=", (x, y), BOOL): "(_v0 <= _v1)",
        Apply(">", (x, y), BOOL): "(_v0 > _v1)", Apply(">=", (x, y), BOOL): "(_v0 >= _v1)",
        Apply("=", (x, y), BOOL): "(_v0 == _v1)", Apply("=", (p, p), BOOL): "(_v2 == _v2)",
        Apply("not", (p,), BOOL): "(not _v2)",
        Apply("bvand", (a, b), BV64): "(_v3 & _v4)", Apply("bvor", (a, b), BV64): "(_v3 | _v4)",
        Apply("bvxor", (a, b), BV64): "(_v3 ^ _v4)", Apply("=", (a, b), BOOL): "(_v3 == _v4)",
        Apply("bvnot", (a,), BV64): f"(_v3 ^ {m})", Apply("bvneg", (a,), BV64): f"(- _v3 & {m})",
        Apply("bvadd", (a, b), BV64): f"(_v3 + _v4 & {m})", Apply("bvsub", (a, b), BV64): f"(_v3 - _v4 & {m})",
        Apply("bvmul", (a, b), BV64): f"(_v3 * _v4 & {m})",
        Apply("bvshl", (a, _bv(3)), BV64): f"(_v3 << 3 & {m})", Apply("bvlshr", (a, _bv(3)), BV64): "(_v3 >> 3)",
        Apply("bvshl", (a, _bv(64)), BV64): "(_v3 & 0)", Apply("bvlshr", (a, _bv(70)), BV64): "(_v3 & 0)",
    }
    callables = [Apply("str.++", (s, t), STRING), Apply("+", (x, y, x), INT), Apply("bvashr", (a, _bv(3)), BV64),
                 Apply("bvshl", (a, b), BV64), Apply("bvlshr", (a, b), BV64)]
    for term in list(operators) + callables:
        em = SourceEmitter()
        source = em.expr(term, {n: em.fresh() for n in env})
        assert source == operators[term] if term in operators else source.startswith("_k"), (term, source)
        assert Emitted().eval(term, env) == ev.eval(term, env), term


# --- compiled evaluator against the tree-walk reference ---------------------

# Variable names that are not Python identifiers, as SyGuS allows.
VARS = {
    INT: ("x", "i!", "qm-inner-loop"),
    BOOL: ("p",),
    BV64: ("a", "b"),
    STRING: ("s", "t"),
}
SORTS = tuple(VARS)


def _mac(op, params, body, sort):
    return op, ([n for n, _ in params], body), sort, tuple(s for _, s in params)


_x, _y = Var("x", INT), Var("y", INT)
_u, _w = Var("u", BV64), Var("w", BV64)
_q = Var("q", STRING)
MACROS = [
    _mac("qm", (("x", INT), ("y", INT)), Apply("ite", (Apply("<", (_x, _i(0)), BOOL), _y, _x), INT), INT),
    _mac("in-range", (("x", INT),), Apply("and", (Apply("<=", (_i(0), _x), BOOL), Apply("<", (_x, _i(10)), BOOL)), BOOL), BOOL),
    _mac("bv-mix", (("u", BV64), ("w", BV64)), Apply("bvxor", (Apply("bvand", (_u, _w), BV64), Apply("bvnot", (_w,), BV64)), BV64), BV64),
    _mac(
        "wrap3",
        (("q", STRING), ("x", INT), ("y", INT)),
        Apply("str.++", (_q, Apply("str.substr", (_q, _x, _y), STRING)), STRING),
        STRING,
    ),
    # a macro whose body applies another macro
    _mac("qm2", (("x", INT), ("y", INT)), Apply("qm", (Apply("qm", (_x, _y), INT), _y), INT), INT),
]
INTERPS = {op: interp for op, interp, _, _ in MACROS}

# result sort -> [(operator, argument sorts)]; None marks a variadic tail
OPS = {
    INT: [
        ("+", (INT, None)), ("-", (INT,)), ("-", (INT, INT)), ("*", (INT, INT)),
        ("str.len", (STRING,)), ("str.indexof", (STRING, STRING, INT)), ("str.to.int", (STRING,)),
    ],
    BOOL: [
        ("not", (BOOL,)), ("and", (BOOL, None)), ("or", (BOOL, None)), ("=>", (BOOL, BOOL)),
        ("xor", (BOOL, BOOL)), ("<", (INT, INT)), ("<=", (INT, INT)), (">", (INT, INT)),
        (">=", (INT, INT)), ("str.prefixof", (STRING, STRING)), ("str.suffixof", (STRING, STRING)),
        ("str.contains", (STRING, STRING)),
    ],
    BV64: [("bvnot", (BV64,)), ("bvneg", (BV64,))]
    + [(op, (BV64, BV64)) for op in ("bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvmul", "bvshl", "bvlshr", "bvashr")],
    STRING: [
        ("str.++", (STRING, STRING)), ("str.at", (STRING, INT)), ("str.substr", (STRING, INT, INT)),
        ("str.replace", (STRING, STRING, STRING)), ("int.to.str", (INT,)),
    ],
}
for _op, _, _sort, _params in MACROS:
    OPS[_sort].append((_op, _params))

_LITS = {
    INT: st.integers(-12, 12),
    BOOL: st.booleans(),
    BV64: st.one_of(st.integers(0, 70), st.integers(0, MASK)),
    STRING: st.text(st.sampled_from("ab1-"), max_size=4),
}


@st.composite
def terms(draw, sort, depth=3):
    choices = ["leaf"] if depth == 0 else ["leaf", "op", "op", "op", "ite", "eq", "let"]
    kind = draw(st.sampled_from(choices))
    if kind == "leaf":
        if draw(st.booleans()):
            return Var(draw(st.sampled_from(VARS[sort])), sort)
        return Lit(draw(_LITS[sort]), sort)
    if kind == "ite":
        args = (draw(terms(BOOL, depth - 1)), draw(terms(sort, depth - 1)), draw(terms(sort, depth - 1)))
        return Apply("ite", args, sort)
    if kind == "eq" and sort == BOOL:
        op = draw(st.sampled_from(("=", "distinct")))
        arg_sort = draw(st.sampled_from(SORTS))
        n = draw(st.integers(2, 3))
        return Apply(op, tuple(draw(terms(arg_sort, depth - 1)) for _ in range(n)), BOOL)
    if kind == "let":
        # parallel bindings that may shadow and swap the outer variables
        names = draw(st.lists(st.sampled_from(VARS[INT] + VARS[sort]), min_size=1, max_size=2, unique=True))
        sorts = {n: s for s in (INT, sort) for n in VARS[s]}
        bindings = tuple((n, draw(terms(sorts[n], depth - 1))) for n in names)
        return Let(bindings, draw(terms(sort, depth - 1)), sort)
    op, arg_sorts = draw(st.sampled_from(OPS[sort]))
    if arg_sorts[-1] is None:
        arg_sorts = arg_sorts[:1] * draw(st.integers(1, 3))
    return Apply(op, tuple(draw(terms(s, depth - 1)) for s in arg_sorts), sort)


ENVS = st.fixed_dictionaries({n: _LITS[s] for s, names in VARS.items() for n in names})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SORTS).flatmap(terms), ENVS)
def test_compiled_matches_tree_walk(t, env):
    want = TreeEvaluator(INTERPS).eval(t, env)
    for got in (Evaluator(INTERPS).eval(t, env), Evaluator(INTERPS).compile(t)(env), Emitted(INTERPS).eval(t, env)):
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "t",
    [
        Apply("and", (), BOOL),
        Apply("or", (), BOOL),
        Apply("and", (_i(3),), BOOL),
        Apply("or", (_i(0),), BOOL),
    ],
)
def test_edge_applications_match_tree_walk(t):
    want = TreeEvaluator(INTERPS).eval(t, {})
    assert Evaluator(INTERPS).eval(t, {}) == want
    got = Emitted(INTERPS).eval(t, {})
    assert got == want and type(got) is type(want)


def _error_type(evaluator, t, env):
    try:
        evaluator.eval(t, env)
    except Exception as e:  # the type is what is compared
        return type(e)
    return None


@pytest.mark.parametrize(
    "t, expected",
    [
        (Var("nope", INT), UnboundVariable),
        (Apply("+", (Var("x", INT), Var("nope", INT)), INT), UnboundVariable),
        (Apply("qm", (Var("nope", INT), _i(1)), INT), UnboundVariable),
        (Apply("frobnicate", (_i(1),), INT), SortMismatch),
        (Apply("bvudiv", (Lit(1, BV64), Lit(1, BV64)), BV64), SortMismatch),
        (Apply("frobnicate", (Var("nope", INT),), INT), UnboundVariable),
        (Hole("Start", INT), SygusError),
        (Apply("+", (_i(1), Hole("Start", INT)), INT), SygusError),
        (Let((("y", Var("nope", INT)),), _i(0), INT), UnboundVariable),
        # a function applied to the wrong number of arguments: its
        # arguments are evaluated first, as for any application
        (Apply("qm", (_i(-1), _i(7), Var("nope", INT)), INT), UnboundVariable),
        (Apply("qm", (_i(-1), _i(7), _i(8)), INT), ArityError),
        (Apply("qm", (_i(1),), INT), ArityError),
    ],
)
def test_errors_match_tree_walk(t, expected):
    env = {"x": 1}
    assert _error_type(TreeEvaluator(INTERPS), t, env) is expected
    assert _error_type(Evaluator(INTERPS), t, env) is expected
    assert _error_type(Emitted(INTERPS), t, env) is expected


def test_bad_node_raises_only_when_reached():
    # the compiled and emitted forms of a bad subterm raise at run time,
    # not when they are built
    bad = Apply("ite", (Var("p", BOOL), Hole("Start", INT), Apply("frobnicate", (), INT)), INT)
    fn = Evaluator().compile(bad)
    em, source = Emitted().source(bad, ["p"])
    run = em.build(source, "run")
    with pytest.raises(SygusError):
        fn({"p": True})
    with pytest.raises(SygusError):
        run(True)
    with pytest.raises(SortMismatch):
        fn({"p": False})
    with pytest.raises(SortMismatch):
        run(False)


def test_arity_error_raises_only_when_reached():
    bad = Apply("ite", (Var("p", BOOL), Apply("qm", (_i(1),), INT), _i(0)), INT)
    fn = Evaluator(INTERPS).compile(bad)
    em, source = Emitted(INTERPS).source(bad, ["p"])
    run = em.build(source, "run")
    assert fn({"p": False}) == 0 and run(False) == 0
    with pytest.raises(ArityError):
        fn({"p": True})
    with pytest.raises(ArityError):
        run(True)


def test_compile_does_not_memoise():
    e = Evaluator(INTERPS)
    t = Apply("qm", (Var("x", INT), _i(3)), INT)
    assert e.compile(t)({"x": -1}) == 3
    assert not e._memo
    assert e.eval(t, {"x": 5}) == 5
    assert len(e._memo) == 1
