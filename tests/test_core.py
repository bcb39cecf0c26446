"""Term IR, sizes, substitution and macro expansion."""

import ast
import dataclasses
import glob
import os

import pytest
from hypothesis import given, strategies as st

from sygus.core import (
    Apply,
    ArityError,
    BOOL,
    BV64,
    Grammar,
    GrammarError,
    Hole,
    INT,
    Let,
    Lit,
    MacroRecursionError,
    SignatureTable,
    SortError,
    UnboundTarget,
    UnknownOperator,
    Var,
    expand_macros,
    free_vars,
    mk_apply,
    subst,
    substitute_targets,
    template_holes,
    term_size,
    var_equations,
    walk,
)
from sygus.frontend import default_grammar, parse_file
from sygus.semantics import Evaluator

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

X = Var("x", INT)
Y = Var("y", INT)


def _plus(a, b):
    return Apply("+", (a, b), INT)


def test_term_size_hand_counted():
    assert term_size(X) == 1
    assert term_size(Lit(3, INT)) == 1
    assert term_size(_plus(X, Lit(1, INT))) == 3
    # (ite (< x 0) (- 0 x) x): 1 + 3 + 3 + 1
    ite = Apply(
        "ite",
        (Apply("<", (X, Lit(0, INT)), BOOL), Apply("-", (Lit(0, INT), X), INT), X),
        INT,
    )
    assert term_size(ite) == 8


def test_term_size_let():
    # let counts one node, each binding name, and each subterm
    t = Let((("a", _plus(X, Y)),), _plus(Var("a", INT), Lit(1, INT)), INT)
    assert term_size(t) == 1 + 1 + 3 + 3


def test_sorts_computed_at_construction():
    assert _plus(X, Y).sort == INT
    assert Apply("<=", (X, Y), BOOL).sort == BOOL


def test_mk_apply_rejects_ill_sorted():
    table = SignatureTable("LIA")
    with pytest.raises(SortError):
        mk_apply(table, "+", [X, Lit(True, BOOL)])
    with pytest.raises(ArityError):
        mk_apply(table, "ite", [X, Y])
    with pytest.raises(UnknownOperator):
        mk_apply(table, "bvadd", [X, Y])


def test_unary_minus_and_variadic_ops():
    table = SignatureTable("LIA")
    assert mk_apply(table, "-", [X]).sort == INT
    assert mk_apply(table, "and", [Lit(True, BOOL)]).sort == BOOL
    assert mk_apply(table, "+", [X, Y, Lit(1, INT)]).sort == INT


def test_free_vars():
    t = Let((("a", _plus(X, Y)),), _plus(Var("a", INT), Var("z", INT)), INT)
    assert free_vars(t) == {"x", "y", "z"}


def test_subst_simple():
    t = _plus(X, Y)
    assert subst(t, {"x": Lit(5, INT)}) == _plus(Lit(5, INT), Y)


def test_subst_respects_let_shadowing():
    # x is rebound by the let; the outer substitution must not reach it.
    t = Let((("x", Lit(1, INT)),), _plus(X, Y), INT)
    out = subst(t, {"x": Lit(99, INT)})
    assert out.body.args[0] == Var("x", INT)


def test_subst_capture_avoidance():
    # mapping y -> x must not let x be captured by the binder
    t = Let((("x", _plus(Y, Lit(1, INT))),), _plus(X, Y), INT)
    out = subst(t, {"y": X})
    ev = Evaluator()
    # semantics: with y:=x, the result at x=10 is (10+1) + 10 = 21
    assert ev.eval(out, {"x": 10}) == 21


QM = {"qm": (["a", "b"], Apply("ite", (Apply("<", (Var("a", INT), Lit(0, INT)), BOOL), Var("b", INT), Var("a", INT)), INT))}


def test_expand_macro_qm():
    call = Apply("qm", (X, Lit(7, INT)), INT)
    out = expand_macros(call, QM)
    expect = Apply("ite", (Apply("<", (X, Lit(0, INT)), BOOL), Lit(7, INT), X), INT)
    assert out == expect


def test_expand_macro_bv():
    shr4 = {"shr4": (["x"], Apply("bvlshr", (Var("x", BV64), Lit(4, BV64)), BV64))}
    call = Apply("shr4", (Var("v", BV64),), BV64)
    out = expand_macros(call, shr4)
    assert out == Apply("bvlshr", (Var("v", BV64), Lit(4, BV64)), BV64)


def test_macro_recursion_detected():
    loop = {"f": (["x"], Apply("f", (Var("x", INT),), INT))}
    with pytest.raises(MacroRecursionError):
        expand_macros(Apply("f", (X,), INT), loop)


def test_substitute_targets():
    c = Apply("=", (Apply("f", (X,), INT), X), BOOL)
    out = substitute_targets(c, {"f": (["a"], _plus(Var("a", INT), Lit(1, INT)))}, {"f"})
    assert out == Apply("=", (_plus(X, Lit(1, INT)), X), BOOL)


def test_substitute_targets_needs_a_solution_for_each_named_target():
    c = Apply("=", (Apply("f", (X,), INT), Apply("g", (X,), INT)), BOOL)
    with pytest.raises(UnboundTarget):
        substitute_targets(c, {"f": (["a"], Var("a", INT))}, {"f", "g"})


def test_substitute_targets_checks_the_argument_count():
    c = Apply("=", (Apply("f", (X,), INT), X), BOOL)
    with pytest.raises(ArityError):
        substitute_targets(c, {"f": (["a", "b"], Var("a", INT))}, {"f"})


def test_substitute_targets_inlines_inside_lets():
    # both in a bound term and in the let body
    a = Var("a", INT)
    c = Let((("y", Apply("f", (X,), INT)),), Apply("=", (Apply("f", (Y,), INT), Y), BOOL), BOOL)
    out = substitute_targets(c, {"f": (["a"], _plus(a, Lit(1, INT)))}, {"f"})
    assert out == Let((("y", _plus(X, Lit(1, INT))),), Apply("=", (_plus(Y, Lit(1, INT)), Y), BOOL), BOOL)


def _corpus_and_default_templates():
    grammars = [t.grammar for path in sorted(glob.glob(os.path.join(BENCH, "*.sl"))) for t in parse_file(path).targets]
    params = (("x", INT), ("y", INT), ("b", BOOL))
    grammars += [default_grammar("LIA", params, ret) for ret in (INT, BOOL)]
    return [tmpl for g in grammars for _, templates in g.productions for tmpl in templates]


def _holes_to_leaves(t):
    """`t` with each hole replaced by a variable of the hole's sort."""
    if isinstance(t, Hole):
        return Var("leaf", t.sort)
    if isinstance(t, Apply):
        return Apply(t.op, tuple(_holes_to_leaves(a) for a in t.args), t.sort)
    if isinstance(t, Let):
        return Let(tuple((n, _holes_to_leaves(e)) for n, e in t.bindings), _holes_to_leaves(t.body), t.sort)
    return t


def test_template_size_plus_one_per_hole_is_the_size_of_its_instance():
    # the enumerator sizes a production's candidates as the template's
    # size plus the sizes of the terms in its holes
    templates = _corpus_and_default_templates()
    assert any(template_holes(t) for t in templates)
    for tmpl in templates:
        assert term_size(tmpl) + len(template_holes(tmpl)) == term_size(_holes_to_leaves(tmpl)), tmpl


def test_walk_is_preorder_with_let_bindings_before_body():
    hole = Hole("S", INT)
    a, b = Apply("-", (X,), INT), _plus(hole, Lit(2, INT))
    t = Let((("y", a), ("z", b)), _plus(Y, Var("z", INT)), INT)
    assert list(walk(t)) == [
        t,
        a, X,
        b, hole, Lit(2, INT),
        t.body, Y, Var("z", INT),
    ]


def test_walk_treats_holes_as_leaves():
    hole = Hole("S", INT)
    tmpl = _plus(hole, Apply("ite", (Hole("B", BOOL), X, hole), INT))
    assert template_holes(tmpl) == [hole, Hole("B", BOOL), hole]
    assert list(walk(hole)) == [hole]


def _eq(a, b):
    return Apply("=", (a, b), BOOL)


def test_var_equations_both_orientations_in_first_seen_order():
    xp, yp = Var("x!", INT), Var("y!", INT)
    minus = Apply("-", (X, Lit(1, INT)), INT)
    t = Apply("and", (_eq(xp, minus), _eq(_plus(Y, Lit(1, INT)), yp), _eq(xp, X)), BOOL)
    assert var_equations([t], ["x!", "y!"]) == {
        "x!": [minus, X],
        "y!": [_plus(Y, Lit(1, INT))],
    }


def test_var_equations_skips_self_equations_and_duplicates():
    xp = Var("x!", INT)
    t = Apply("and", (_eq(xp, xp), _eq(xp, Y), _eq(Y, xp), _eq(xp, X)), BOOL)
    # the second constraint repeats a definition already seen in the first
    defs = var_equations([t, _eq(X, xp)], {"x!"})
    assert defs == {"x!": [Y, X]}
    assert var_equations([_eq(xp, xp)], {"x!"}) == {}


def test_var_equations_finds_equations_inside_let():
    xp = Var("x!", INT)
    t = Let((("d", _eq(xp, Y)),), _eq(Var("z", INT), _plus(X, X)), BOOL)
    assert var_equations([t], ["x!", "z"]) == {"x!": [Y], "z": [_plus(X, X)]}


@pytest.mark.parametrize("cls, fields", [
    (Var, ("x", INT)),
    (Lit, (3, INT)),
    (Apply, ("+", (X, Lit(1, INT)), INT)),
    (Let, ((("y", Lit(1, INT)),), Y, INT)),
    (Hole, ("S", INT)),
], ids=["Var", "Lit", "Apply", "Let", "Hole"])
def test_terms_are_values_hashed_by_their_field_tuple(cls, fields):
    # the hash the frozen term classes had: dict and set orders, and so
    # every bank and every output, depend on it
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(fields)
    assert tuple(getattr(a, f.name) for f in dataclasses.fields(a)) == fields
    assert a != cls(*fields[:-1], BOOL)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{f.name}={v!r}' for f, v in zip(dataclasses.fields(a), fields))})"


TERM_FIELDS = {"op", "args", "sort", "name", "value", "bindings", "body", "nonterminal"}


def _field_writes(source):
    """(line, text) of each store or delete of an attribute named like a
    term field, and of each setattr, delattr or dunder __setattr__ call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in TERM_FIELDS:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr"))
                or (isinstance(node.func, ast.Attribute) and node.func.attr in ("__setattr__", "__delattr__"))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_field_writes_are_found():
    source = "t.op = 1\na.b.sort, n = s, 2\nt.args += ()\ndel t.body\nsetattr(t, 'name', 1)\nobject.__setattr__(t, 'value', 1)\n"
    assert [line for line, _ in _field_writes(source)] == [1, 2, 3, 4, 5, 6]
    assert _field_writes("t.op == 1\nx = t.args\nself.goal = None\n") == []


def test_no_module_writes_a_term_field():
    # terms are immutable by contract only (see core.Term): nothing in the
    # package may assign, delete or setattr a term field
    src = os.path.join(os.path.dirname(__file__), "..", "src", "sygus")
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert len(paths) > 5
    for path in paths:
        with open(path) as f:
            assert _field_writes(f.read()) == [], os.path.basename(path)


def test_grammar_validation():
    with pytest.raises(GrammarError):
        Grammar(
            nonterminals=(("S", INT),),
            start="S",
            productions=(("S", (Hole("T", INT),)),),  # T undeclared
        )


_terms = st.recursive(
    st.one_of(st.just(X), st.just(Y), st.integers(-9, 9).map(lambda v: Lit(v, INT))),
    lambda inner: st.tuples(inner, inner).map(lambda ab: _plus(*ab)),
    max_leaves=20,
)


@given(_terms)
def test_size_is_node_count(t):
    def count(u):
        if isinstance(u, Apply):
            return 1 + sum(count(a) for a in u.args)
        return 1

    assert term_size(t) == count(t)


@given(_terms)
def test_subst_identity(t):
    assert subst(t, {}) == t
    assert subst(t, {"zz": Lit(0, INT)}) == t


@given(_terms)
def test_subst_composes_with_eval(t):
    ev = Evaluator()
    direct = ev.eval(t, {"x": 3, "y": -2})
    routed = ev.eval(subst(t, {"x": Lit(3, INT)}), {"y": -2})
    assert direct == routed
