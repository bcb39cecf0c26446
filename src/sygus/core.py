"""Sorted terms, grammars and synthesis problems.

Terms are immutable trees; the sort of every node is computed at
construction time so ill-sorted terms fail fast.  Grammars store
production templates: ordinary terms whose leaves may be `Hole` nodes
naming a nonterminal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class SygusError(Exception):
    """Base class for all toolkit errors."""


class SortError(SygusError):
    pass


class ArityError(SygusError):
    pass


class UnknownOperator(SygusError):
    pass


class UnboundTarget(SygusError):
    pass


class MacroRecursionError(SygusError):
    pass


class GrammarError(SygusError):
    pass


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class Sort:
    kind: str  # "Int" | "Bool" | "String" | "BitVec"
    width: int = 0

    def __post_init__(self):
        if self.kind == "BitVec" and self.width < 1:
            raise SortError(f"bitvector width must be >= 1, got {self.width}")
        if self.kind != "BitVec" and self.width != 0:
            raise SortError(f"{self.kind} sort carries no width")

    def __str__(self):
        if self.kind == "BitVec":
            return f"(BitVec {self.width})"
        return self.kind


INT = Sort("Int")
BOOL = Sort("Bool")
STRING = Sort("String")
BV64 = Sort("BitVec", 64)


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort


@dataclass(frozen=True)
class Lit(Term):
    value: object  # int, bool or str; bitvectors are masked ints
    sort: Sort


@dataclass(frozen=True)
class Apply(Term):
    op: str
    args: tuple
    sort: Sort


@dataclass(frozen=True)
class Let(Term):
    bindings: tuple  # of (name, Term)
    body: Term
    sort: Sort


@dataclass(frozen=True)
class Hole(Term):
    """Nonterminal placeholder; legal only inside grammar templates."""

    nonterminal: str
    sort: Sort


def mk_int(v: int) -> Lit:
    return Lit(int(v), INT)


def mk_bool(v: bool) -> Lit:
    return Lit(bool(v), BOOL)


def mk_str(v: str) -> Lit:
    return Lit(str(v), STRING)


def mk_bv(v: int, width: int = 64) -> Lit:
    sort = Sort("BitVec", width)
    return Lit(v & ((1 << width) - 1), sort)


TRUE = mk_bool(True)
FALSE = mk_bool(False)


# ---------------------------------------------------------------------------
# Operator signatures

# Fixed-signature operators, keyed by logic layer.  Each entry maps an
# operator to a list of (argument sorts, result sort) alternatives; None in
# an argument list position means "any number of further arguments of the
# preceding sort" (used for variadic and/or/+).

_CORE_TABLE = {
    "not": [((BOOL,), BOOL)],
    "=>": [((BOOL, BOOL), BOOL)],
    "and": "variadic-bool",
    "or": "variadic-bool",
    "xor": [((BOOL, BOOL), BOOL)],
}

_LIA_TABLE = {
    "+": "variadic-int",
    "-": [((INT,), INT), ((INT, INT), INT)],
    "*": [((INT, INT), INT)],
    "<": [((INT, INT), BOOL)],
    "<=": [((INT, INT), BOOL)],
    ">": [((INT, INT), BOOL)],
    ">=": [((INT, INT), BOOL)],
}

_BV_OPS_1 = ("bvnot", "bvneg")
_BV_OPS_2 = ("bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvmul", "bvlshr", "bvshl", "bvashr")

_STR_TABLE = {
    "str.++": [((STRING, STRING), STRING)],
    "str.replace": [((STRING, STRING, STRING), STRING)],
    "str.at": [((STRING, INT), STRING)],
    "str.substr": [((STRING, INT, INT), STRING)],
    "str.len": [((STRING,), INT)],
    "str.indexof": [((STRING, STRING, INT), INT)],
    "str.prefixof": [((STRING, STRING), BOOL)],
    "str.suffixof": [((STRING, STRING), BOOL)],
    "str.contains": [((STRING, STRING), BOOL)],
    "str.to.int": [((STRING,), INT)],
    "int.to.str": [((INT,), STRING)],
}


class SignatureTable:
    """Operator signature lookup for one logic, extended with macros and
    synthesis targets as they are declared."""

    def __init__(self, logic: str):
        self.logic = logic
        self.fixed = dict(_CORE_TABLE)
        if logic in ("LIA", "SLIA"):
            self.fixed.update(_LIA_TABLE)
        if logic == "SLIA":
            self.fixed.update(_STR_TABLE)
        if logic == "BV":
            for op in _BV_OPS_1:
                self.fixed[op] = "bv1"
            for op in _BV_OPS_2:
                self.fixed[op] = "bv2"
        self.defined = {}  # name -> (param sorts tuple, result sort)

    def register(self, name, param_sorts, ret):
        self.defined[name] = (tuple(param_sorts), ret)

    def known(self, op):
        return op in self.fixed or op in self.defined or op in ("=", "distinct", "ite")

    def result_sort(self, op, arg_sorts):
        arg_sorts = tuple(arg_sorts)
        if op == "ite":
            if len(arg_sorts) != 3:
                raise ArityError(f"ite expects 3 arguments, got {len(arg_sorts)}")
            if arg_sorts[0] != BOOL or arg_sorts[1] != arg_sorts[2]:
                raise SortError(f"ill-sorted ite over {arg_sorts}")
            return arg_sorts[1]
        if op in ("=", "distinct"):
            if len(arg_sorts) < 2 or len(set(arg_sorts)) != 1:
                raise SortError(f"{op} needs >= 2 arguments of one sort, got {arg_sorts}")
            return BOOL
        if op in self.defined:
            params, ret = self.defined[op]
            if arg_sorts != params:
                if len(arg_sorts) != len(params):
                    raise ArityError(f"{op} expects {len(params)} arguments, got {len(arg_sorts)}")
                raise SortError(f"{op} expects {params}, got {arg_sorts}")
            return ret
        entry = self.fixed.get(op)
        if entry is None:
            raise UnknownOperator(f"unknown operator {op!r} in logic {self.logic}")
        # Benchmarks in the wild apply and/or/+ to a single argument, so
        # accept arity >= 1 rather than the textbook >= 2.
        if entry == "variadic-bool":
            if len(arg_sorts) < 1 or any(s != BOOL for s in arg_sorts):
                raise SortError(f"{op} needs Bool arguments, got {arg_sorts}")
            return BOOL
        if entry == "variadic-int":
            if len(arg_sorts) < 1 or any(s != INT for s in arg_sorts):
                raise SortError(f"{op} needs Int arguments, got {arg_sorts}")
            return INT
        if entry == "bv1":
            if len(arg_sorts) != 1 or arg_sorts[0].kind != "BitVec":
                raise SortError(f"{op} expects one bitvector, got {arg_sorts}")
            return arg_sorts[0]
        if entry == "bv2":
            if (
                len(arg_sorts) != 2
                or arg_sorts[0].kind != "BitVec"
                or arg_sorts[0] != arg_sorts[1]
            ):
                raise SortError(f"{op} expects two equal-width bitvectors, got {arg_sorts}")
            return arg_sorts[0]
        for params, ret in entry:
            if arg_sorts == params:
                return ret
        if all(len(arg_sorts) != len(p) for p, _ in entry):
            raise ArityError(f"{op} does not take {len(arg_sorts)} arguments")
        raise SortError(f"{op} not applicable to {arg_sorts}")


def mk_apply(table: SignatureTable, op: str, args) -> Apply:
    args = tuple(args)
    sort = table.result_sort(op, [a.sort for a in args])
    return Apply(op, args, sort)


# ---------------------------------------------------------------------------
# Structural operations


def term_size(t: Term) -> int:
    """Number of nodes in the parse tree.

    A let counts one node for the binder plus one per binding pair, plus
    the bound terms and the body.
    """
    if isinstance(t, (Var, Lit)):
        return 1
    if isinstance(t, Apply):
        return 1 + sum(term_size(a) for a in t.args)
    if isinstance(t, Let):
        return 1 + len(t.bindings) + sum(term_size(e) for _, e in t.bindings) + term_size(t.body)
    if isinstance(t, Hole):
        raise SygusError("holes have no size; templates are not terms")
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Lit):
        return set()
    if isinstance(t, Apply):
        out = set()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, Let):
        out = set()
        for _, e in t.bindings:
            out |= free_vars(e)
        bound = {n for n, _ in t.bindings}
        out |= free_vars(t.body) - bound
        return out
    if isinstance(t, Hole):
        return set()
    raise TypeError(f"not a term: {t!r}")


def walk(t: Term):
    """Every node of `t` in preorder: a node before its arguments, and a
    let's bound terms before its body.  Holes are leaves."""
    yield t
    if isinstance(t, Apply):
        for a in t.args:
            yield from walk(a)
    elif isinstance(t, Let):
        for _, e in t.bindings:
            yield from walk(e)
        yield from walk(t.body)


def var_equations(terms, names):
    """Equations `(= v e)` or `(= e v)` anywhere in `terms`, where `v` is a
    variable named in `names` and `e` is not `v` itself.

    Returns {v: [e, ...]}; each list holds distinct terms in the order a
    preorder walk first meets them.
    """
    defs = {}
    for t in terms:
        for node in walk(t):
            if isinstance(node, Apply) and node.op == "=" and len(node.args) == 2:
                a, b = node.args
                for v, e in ((a, b), (b, a)):
                    if isinstance(v, Var) and v.name in names and e != v:
                        bucket = defs.setdefault(v.name, [])
                        if e not in bucket:
                            bucket.append(e)
    return defs


_fresh_counter = itertools.count()


def _fresh(name):
    return f"{name}%{next(_fresh_counter)}"


def subst(t: Term, mapping: dict) -> Term:
    """Capture-avoiding substitution of free variables by terms."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Lit, Hole)):
        return t
    if isinstance(t, Apply):
        return Apply(t.op, tuple(subst(a, mapping) for a in t.args), t.sort)
    if isinstance(t, Let):
        new_bindings = [(n, subst(e, mapping)) for n, e in t.bindings]
        inner = {k: v for k, v in mapping.items() if k not in {n for n, _ in t.bindings}}
        clash = set()
        for v in inner.values():
            clash |= free_vars(v)
        renames = {}
        fixed = []
        for n, e in new_bindings:
            if n in clash:
                n2 = _fresh(n)
                renames[n] = Var(n2, e.sort)
                fixed.append((n2, e))
            else:
                fixed.append((n, e))
        body = subst(t.body, renames) if renames else t.body
        return Let(tuple(fixed), subst(body, inner), t.sort)
    raise TypeError(f"not a term: {t!r}")


def substitute_targets(c: Term, sol: dict, target_names=None) -> Term:
    """Replace applications of synthesis targets by their solution bodies.

    `sol` maps target name -> (param names, body term).  Formal parameters
    are bound to the actual argument terms, capture-avoiding.
    """
    names = set(sol) if target_names is None else set(target_names)

    def rebuild(t):
        if isinstance(t, Apply):
            args = tuple(rebuild(a) for a in t.args)
            if t.op in names:
                if t.op not in sol:
                    raise UnboundTarget(f"no solution bound for target {t.op!r}")
                params, body = sol[t.op]
                if len(params) != len(args):
                    raise ArityError(
                        f"{t.op} applied to {len(args)} arguments, solution has {len(params)}"
                    )
                return subst(body, dict(zip(params, args)))
            return Apply(t.op, args, t.sort)
        if isinstance(t, Let):
            return Let(
                tuple((n, rebuild(e)) for n, e in t.bindings), rebuild(t.body), t.sort
            )
        return t

    return rebuild(c)


def expand_macros(t: Term, macros: dict, _active=frozenset()) -> Term:
    """Inline all macro applications.  `macros` maps name -> (param names, body)."""

    if isinstance(t, Apply):
        args = tuple(expand_macros(a, macros, _active) for a in t.args)
        if t.op in macros:
            if t.op in _active:
                raise MacroRecursionError(f"recursive macro {t.op!r}")
            params, body = macros[t.op]
            body = expand_macros(body, macros, _active | {t.op})
            return subst(body, dict(zip(params, args)))
        return Apply(t.op, args, t.sort)
    if isinstance(t, Let):
        return Let(
            tuple((n, expand_macros(e, macros, _active)) for n, e in t.bindings),
            expand_macros(t.body, macros, _active),
            t.sort,
        )
    return t


# ---------------------------------------------------------------------------
# Grammars


@dataclass(frozen=True)
class Grammar:
    nonterminals: tuple  # of (name, Sort), in declaration order
    start: str
    productions: tuple  # of (name, tuple of template Terms)

    def __post_init__(self):
        sorts = dict(self.nonterminals)
        if self.start not in sorts:
            raise GrammarError(f"start nonterminal {self.start!r} not declared")
        prod_names = {n for n, _ in self.productions}
        for name, _ in self.nonterminals:
            if name not in prod_names:
                raise GrammarError(f"nonterminal {name!r} has no productions")
        for name, templates in self.productions:
            if name not in sorts:
                raise GrammarError(f"productions for undeclared nonterminal {name!r}")
            for tmpl in templates:
                if tmpl.sort != sorts[name]:
                    raise GrammarError(
                        f"production {tmpl!r} of {name!r} has sort {tmpl.sort}, "
                        f"expected {sorts[name]}"
                    )
                for hole in template_holes(tmpl):
                    if hole.nonterminal not in sorts:
                        raise GrammarError(f"undeclared nonterminal {hole.nonterminal!r}")
                    if sorts[hole.nonterminal] != hole.sort:
                        raise GrammarError(
                            f"placeholder {hole.nonterminal!r} used at sort {hole.sort}"
                        )

    def sort_of(self, nt: str) -> Sort:
        for name, sort in self.nonterminals:
            if name == nt:
                return sort
        raise GrammarError(f"unknown nonterminal {nt!r}")

    def prods(self, nt: str):
        for name, templates in self.productions:
            if name == nt:
                return templates
        raise GrammarError(f"unknown nonterminal {nt!r}")


def template_holes(tmpl: Term):
    """Holes of a template in left-to-right traversal order."""
    return [n for n in walk(tmpl) if isinstance(n, Hole)]


def template_fixed_size(tmpl: Term) -> int:
    """Node count of a template with holes counted as zero."""
    if isinstance(tmpl, Hole):
        return 0
    if isinstance(tmpl, (Var, Lit)):
        return 1
    if isinstance(tmpl, Apply):
        return 1 + sum(template_fixed_size(a) for a in tmpl.args)
    if isinstance(tmpl, Let):
        return (
            1
            + len(tmpl.bindings)
            + sum(template_fixed_size(e) for _, e in tmpl.bindings)
            + template_fixed_size(tmpl.body)
        )
    raise TypeError(f"not a template: {tmpl!r}")


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class Macro:
    name: str
    params: tuple  # of (name, Sort)
    ret: Sort
    body: Term


@dataclass(frozen=True)
class SynthTarget:
    name: str
    params: tuple  # of (name, Sort)
    ret: Sort
    grammar: Grammar
    is_default: bool = False


@dataclass(frozen=True)
class InvariantSpec:
    inv_name: str
    state_vars: tuple  # of (name, Sort)
    pre_name: str
    trans_name: str
    post_name: str


@dataclass(frozen=True)
class Problem:
    logic: str  # "LIA" | "BV" | "SLIA"
    universals: tuple  # of (name, Sort)
    macros: tuple  # of Macro
    targets: tuple  # of SynthTarget
    constraints: tuple  # of Bool-sorted Terms
    invariant_spec: InvariantSpec = None

    def macro_map(self):
        return {m.name: ([n for n, _ in m.params], m.body) for m in self.macros}

    def target(self, name):
        for t in self.targets:
            if t.name == name:
                return t
        raise SygusError(f"no synthesis target named {name!r}")

    def target_names(self):
        return {t.name for t in self.targets}
