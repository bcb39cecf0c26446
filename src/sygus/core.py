"""Sorted terms, grammars and synthesis problems, and `BUILTINS`, the
one table of builtin operators.

Terms are immutable trees; the sort of every node is computed at
construction time so ill-sorted terms fail fast.  Grammars store
production templates: ordinary terms whose leaves may be `Hole` nodes
naming a nonterminal.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field


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


def sorts_text(sorts):
    """`sorts` written as a SyGuS signature writes them: `(Int Bool)`."""
    return f"({' '.join(map(str, sorts))})"


INT = Sort("Int")
BOOL = Sort("Bool")
STRING = Sort("String")
BV64 = Sort("BitVec", 64)


# ---------------------------------------------------------------------------
# Terms


# Terms are immutable by contract, not by `frozen=True`: a frozen
# dataclass's `__init__` sets each field through `object.__setattr__`,
# and `Apply(...)` then costs about 385 ns against 126 ns (timeit, 1M
# calls, Python 3.11 on a 2-core x86 host), paid once per entry the
# enumerator banks.  `unsafe_hash` keeps the frozen classes' `==` and
# their hash of the field tuple, and so every dict and set order;
# `tests/test_core.py` checks that no module assigns a term field.
class Term:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    name: str
    sort: Sort


@dataclass(slots=True, unsafe_hash=True)
class Lit(Term):
    value: object  # int, bool or str; bitvectors are masked ints
    sort: Sort


@dataclass(slots=True, unsafe_hash=True)
class Apply(Term):
    op: str
    args: tuple
    sort: Sort


@dataclass(slots=True, unsafe_hash=True)
class Let(Term):
    bindings: tuple  # of (name, Term)
    body: Term
    sort: Sort


@dataclass(slots=True, unsafe_hash=True)
class Hole(Term):
    """Nonterminal placeholder; legal only inside grammar templates."""

    nonterminal: str
    sort: Sort


# ---------------------------------------------------------------------------
# Builtin operators


def _str_at(s, i):
    if 0 <= i < len(s):
        return s[i]
    return ""


def _str_substr(s, i, n):
    if i < 0 or n < 0 or i >= len(s):
        return ""
    return s[i : i + n]


def _str_indexof(s, t, i):
    if i < 0 or i > len(s):
        return -1
    if t == "":
        return i
    j = s.find(t, i)
    return j


def _str_replace(s, t, r):
    if t == "":
        return r + s
    i = s.find(t)
    if i < 0:
        return s
    return s[:i] + r + s[i + len(t) :]


def _str_to_int(s):
    if s and all(c in "0123456789" for c in s):
        return int(s)
    return -1


def _int_to_str(i):
    return str(i) if i >= 0 else ""


def _signed(compare, width):
    """`compare` on two's-complement `width`-bit values: with each sign bit
    flipped, their unsigned order is the signed one."""
    s = 1 << width - 1
    return lambda a, b: compare(a ^ s, b ^ s)


@dataclass(frozen=True)
class Builtin:
    """One row of `BUILTINS`: what a builtin operator is, for the
    parser, both term compilers and pruning.

    `logic` declares it: "Core" every logic, "LIA" LIA and SLIA, "SLIA"
    or "BV" that logic alone.  `signature` lists (argument sorts, result
    sort) alternatives, or names a rule of `SignatureTable.result_sort`.
    `value` is its Python callable; a BitVec operator's is
    `value(width, mask)`, the callable at its operands' width, whose
    results `mask` (2^width - 1) keeps canonical.

    `source` maps an arity to the Python expression generated code
    writes, `{}` per argument and `{m}` for the operands' mask; at other
    arities it calls `value`, but for `and` and `or`, which
    `SourceEmitter` short-circuits itself.  A BitVec source is written
    only over BitVec arguments; a `lanewise` one computes every lane of
    packed words at once, `{m}` then every lane's bits (`engine._Lanes`).

    Pruning reads the algebra: `commutative`, the same value with the
    two arguments swapped; `mirror`, the operator whose value is the
    same with them swapped ((> a b) is (< b a)); `total`, the arities at
    which neither value nor source raises on arguments of its sorts.  A
    row may leave out what holds (`+` cannot raise either): a wider
    algebra changes what pruning builds.
    """

    logic: str
    signature: object
    value: object
    source: dict = field(default_factory=dict)
    lanewise: bool = False
    commutative: bool = False
    mirror: str = None
    total: tuple = ()


_INT_CMP = [((INT, INT), BOOL)]
_STR_TEST = [((STRING, STRING), BOOL)]

BUILTINS = {
    "not": Builtin("Core", [((BOOL,), BOOL)], lambda a: not a, {1: "not {}"}, total=(1,)),
    "=>": Builtin("Core", [((BOOL, BOOL), BOOL)], lambda a, b: (not a) or b, {2: "not {} or {}"}, total=(2,)),
    "and": Builtin("Core", "variadic-bool", lambda *xs: all(xs), commutative=True, total=(2,)),
    "or": Builtin("Core", "variadic-bool", lambda *xs: any(xs), commutative=True, total=(2,)),
    "xor": Builtin("Core", [((BOOL, BOOL), BOOL)], operator.ne, commutative=True, total=(2,)),
    "=": Builtin("Core", "same", lambda *xs: all(x == xs[0] for x in xs[1:]), {2: "{} == {}"},
                 commutative=True, total=(2,)),
    "distinct": Builtin("Core", "same", lambda *xs: len(set(xs)) == len(xs)),
    "ite": Builtin("Core", "ite", lambda c, a, b: a if c else b, {3: "{1} if {0} else {2}"}),
    "+": Builtin("LIA", "variadic-int", lambda *xs: sum(xs), {2: "{} + {}"}, commutative=True),
    "-": Builtin("LIA", [((INT,), INT), ((INT, INT), INT)], lambda a, b=None: -a if b is None else a - b,
                 {1: "- {}", 2: "{} - {}"}),
    "*": Builtin("LIA", [((INT, INT), INT)], lambda a, b: a * b, {2: "{} * {}"}, commutative=True),
    "<": Builtin("LIA", _INT_CMP, lambda a, b: a < b, {2: "{} < {}"}, mirror=">", total=(2,)),
    "<=": Builtin("LIA", _INT_CMP, lambda a, b: a <= b, {2: "{} <= {}"}, mirror=">=", total=(2,)),
    ">": Builtin("LIA", _INT_CMP, lambda a, b: a > b, {2: "{} > {}"}, mirror="<", total=(2,)),
    ">=": Builtin("LIA", _INT_CMP, lambda a, b: a >= b, {2: "{} >= {}"}, mirror="<=", total=(2,)),
    "bvnot": Builtin("BV", "bv1", lambda w, m: lambda a: ~a & m, {1: "{} ^ {m}"}, lanewise=True),
    "bvneg": Builtin("BV", "bv1", lambda w, m: lambda a: -a & m, {1: "- {} & {m}"}),
    "bvand": Builtin("BV", "bv2", lambda w, m: lambda a, b: a & b, {2: "{} & {}"}, lanewise=True, commutative=True),
    "bvor": Builtin("BV", "bv2", lambda w, m: lambda a, b: a | b, {2: "{} | {}"}, lanewise=True, commutative=True),
    "bvxor": Builtin("BV", "bv2", lambda w, m: lambda a, b: a ^ b, {2: "{} ^ {}"}, lanewise=True, commutative=True),
    "bvadd": Builtin("BV", "bv2", lambda w, m: lambda a, b: (a + b) & m, {2: "{} + {} & {m}"}, commutative=True),
    "bvsub": Builtin("BV", "bv2", lambda w, m: lambda a, b: (a - b) & m, {2: "{} - {} & {m}"}),
    "bvmul": Builtin("BV", "bv2", lambda w, m: lambda a, b: (a * b) & m, {2: "{} * {} & {m}"}, commutative=True),
    # a shift by a literal amount is an operator too; see `semantics._bv_shift`
    "bvshl": Builtin("BV", "bv2", lambda w, m: lambda a, b: (a << b) & m if b < w else 0),
    "bvlshr": Builtin("BV", "bv2", lambda w, m: lambda a, b: a >> b if b < w else 0),
    "bvashr": Builtin("BV", "bv2", lambda w, m: lambda a, b: (
        (a >> min(b, w - 1)) | (m & (m << (w - min(b, w - 1))))
        if a >> (w - 1)
        else a >> b if b < w else 0
    )),
    "bvult": Builtin("BV", "bvcmp", lambda w, m: operator.lt, {2: "{} < {}"}, mirror="bvugt", total=(2,)),
    "bvule": Builtin("BV", "bvcmp", lambda w, m: operator.le, {2: "{} <= {}"}, mirror="bvuge", total=(2,)),
    "bvugt": Builtin("BV", "bvcmp", lambda w, m: operator.gt, {2: "{} > {}"}, mirror="bvult", total=(2,)),
    "bvuge": Builtin("BV", "bvcmp", lambda w, m: operator.ge, {2: "{} >= {}"}, mirror="bvule", total=(2,)),
    "bvslt": Builtin("BV", "bvcmp", lambda w, m: _signed(operator.lt, w), mirror="bvsgt", total=(2,)),
    "bvsle": Builtin("BV", "bvcmp", lambda w, m: _signed(operator.le, w), mirror="bvsge", total=(2,)),
    "bvsgt": Builtin("BV", "bvcmp", lambda w, m: _signed(operator.gt, w), mirror="bvslt", total=(2,)),
    "bvsge": Builtin("BV", "bvcmp", lambda w, m: _signed(operator.ge, w), mirror="bvsle", total=(2,)),
    "str.++": Builtin("SLIA", [((STRING, STRING), STRING)], operator.add),
    "str.replace": Builtin("SLIA", [((STRING, STRING, STRING), STRING)], _str_replace),
    "str.at": Builtin("SLIA", [((STRING, INT), STRING)], _str_at),
    "str.substr": Builtin("SLIA", [((STRING, INT, INT), STRING)], _str_substr),
    "str.len": Builtin("SLIA", [((STRING,), INT)], len),
    "str.indexof": Builtin("SLIA", [((STRING, STRING, INT), INT)], _str_indexof),
    "str.prefixof": Builtin("SLIA", _STR_TEST, lambda a, b: b.startswith(a)),
    "str.suffixof": Builtin("SLIA", _STR_TEST, lambda a, b: b.endswith(a)),
    "str.contains": Builtin("SLIA", _STR_TEST, lambda a, b: b in a),
    "str.to.int": Builtin("SLIA", [((STRING,), INT)], _str_to_int),
    "int.to.str": Builtin("SLIA", [((INT,), STRING)], _int_to_str),
}


class SignatureTable:
    """Operator signature lookup for one logic, extended with macros and
    synthesis targets as they are declared."""

    def __init__(self, logic: str):
        self.logic = logic
        logics = ("Core", "LIA", "SLIA") if logic == "SLIA" else ("Core", logic)
        self.fixed = {op: b.signature for op, b in BUILTINS.items() if b.logic in logics}
        self.defined = {}  # name -> (param sorts tuple, result sort)

    def register(self, name, param_sorts, ret):
        self.defined[name] = (tuple(param_sorts), ret)

    def known(self, op):
        return op in self.fixed or op in self.defined

    def result_sort(self, op, arg_sorts):
        arg_sorts = tuple(arg_sorts)
        entry = self.fixed.get(op)
        if entry == "ite":
            if len(arg_sorts) != 3:
                raise ArityError(f"ite expects 3 arguments, got {len(arg_sorts)}")
            if arg_sorts[0] != BOOL or arg_sorts[1] != arg_sorts[2]:
                raise SortError(f"ill-sorted ite over {sorts_text(arg_sorts)}")
            return arg_sorts[1]
        if entry == "same":
            if len(arg_sorts) < 2 or len(set(arg_sorts)) != 1:
                raise SortError(f"{op} needs >= 2 arguments of one sort, got {sorts_text(arg_sorts)}")
            return BOOL
        if op in self.defined:
            params, ret = self.defined[op]
            if arg_sorts != params:
                if len(arg_sorts) != len(params):
                    raise ArityError(f"{op} expects {len(params)} arguments, got {len(arg_sorts)}")
                raise SortError(f"{op} expects {sorts_text(params)}, got {sorts_text(arg_sorts)}")
            return ret
        if entry is None:
            raise UnknownOperator(f"unknown operator {op!r} in logic {self.logic}")
        # Benchmarks in the wild apply and/or/+ to a single argument, so
        # accept arity >= 1 rather than the textbook >= 2.
        if entry == "variadic-bool":
            if len(arg_sorts) < 1 or any(s != BOOL for s in arg_sorts):
                raise SortError(f"{op} needs Bool arguments, got {sorts_text(arg_sorts)}")
            return BOOL
        if entry == "variadic-int":
            if len(arg_sorts) < 1 or any(s != INT for s in arg_sorts):
                raise SortError(f"{op} needs Int arguments, got {sorts_text(arg_sorts)}")
            return INT
        if entry == "bv1":
            if len(arg_sorts) != 1 or arg_sorts[0].kind != "BitVec":
                raise SortError(f"{op} expects one bitvector, got {sorts_text(arg_sorts)}")
            return arg_sorts[0]
        if entry in ("bv2", "bvcmp"):
            if (
                len(arg_sorts) != 2
                or arg_sorts[0].kind != "BitVec"
                or arg_sorts[0] != arg_sorts[1]
            ):
                raise SortError(f"{op} expects two equal-width bitvectors, got {sorts_text(arg_sorts)}")
            return arg_sorts[0] if entry == "bv2" else BOOL
        for params, ret in entry:
            if arg_sorts == params:
                return ret
        if all(len(arg_sorts) != len(p) for p, _ in entry):
            raise ArityError(f"{op} does not take {len(arg_sorts)} arguments")
        raise SortError(f"{op} not applicable to {sorts_text(arg_sorts)}")


def mk_apply(table: SignatureTable, op: str, args) -> Apply:
    args = tuple(args)
    sort = table.result_sort(op, [a.sort for a in args])
    return Apply(op, args, sort)


# ---------------------------------------------------------------------------
# Structural operations


def term_size(t: Term) -> int:
    """Number of nodes in the parse tree; a hole counts as none, so a
    template's size is the size of its fixed part.

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
        return 0
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


def rebuild(t: Term, f) -> Term:
    """`t` with each argument, each bound term and the let body `e`
    replaced by `f(e)`; a leaf is returned as it is."""
    if isinstance(t, Apply):
        return Apply(t.op, tuple(f(a) for a in t.args), t.sort)
    if isinstance(t, Let):
        return Let(tuple((n, f(e)) for n, e in t.bindings), f(t.body), t.sort)
    return t


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


def subst(t: Term, mapping: dict) -> Term:
    """Capture-avoiding substitution of free variables by terms.  A let
    binder that would capture becomes the first `name%k` (k = 0, 1, ...)
    free in neither the let body nor a substituted term, and no binder or
    substituted name."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Lit, Hole)):
        return t
    if isinstance(t, Apply):
        return rebuild(t, lambda a: subst(a, mapping))
    if isinstance(t, Let):
        binders = {n for n, _ in t.bindings}
        new_bindings = [(n, subst(e, mapping)) for n, e in t.bindings]
        inner = {k: v for k, v in mapping.items() if k not in binders}
        clash = set().union(*(free_vars(v) for v in inner.values()))
        taken = clash | free_vars(t.body) | binders | inner.keys()
        renames = {}
        fixed = []
        for n, e in new_bindings:
            if n in clash:
                n2 = next(c for c in (f"{n}%{k}" for k in itertools.count()) if c not in taken)
                taken.add(n2)
                renames[n] = Var(n2, e.sort)
                n = n2
            fixed.append((n, e))
        body = subst(t.body, renames) if renames else t.body
        return Let(tuple(fixed), subst(body, inner), t.sort)
    raise TypeError(f"not a term: {t!r}")


def substitute_targets(c: Term, sol: dict, target_names=None) -> Term:
    """Inline the solutions of the targets named in `target_names`
    (default: every target in `sol`) through `expand_macros`, as macros.

    `sol` maps target name -> (param names, body term).  Formal parameters
    are bound to the actual argument terms, capture-avoiding.  An
    application of a named target that `sol` does not bind raises
    UnboundTarget; one whose argument count differs from its solution's
    raises ArityError.
    """
    names = set(sol) if target_names is None else set(target_names)
    for t in walk(c):
        if isinstance(t, Apply) and t.op in names:
            if t.op not in sol:
                raise UnboundTarget(f"no solution bound for target {t.op!r}")
            params = sol[t.op][0]
            if len(params) != len(t.args):
                raise ArityError(f"{t.op} applied to {len(t.args)} arguments, solution has {len(params)}")
    return expand_macros(c, {n: sol[n] for n in names & sol.keys()})


def expand_macros(t: Term, macros: dict, _active=frozenset()) -> Term:
    """Inline all macro applications.  `macros` maps name -> (param names, body)."""
    t = rebuild(t, lambda e: expand_macros(e, macros, _active))
    if isinstance(t, Apply) and t.op in macros:
        if t.op in _active:
            raise MacroRecursionError(f"recursive macro {t.op!r}")
        params, body = macros[t.op]
        body = expand_macros(body, macros, _active | {t.op})
        return subst(body, dict(zip(params, t.args)))
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
