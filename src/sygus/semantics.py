"""Concrete evaluation of terms over LIA, 64-bit bitvectors and strings.

Partial string/int functions are totalized the SMT-LIB way: out-of-range
`str.at`/`str.substr` give "", a failed `str.indexof` or `str.to.int`
gives -1, `int.to.str` of a negative gives "", and `str.replace`
rewrites only the first occurrence.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .core import (
    Apply,
    ArityError,
    BOOL,
    Hole,
    INT,
    Let,
    Lit,
    Sort,
    STRING,
    SygusError,
    Term,
    UnboundTarget,
    Var,
    free_vars,
)


class UnboundVariable(SygusError):
    pass


class SortMismatch(SygusError):
    pass


def default_value(sort: Sort):
    """Seed observation value for a sort (used when no point exists yet)."""
    if sort == INT:
        return 0
    if sort == BOOL:
        return False
    if sort == STRING:
        return ""
    if sort.kind == "BitVec":
        return 0
    raise SortMismatch(f"no default value for {sort}")


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


def builtin_impl(op: str, sort: Sort):
    """Return a python callable implementing `op` at result sort `sort`.

    Bitvector operators close over the result width so values stay
    canonical (masked).  Raises KeyError for non-builtin operators.
    """
    if op.startswith("bv"):
        mask = (1 << sort.width) - 1
        width = sort.width
        return {
            "bvnot": lambda a: ~a & mask,
            "bvneg": lambda a: -a & mask,
            "bvand": lambda a, b: a & b,
            "bvor": lambda a, b: a | b,
            "bvxor": lambda a, b: a ^ b,
            "bvadd": lambda a, b: (a + b) & mask,
            "bvsub": lambda a, b: (a - b) & mask,
            "bvmul": lambda a, b: (a * b) & mask,
            "bvshl": lambda a, b: (a << b) & mask if b < width else 0,
            "bvlshr": lambda a, b: a >> b if b < width else 0,
            "bvashr": lambda a, b: (
                (a >> min(b, width - 1)) | (mask & (mask << (width - min(b, width - 1))))
                if a >> (width - 1)
                else a >> b if b < width else 0
            ),
        }[op]
    return _FIXED_IMPLS[op]


_FIXED_IMPLS = {
    "not": lambda a: not a,
    "and": lambda *xs: all(xs),
    "or": lambda *xs: any(xs),
    "=>": lambda a, b: (not a) or b,
    "xor": operator.ne,
    "=": lambda *xs: all(x == xs[0] for x in xs[1:]),
    "distinct": lambda *xs: len(set(xs)) == len(xs),
    "ite": lambda c, a, b: a if c else b,
    "+": lambda *xs: sum(xs),
    "-": lambda a, b=None: -a if b is None else a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "str.++": operator.add,
    "str.len": len,
    "str.at": _str_at,
    "str.substr": _str_substr,
    "str.indexof": _str_indexof,
    "str.replace": _str_replace,
    "str.prefixof": lambda a, b: b.startswith(a),
    "str.suffixof": lambda a, b: b.endswith(a),
    "str.contains": lambda a, b: b in a,
    "str.to.int": _str_to_int,
    "int.to.str": _int_to_str,
}


# Source templates, by (op, arity), of the builtins that generated code
# writes as Python operators when every argument is an Int or a Bool.
_OPERATORS = {("-", 1): "- {}", ("not", 1): "not {}"} | {
    (op, 2): f"{{}} {op} {{}}" for op in ("+", "-", "*", "<", "<=", ">", ">=")}

# The same for builtins whose arguments are all BitVecs.  Values are
# canonical, so only a result that can leave 0..mask is masked; `{m}` is
# the mask of the result's width.  `bvshl` and `bvlshr` become operators
# only by a literal amount (`_bv_shift`).
_BV_OPERATORS = {
    ("bvand", 2): "{} & {}", ("bvor", 2): "{} | {}", ("bvxor", 2): "{} ^ {}",
    ("bvnot", 1): "{} ^ {m}", ("bvneg", 1): "- {} & {m}",
    ("bvadd", 2): "{} + {} & {m}", ("bvsub", 2): "{} - {} & {m}", ("bvmul", 2): "{} * {} & {m}",
}


def _raiser(error, message):
    def fail(*_):  # generated code passes the arguments it evaluated first
        raise error(message)

    return fail


def _arity_message(op, params, args):
    return f"{op} expects {len(params)} arguments, got {len(args)}"


def _unbound(error):
    raise UnboundVariable(f"unbound variable {error.args[0]!r}") from None


class Evaluator:
    """Ground-term evaluator over `SourceEmitter`'s generated code.

    `interpretations` maps a function name to (param names, body term);
    it covers both problem macros and candidate solutions, so constraint
    checks never need syntactic substitution.  A variable of the term
    that the environment lacks raises `UnboundVariable` at once; every
    other error is raised when evaluation reaches the bad node.  `and`,
    `or`, `=>` and `ite` evaluate only the arguments they need.  `eval`
    memoises the compiled form of each term it sees, keyed by identity,
    for the life of this evaluator; a caller that evaluates a term only
    once should call `compile` and drop the result instead.
    """

    def __init__(self, interpretations=None):
        self.interpretations = dict(interpretations or {})
        self._memo = {}  # id(term) -> (term, compiled); the term pins its id

    def eval(self, t: Term, env: dict):
        entry = self._memo.get(id(t))
        if entry is None:
            entry = self._memo[id(t)] = (t, self.compile(t))
        return entry[1](env)

    def compile(self, t: Term):
        """Return fn(env) computing the value of `t` in `env`.  The source
        depends only on `t` and the interpretations, so a term compiled
        again reuses its code object."""
        em = SourceEmitter(self.interpretations)
        names = {n: em.fresh() for n in sorted(free_vars(t))}
        lines = ["def _e(_env):"]
        if names:
            lines += ["    try:"] + [f"        {v} = _env[{n!r}]" for n, v in names.items()]
            lines += ["    except KeyError as _x:", f"        {em.bind('unbound', _unbound)}(_x)"]
        lines.append(f"    return {em.expr(t, names)}")
        return em.build("\n".join(lines), "_e")


COMPILE_CACHE = 256  # generated sources kept compiled per process


@functools.lru_cache(maxsize=COMPILE_CACHE)
def _compiled(source):
    return compile(source, "<generated>", "exec")


class SourceEmitter:
    """The term compiler: Python source for terms, for generated code
    that runs them on one point (`Evaluator`) or on many.  `expr(t,
    names)` gives an expression for `t`, with `names` mapping each
    variable in scope to the local holding its value (SyGuS names never
    appear in the source).  Applied functions become `defs` with
    positional parameters, except an op in `calls`, which becomes a call
    to the name `calls` maps it to.  A two-argument `=` of any sort,
    arithmetic, comparisons and `not` over Int and Bool arguments become
    Python operators, and so do the bitwise and arithmetic BitVec
    builtins, masked where a result can leave its width, and shifts by a
    literal amount; other builtins call `builtin_impl`'s callables, bound
    into `namespace`.  `and`, `or`, `=>` and `ite` evaluate only the
    arguments they need, and errors are raised only when evaluation
    reaches them.
    Each source text is compiled once per process; each emitter runs it
    in its own namespace.
    """

    MAX_DEPTH = 100  # Python nests 200 parentheses at most; deeper subterms become defs

    def __init__(self, interpretations=None, calls=None):
        self.interpretations = dict(interpretations or {})
        self.calls = dict(calls or {})
        self.namespace = {}
        self.defs = []
        self._bound = {}  # key, or function name -> generated name
        self._count = itertools.count()

    def fresh(self, prefix="_v"):
        return f"{prefix}{next(self._count)}"

    def bind(self, key, value):
        """The name under which generated code sees `value`, one per `key`."""
        if key not in self._bound:
            self._bound[key] = self.fresh("_k")
            self.namespace[self._bound[key]] = value
        return self._bound[key]

    def build(self, source, name):
        """Compile the defs with `source`; return what `source` binds to `name`."""
        exec(_compiled("\n".join(self.defs + [source])), self.namespace)
        return self.namespace[name]

    def expr(self, t: Term, names: dict, depth=0) -> str:
        if depth > self.MAX_DEPTH:
            params = list(names.values())
            return f"{self._def(t, names, params)}({', '.join(params)})"
        depth += 1
        if isinstance(t, Var):
            if t.name in names:
                return names[t.name]
            return self._fail(UnboundVariable, f"unbound variable {t.name!r}")
        if isinstance(t, Lit):
            return repr(t.value)
        if isinstance(t, Apply):
            return self._apply(t.op, [self.expr(a, names, depth) for a in t.args], t.sort, t.args)
        if isinstance(t, Let):
            params = [self.fresh() for _ in t.bindings]
            values = [self.expr(e, names, depth) for _, e in t.bindings]
            inner = {**names, **{n: p for (n, _), p in zip(t.bindings, params)}}
            body = self.expr(t.body, inner, depth)
            return f"(lambda {', '.join(params)}: {body})({', '.join(values)})"  # parallel let
        if isinstance(t, Hole):
            return self._fail(SygusError, "cannot evaluate a grammar template hole")
        return self._fail(TypeError, f"not a term: {t!r}")

    def _fail(self, error, message, args=()):
        return f"{self.bind((error, message), _raiser(error, message))}({', '.join(args)})"

    def _apply(self, op, args, sort, arg_terms):
        if op in self.calls:
            return f"{self.calls[op]}({', '.join(args)})"
        interp = self.interpretations.get(op)
        if interp is not None and len(interp[0]) != len(args):
            return self._fail(ArityError, _arity_message(op, interp[0], args), args)
        if interp is not None:
            if op not in self._bound:
                params = [self.fresh() for _ in interp[0]]
                self._bound[op] = self._def(interp[1], dict(zip(interp[0], params)), params)
            return f"{self._bound[op]}({', '.join(args)})"
        if op in ("and", "or"):
            return f"(True if {f' {op} '.join(args)} else False)" if args else repr(op == "and")
        if op == "=>" and len(args) == 2:
            return f"(not {args[0]} or {args[1]})"
        if op == "ite" and len(args) == 3:
            return f"({args[1]} if {args[0]} else {args[2]})"
        if op == "=" and len(args) == 2:
            return f"({args[0]} == {args[1]})"
        if (op, len(args)) in _OPERATORS and all(a.sort in (INT, BOOL) for a in arg_terms):
            return f"({_OPERATORS[op, len(args)].format(*args)})"
        if args and all(a.sort.kind == "BitVec" for a in arg_terms):
            if op in ("bvshl", "bvlshr") and len(args) == 2 and isinstance(arg_terms[1], Lit):
                return _bv_shift(op, args[0], arg_terms[1].value, sort.width)
            if (op, len(args)) in _BV_OPERATORS:
                return f"({_BV_OPERATORS[op, len(args)].format(*args, m=(1 << sort.width) - 1)})"
        try:
            impl = builtin_impl(op, sort)
        except KeyError:
            return self._fail(SortMismatch, f"no interpretation for operator {op!r}", args)
        return f"{self.bind((op, sort, len(args)), impl)}({', '.join(args)})"

    def _def(self, t, names, params):
        """The name of a new def of `params` returning `t`."""
        name = self.fresh("_f")
        self.defs.append(f"def {name}({', '.join(params)}): return {self.expr(t, names)}")
        return name


def _bv_shift(op, arg, amount, width):
    """Source of `arg` shifted by the literal `amount` at `width` bits."""
    if amount >= width:
        return f"({arg} & 0)"  # every bit shifted out; `arg` is still evaluated
    if op == "bvshl":
        return f"({arg} << {amount} & {(1 << width) - 1})"
    return f"({arg} >> {amount})"


def solution_interpretations(problem, solution):
    """Combine a problem's macros with a solution's target bindings.

    `solution` maps target name -> (param names, body term); no other entry is read.
    """
    interp = problem.macro_map()
    for t in problem.targets:
        if t.name not in solution:
            raise UnboundTarget(f"solution does not bind target {t.name!r}")
        interp[t.name] = solution[t.name]
    return interp


def eval_constraints(problem, solution, point: dict) -> bool:
    """True iff every constraint holds at `point` under `solution`."""
    ev = Evaluator(solution_interpretations(problem, solution))
    return all(ev.eval(c, point) for c in problem.constraints)
