"""Concrete evaluation of terms over LIA, 64-bit bitvectors and strings.

Partial string/int functions are totalized the SMT-LIB way: out-of-range
`str.at`/`str.substr` give "", a failed `str.indexof` or `str.to.int`
gives -1, `int.to.str` of a negative gives "", and `str.replace`
rewrites only the first occurrence.
"""

from __future__ import annotations

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
    Var,
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
    "xor": lambda a, b: a != b,
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
    "str.++": lambda a, b: a + b,
    "str.len": lambda s: len(s),
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


# C-level equivalents of builtins at fixed arity, for compiled terms.
_UNARY = {"not": operator.not_, "-": operator.neg, "str.len": len}
_BINARY = {
    "=": operator.eq,
    "xor": operator.ne,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "str.++": operator.add,
    "bvand": operator.and_,
    "bvor": operator.or_,
    "bvxor": operator.xor,
}


# Source templates, by (op, arity), of the builtins that generated code
# writes as Python operators when every argument is an Int or a Bool.
_OPERATORS = {("=", 2): "{} == {}", ("-", 1): "- {}", ("not", 1): "not {}"} | {
    (op, 2): f"{{}} {op} {{}}" for op in ("+", "-", "*", "<", "<=", ">", ">=")}


def _raiser(error, message):
    def fail(*_):  # generated code passes the arguments it evaluated first
        raise error(message)

    return fail


def _arity_message(op, params, args):
    return f"{op} expects {len(params)} arguments, got {len(args)}"


def _failing(fns, error, message):
    """fn(env) that evaluates `fns`, then raises `error`."""

    def failing(env):
        for f in fns:
            f(env)
        raise error(message)

    return failing


class Evaluator:
    """Ground-term evaluator that compiles each term once into closures.

    `interpretations` maps a function name to (param names, body term);
    it covers both problem macros and candidate solutions, so constraint
    checks never need syntactic substitution.  Errors are raised when
    evaluation reaches the bad node.  `and`, `or`, `=>` and `ite`
    evaluate only the arguments they need.  `eval` memoises the compiled
    form of each term it sees, keyed by identity, for the life of this
    evaluator; a caller that evaluates a term only once should call
    `compile` and drop the result instead.
    """

    def __init__(self, interpretations=None):
        self.interpretations = dict(interpretations or {})
        self._bodies = {}  # function name -> compiled body
        self._memo = {}  # id(term) -> (term, compiled); the term pins its id

    def eval(self, t: Term, env: dict):
        entry = self._memo.get(id(t))
        if entry is None:
            entry = self._memo[id(t)] = (t, self.compile(t))
        return entry[1](env)

    def compile(self, t: Term):
        """Return fn(env) computing the value of `t` in `env`."""
        if isinstance(t, Var):
            name = t.name

            def var(env):
                try:
                    return env[name]
                except KeyError:
                    raise UnboundVariable(f"unbound variable {name!r}") from None

            return var
        if isinstance(t, Lit):
            value = t.value
            return lambda env: value
        if isinstance(t, Apply):
            return self._compile_apply(t.op, [self.compile(a) for a in t.args], t.sort)
        if isinstance(t, Let):
            binds = [(name, self.compile(e)) for name, e in t.bindings]
            body = self.compile(t.body)

            def let(env):
                inner = dict(env)
                for name, f in binds:
                    inner[name] = f(env)  # parallel let
                return body(inner)

            return let
        if isinstance(t, Hole):
            return _raiser(SygusError, "cannot evaluate a grammar template hole")
        return _raiser(TypeError, f"not a term: {t!r}")

    def _compile_apply(self, op, fns, sort):
        interp = self.interpretations.get(op)
        if interp is not None and len(interp[0]) != len(fns):
            return _failing(fns, ArityError, _arity_message(op, interp[0], fns))
        if interp is not None:
            body = self._bodies.get(op)
            if body is None:
                body = self._bodies[op] = self.compile(interp[1])
            pairs = tuple(zip(interp[0], fns))
            return lambda env: body({p: f(env) for p, f in pairs})
        if op == "and":
            if len(fns) == 2:
                a, b = fns
                return lambda env: True if a(env) and b(env) else False
            return lambda env: all(f(env) for f in fns)
        if op == "or":
            if len(fns) == 2:
                a, b = fns
                return lambda env: True if a(env) or b(env) else False
            return lambda env: any(f(env) for f in fns)
        if op == "=>" and len(fns) == 2:
            a, b = fns
            return lambda env: (not a(env)) or b(env)
        if op == "ite" and len(fns) == 3:
            c, a, b = fns
            return lambda env: a(env) if c(env) else b(env)
        try:
            impl = builtin_impl(op, sort)
        except KeyError:
            return _failing(fns, SortMismatch, f"no interpretation for operator {op!r}")
        impl = {1: _UNARY, 2: _BINARY}.get(len(fns), {}).get(op, impl)
        if len(fns) == 1:
            (f0,) = fns
            return lambda env: impl(f0(env))
        if len(fns) == 2:
            f0, f1 = fns
            return lambda env: impl(f0(env), f1(env))
        if len(fns) == 3:
            f0, f1, f2 = fns
            return lambda env: impl(f0(env), f1(env), f2(env))
        return lambda env: impl(*[f(env) for f in fns])


class SourceEmitter:
    """Python source for terms, for generated code that runs them on many
    points.  `expr(t, names)` gives an expression for `t`, with `names`
    mapping each variable in scope to the local holding its value (SyGuS
    names never appear in the source).  Applied functions become `defs`
    with positional parameters, except an op in `calls`, which becomes a
    call to the name `calls` maps it to.  Arithmetic, comparisons and
    `not` over Int and Bool arguments become Python operators; other
    builtins call `Evaluator`'s callables, bound into `namespace`.
    Results and error types match `Evaluator`'s, and errors are raised
    only when evaluation reaches them.
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
        exec(compile("\n".join(self.defs + [source]), "<generated>", "exec"), self.namespace)
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
        if (op, len(args)) in _OPERATORS and all(a.sort in (INT, BOOL) for a in arg_terms):
            return f"({_OPERATORS[op, len(args)].format(*args)})"
        try:
            impl = builtin_impl(op, sort)
        except KeyError:
            return self._fail(SortMismatch, f"no interpretation for operator {op!r}", args)
        impl = {1: _UNARY, 2: _BINARY}.get(len(args), {}).get(op, impl)
        return f"{self.bind((op, sort, len(args)), impl)}({', '.join(args)})"

    def _def(self, t, names, params):
        """The name of a new def of `params` returning `t`."""
        name = self.fresh("_f")
        self.defs.append(f"def {name}({', '.join(params)}): return {self.expr(t, names)}")
        return name


def solution_interpretations(problem, solution):
    """Combine a problem's macros with a solution's target bindings.

    `solution` maps target name -> (param names, body term).
    """
    interp = problem.macro_map()
    for t in problem.targets:
        if t.name not in solution:
            from .core import UnboundTarget

            raise UnboundTarget(f"solution does not bind target {t.name!r}")
    interp.update(solution)
    return interp


def eval_constraints(problem, solution, point: dict) -> bool:
    """True iff every constraint holds at `point` under `solution`."""
    ev = Evaluator(solution_interpretations(problem, solution))
    return all(ev.eval(c, point) for c in problem.constraints)
