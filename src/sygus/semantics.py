"""Concrete evaluation of terms over LIA, bitvectors and strings: the
term compiler `SourceEmitter`, and the `Evaluator` that runs its code.

What a builtin operator computes, and the Python source generated code
writes for it, is its row of `core.BUILTINS`; `builtin_impl` reads the
value and `SourceEmitter` the source.  Partial string/int functions,
whose helpers live in `core` beside the table, are totalized the SMT-LIB
way: out-of-range `str.at`/`str.substr` give "", a failed `str.indexof`
or `str.to.int` gives -1, `int.to.str` of a negative gives "", and
`str.replace` rewrites only the first occurrence.
"""

from __future__ import annotations

import functools
import itertools

from .core import (
    Apply,
    ArityError,
    BOOL,
    BUILTINS,
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


def builtin_impl(op: str, sort: Sort):
    """Return a python callable implementing `op` at result sort `sort`:
    its `BUILTINS` value, a BitVec operator's at the width of `sort`.
    Raises KeyError for non-builtin operators."""
    row = BUILTINS[op]
    return row.value(sort.width, (1 << sort.width) - 1) if row.logic == "BV" else row.value


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
    to the name `calls` maps it to.  A builtin applied at an arity its
    `BUILTINS` row gives source for becomes that Python expression (a
    BitVec one only over BitVec arguments), and so does a BitVec shift by
    a literal amount; other builtins call `builtin_impl`'s callables,
    bound into `namespace`.  `and`, `or`, `=>` and `ite` evaluate only
    the arguments they need, and errors are raised only when evaluation
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
        row = BUILTINS.get(op)
        if row is None:
            return self._fail(SortMismatch, f"no interpretation for operator {op!r}", args)
        source = row.source.get(len(args))
        if row.logic == "BV":
            if not all(a.sort.kind == "BitVec" for a in arg_terms):
                source = None
            elif op in ("bvshl", "bvlshr") and len(args) == 2 and isinstance(arg_terms[1], Lit):
                return _bv_shift(op, args[0], arg_terms[1].value, sort.width)
        if source is not None:
            return f"({source.format(*args, m=(1 << sort.width) - 1)})"
        return f"{self.bind((op, sort, len(args)), builtin_impl(op, sort))}({', '.join(args)})"

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
