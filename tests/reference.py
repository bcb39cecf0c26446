"""Reference implementations the tests compare the toolkit against."""

from sygus.core import Apply, ArityError, Hole, Let, Lit, SygusError, Term, Var
from sygus.engine import Enumerator
from sygus.semantics import SortMismatch, UnboundVariable, _arity_message, builtin_impl


class TreeEvaluator:
    """Ground-term interpreter that walks the tree at every call.

    `interpretations` maps a function name to (param names, body term),
    as for `Evaluator`.  `Evaluator`, `SourceEmitter` and the enumerator's
    generated vector functions must give the same values and raise the
    same error types as this walk.
    """

    def __init__(self, interpretations=None):
        self.interpretations = dict(interpretations or {})

    def eval(self, t: Term, env: dict):
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {t.name!r}") from None
        if isinstance(t, Lit):
            return t.value
        if isinstance(t, Apply):
            vals = [self.eval(a, env) for a in t.args]
            interp = self.interpretations.get(t.op)
            if interp is not None:
                params, body = interp
                if len(params) != len(vals):
                    raise ArityError(_arity_message(t.op, params, vals))
                return self.eval(body, dict(zip(params, vals)))
            try:
                fn = builtin_impl(t.op, t.sort)
            except KeyError:
                raise SortMismatch(f"no interpretation for operator {t.op!r}") from None
            return fn(*vals)
        if isinstance(t, Let):
            inner = dict(env)
            for name, e in t.bindings:
                inner[name] = self.eval(e, env)  # parallel let
            return self.eval(t.body, inner)
        if isinstance(t, Hole):
            raise SygusError("cannot evaluate a grammar template hole")
        raise TypeError(f"not a term: {t!r}")


def enumerate_all(grammar, nt, max_size, interpretations=None, envs=None):
    """Unpruned brute-force enumeration; the reference for pruning checks."""
    en = Enumerator(grammar, envs, interpretations, max_size, prune=False)
    return [t for t, _ in en.enumerate(nt)]
