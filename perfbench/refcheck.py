"""Independent reference reader, evaluator and solution checker.

Shares no code with `sygus`: it has its own s-expression reader and its
own interpreter, so a defect in the toolkit's evaluator cannot also hide
in the check.  It covers exactly what the benchmark workloads use:

* 64-bit bitvectors (`bvnot bvand bvor bvxor bvadd bvshl bvlshr`) and
  `define-fun` macros such as the `fig2` ones;
* conditional linear integer arithmetic;
* the string operators of the `initials` tasks, totalised the SMT-LIB way;
* invariant problems, whose three verification conditions are checked
  on a grid of states.

Terms are plain Python data: a symbol is a `str`, a numeral an `int`, a
string literal a `Str`, a bitvector literal a `BV`, an application a
`tuple` whose head is the operator symbol.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

MASK64 = (1 << 64) - 1


class RefError(Exception):
    """Malformed input, an unknown operator, or an unbound symbol."""


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class BV:
    value: int
    width: int


# ---------------------------------------------------------------------------
# Reading


def _tokens(text):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c
            i += 1
        elif c == '"':
            j, out = i + 1, []
            while True:
                if j >= n:
                    raise RefError("unterminated string literal")
                if text[j] == '"':
                    if text[j + 1 : j + 2] == '"':  # "" is an escaped quote
                        out.append('"')
                        j += 2
                        continue
                    break
                out.append(text[j])
                j += 1
            yield Str("".join(out))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            yield _atom(text[i:j])
            i = j


def _atom(word):
    if word.startswith("#x"):
        return BV(int(word[2:], 16), 4 * (len(word) - 2))
    if word.lstrip("-").isdigit() and word != "-":
        return int(word)
    return word


def read(text):
    """Every top-level s-expression of `text`, lists as tuples."""
    stack, top = [], []
    for tok in _tokens(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise RefError("unbalanced ')'")
            done = tuple(stack.pop())
            (stack[-1] if stack else top).append(done)
        else:
            (stack[-1] if stack else top).append(tok)
    if stack:
        raise RefError("unbalanced '('")
    return top


def show(e):
    """Concrete syntax of a term."""
    if isinstance(e, tuple):
        return "(" + " ".join(show(x) for x in e) + ")"
    if isinstance(e, Str):
        return '"' + e.value.replace('"', '""') + '"'
    if isinstance(e, BV):
        return "#x" + format(e.value, "0%dx" % (e.width // 4))
    return str(e)


def size(e):
    """Node count, the measure SyGuS scoring uses for solution size."""
    if isinstance(e, tuple):
        if e[0] == "let":
            return 1 + sum(size(b[1]) for b in e[1]) + size(e[2])
        return 1 + sum(size(a) for a in e[1:])
    return 1


# ---------------------------------------------------------------------------
# Evaluation


def _at(s, i):
    return s[i] if 0 <= i < len(s) else ""


def _substr(s, i, n):
    if not (0 <= i < len(s)) or n <= 0:
        return ""
    return s[i : i + n]


def _indexof(s, t, i):
    if not (0 <= i <= len(s)):
        return -1
    return s.find(t, i)  # find("", i) is i, as SMT-LIB asks


def _replace(s, t, r):
    if t == "":
        return r + s
    k = s.find(t)
    return s if k < 0 else s[:k] + r + s[k + len(t) :]


def _to_int(s):
    return int(s) if s and s.isascii() and s.isdigit() else -1


def _minus(a, b=None):
    return -a if b is None else a - b


def _shl(a, b):
    return (a << b) & MASK64 if b < 64 else 0


def _lshr(a, b):
    return a >> b if b < 64 else 0


OPS = {
    "not": lambda a: not a,
    "=>": lambda a, b: (not a) or b,
    "=": lambda a, b: a == b,
    "+": lambda *xs: sum(xs),
    "-": _minus,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "bvnot": lambda a: a ^ MASK64,
    "bvand": lambda a, b: a & b,
    "bvor": lambda a, b: a | b,
    "bvxor": lambda a, b: a ^ b,
    "bvadd": lambda a, b: (a + b) & MASK64,
    "bvshl": _shl,
    "bvlshr": _lshr,
    "str.++": lambda a, b: a + b,
    "str.len": len,
    "str.at": _at,
    "str.substr": _substr,
    "str.indexof": _indexof,
    "str.replace": _replace,
    "str.prefixof": lambda a, b: b.startswith(a),
    "str.suffixof": lambda a, b: b.endswith(a),
    "str.contains": lambda a, b: b in a,
    "str.to.int": _to_int,
    "int.to.str": lambda i: str(i) if i >= 0 else "",
}


def evaluate(e, env, funs):
    """Value of term `e`; `env` binds symbols, `funs` maps a function name
    to (parameter names, body) for macros and candidate solutions."""
    if isinstance(e, tuple):
        op = e[0]
        if op == "ite":
            return evaluate(e[2] if evaluate(e[1], env, funs) else e[3], env, funs)
        if op == "and":
            return all(evaluate(a, env, funs) for a in e[1:])
        if op == "or":
            return any(evaluate(a, env, funs) for a in e[1:])
        if op == "let":
            inner = dict(env)
            for name, value in e[1]:
                inner[name] = evaluate(value, env, funs)
            return evaluate(e[2], inner, funs)
        args = [evaluate(a, env, funs) for a in e[1:]]
        if op in funs:
            params, body = funs[op]
            return evaluate(body, dict(zip(params, args)), funs)
        fn = OPS.get(op)
        if fn is None:
            raise RefError(f"unknown operator {op!r}")
        return fn(*args)
    if isinstance(e, str):
        if e in env:
            return env[e]
        if e == "true":
            return True
        if e == "false":
            return False
        raise RefError(f"unbound symbol {e!r}")
    if isinstance(e, (Str, BV)):
        return e.value
    return e


# ---------------------------------------------------------------------------
# Problems and solutions


@dataclass
class Spec:
    funs: dict  # macro name -> (param names, body)
    targets: dict  # synthesis target name -> param names
    variables: list  # (name, sort) of declare-var / declare-primed-var
    constraints: list
    inv: tuple = None  # (inv, pre, trans, post) names


def read_spec(text):
    """The parts of a SyGuS-IF problem the checker needs."""
    spec = Spec({}, {}, [], [])
    for form in read(text):
        head = form[0]
        if head == "define-fun":
            _, name, params, _sort, body = form
            spec.funs[name] = ([p[0] for p in params], body)
        elif head in ("synth-fun", "synth-inv"):
            spec.targets[form[1]] = [p[0] for p in form[2]]
        elif head == "declare-var":
            spec.variables.append((form[1], form[2]))
        elif head == "declare-primed-var":
            spec.variables += [(form[1], form[2]), (form[1] + "!", form[2])]
        elif head == "constraint":
            spec.constraints.append(form[1])
        elif head == "inv-constraint":
            spec.inv = tuple(form[1:])
    return spec


def read_solution(text):
    """Map each `define-fun` in `text` to (param names, body)."""
    out = {}
    for form in read(text):
        if len(form) != 5 or form[0] != "define-fun":
            raise RefError(f"expected define-fun, got {show(form)}")
        out[form[1]] = ([p[0] for p in form[2]], form[4])
    return out


def define_fun(spec_text, body):
    """A `define-fun` binding the problem's first synthesis target to the
    concrete syntax `body`."""
    for form in read(spec_text):
        if form[0] in ("synth-fun", "synth-inv"):
            ret = "Bool" if form[0] == "synth-inv" else show(form[3])
            return f"(define-fun {form[1]} {show(form[2])} {ret} {body})"
    raise RefError("no synthesis target")


# Integer check points: a dense box around 0 plus seeded large values.
INT_BOX = range(-12, 13)
STATE_BOX = range(-4, 5)


def int_points(names, seed=0, extra=200):
    box = [dict(zip(names, vs)) for vs in itertools.product(INT_BOX, repeat=len(names))]
    rng = random.Random(seed)
    for _ in range(extra):
        box.append({n: rng.randint(-(10**6), 10**6) for n in names})
    return box


def _successors(trans_params, trans_body, state, funs):
    """Candidate next states: every primed variable takes each value an
    equality in the transition relation defines for it, or keeps its old
    value; the relation itself then filters the combinations."""
    n = len(trans_params) // 2
    env = dict(zip(trans_params[:n], state))
    primed = trans_params[n:]
    equalities = list(_equalities(trans_body))
    choices = []
    for k, p in enumerate(primed):
        vals = {state[k]}
        for a, b in equalities:
            for lhs, rhs in ((a, b), (b, a)):
                if lhs == p:
                    try:
                        vals.add(evaluate(rhs, env, funs))
                    except RefError:
                        pass  # the right-hand side mentions another primed variable
        choices.append(sorted(vals))
    for succ in itertools.product(*choices):
        if evaluate(trans_body, {**env, **dict(zip(primed, succ))}, funs):
            yield succ


def _equalities(e):
    if isinstance(e, tuple):
        if e[0] == "=" and len(e) == 3:
            yield e[1], e[2]
        for a in e[1:]:
            yield from _equalities(a)


def _symbols(e):
    if isinstance(e, tuple):
        for a in e[1:]:
            yield from _symbols(a)
    elif isinstance(e, str):
        yield e


def check_invariant(spec, solution):
    """None if the three verification conditions hold on every state of
    the grid, else a description of the first violation."""
    inv, pre, trans, post = spec.inv
    funs = dict(spec.funs)
    funs.update(solution)
    inv_params, _ = funs[inv]
    trans_params, trans_body = funs[trans]

    def call(name, args):
        params, body = funs[name]
        return evaluate(body, dict(zip(params, args)), funs)

    for state in itertools.product(STATE_BOX, repeat=len(inv_params)):
        inside = call(inv, state)
        if call(pre, state) and not inside:
            return f"pre holds but invariant fails at {state}"
        if not inside:
            continue
        if not call(post, state):
            return f"invariant holds but post fails at {state}"
        for succ in _successors(trans_params, trans_body, state, funs):
            if not call(inv, succ):
                return f"invariant not inductive from {state} to {succ}"
    return None


def check(spec_text, solution_text):
    """None if `solution_text` satisfies the problem `spec_text`, else why not.

    Ground constraints (PBE) are checked exactly; universally quantified
    ones on `int_points`; invariant problems with `check_invariant`.
    """
    spec = read_spec(spec_text)
    solution = read_solution(solution_text)
    missing = set(spec.targets) - set(solution)
    if missing:
        return f"solution does not define {sorted(missing)}"
    for name, (params, _) in solution.items():
        if spec.targets.get(name) is None or len(params) != len(spec.targets[name]):
            return f"solution defines {name!r} with the wrong signature"
    if spec.inv is not None:
        return check_invariant(spec, solution)
    funs = dict(spec.funs)
    funs.update(solution)
    used = {s for c in spec.constraints for s in _symbols(c)}
    names = [n for n, _ in spec.variables if n in used]
    points = int_points(names) if names else [{}]
    for c in spec.constraints:
        for point in points:
            if not evaluate(c, point, funs):
                return f"constraint {show(c)} fails at {point}"
    return None
