"""Reference implementations the tests compare the toolkit against."""

import itertools
import math
import random
from collections import Counter

from sygus.core import Apply, ArityError, Hole, Let, Lit, SygusError, Term, Var, free_vars, var_equations
from sygus.engine import Branch, Enumerator
from sygus.semantics import SortMismatch, UnboundVariable, _arity_message, builtin_impl


class TreeEvaluator:
    """Ground-term interpreter that walks the tree at every call.

    `interpretations` maps a function name to (param names, body term),
    as for `Evaluator`.  `Evaluator`, `SourceEmitter` and the enumerator's
    generated vector functions (all three run code `SourceEmitter` writes)
    must give the same values and raise the same error types as this walk.
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


class PointWalk(TreeEvaluator):
    """`TreeEvaluator` fixed to one point `env` that walks each term object
    once there and remembers its value by identity, so banked terms, which
    share their child objects, cost one node each.  Macro bodies and let
    bodies run under environments of their own and are walked in full.
    The terms walked must outlive the walk (their ids are the keys)."""

    def __init__(self, interpretations, env):
        super().__init__(interpretations)
        self.env, self.memo = env, {}

    def eval(self, t: Term, env: dict):
        if env is not self.env:
            return super().eval(t, env)
        try:
            return self.memo[id(t)]
        except KeyError:
            v = self.memo[id(t)] = super().eval(t, env)
            return v


def unpacked(vec, sort, n):
    """The values, one per point, of an enumerator vector of `sort` over
    `n` points: a BitVec vector is one int, point i's value in bits
    [w*i, w*(i+1)) for the sort's width w, with nothing above the last
    point; any other vector is the tuple itself."""
    if sort.kind != "BitVec":
        return vec
    assert type(vec) is int and 0 <= vec < 1 << sort.width * n, vec
    return tuple(vec >> sort.width * i & (1 << sort.width) - 1 for i in range(n))


def packed(values, sort):
    """The enumerator vector of `sort` with these values, one per point
    (see `unpacked`)."""
    if sort.kind != "BitVec":
        return tuple(values)
    return sum(v << sort.width * i for i, v in enumerate(values))


def enumerate_all(grammar, nt, max_size, interpretations=None, envs=None):
    """Unpruned brute-force enumeration; the reference for pruning checks."""
    en = Enumerator(grammar, envs, interpretations, max_size, prune=False)
    return [t for t, _ in en.enumerate(nt)]


class FullProduct(Enumerator):
    """`Enumerator` with none of its pruning shortcuts: every production
    builds its whole product, halving, mirroring and one-sided selection
    all off.  Pruning and `keep` act as in `Enumerator`, whose banks, in
    order, must equal this one's."""

    def _halves(self, tmpl):
        return False

    def _mirrored(self, tmpl, earlier):
        return False

    def _one_sided(self, nt, holes, body):
        return None


def predicate_pool(en, nt, max_size, cond):
    """`engine._predicate_pool` with the condition `cond`, whose hole 0 is
    the variable "0", walked on each value of each vector, unpacked; the
    pool the generated `Enumerator.sides` selects must be equal, in
    order, each selection the id mask with bit i set where `cond` holds
    at point i."""
    pool = []
    seen = set()
    ev = TreeEvaluator()
    for s in range(1, max_size + 1):
        for term, vec in en.bank(nt, s):
            bvec = tuple(ev.eval(cond, {"0": v}) for v in unpacked(vec, en.grammar.sort_of(nt), len(en.envs)))
            if bvec in seen or all(bvec) or not any(bvec):
                continue
            seen.add(bvec)
            pool.append((term, sum(1 << i for i, b in enumerate(bvec) if b)))
    return pool


def ice_seed(problem, spec, state_names, seed):
    """`engine._ice_seed` through `TreeEvaluator`, one environment dict
    per evaluation; the generated functions must give the same
    (pos, neg, imps)."""
    macro_map = problem.macro_map()
    ev = TreeEvaluator(macro_map)
    pre_params, pre_body = macro_map[spec.pre_name]
    post_params, post_body = macro_map[spec.post_name]
    trans_params, trans_body = macro_map[spec.trans_name]
    n = len(state_names)
    radius = 1
    while (2 * radius + 3) ** n <= 700:
        radius += 1
    grid = itertools.product(range(-radius, radius + 1), repeat=n)
    rng = random.Random(seed)
    states = list(grid)
    for _ in range(200):
        states.append(tuple(rng.randint(-8, 8) for _ in range(n)))
    states = list(dict.fromkeys(states))

    pos, neg, imps = set(), set(), set()
    for s in states:
        if ev.eval(pre_body, dict(zip(pre_params, s))):
            pos.add(s)
        if not ev.eval(post_body, dict(zip(post_params, s))):
            neg.add(s)
    if len(neg) > 120:
        neg = set(rng.sample(sorted(neg), 120))

    unprimed = set(trans_params[:n])
    primed = trans_params[n:]
    defs = {
        v: [e for e in es if free_vars(e) <= unprimed]
        for v, es in var_equations([trans_body], primed).items()
    }
    if all(defs.get(p) for p in primed):
        combos = list(itertools.product(*[defs[p][:3] for p in primed]))[:81]
        for s in states:
            env = dict(zip(trans_params[:n], s))
            for combo in combos:
                try:
                    succ = tuple(ev.eval(e, env) for e in combo)
                except Exception:
                    continue
                full = list(s) + list(succ)
                if ev.eval(trans_body, dict(zip(trans_params, full))):
                    imps.add((s, succ))
            if len(imps) > 4000:
                break
    return pos, neg, imps


def _entropy(labels, ids):
    counts = Counter(labels[i] for i in ids)
    total = len(ids)
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def build_decision_tree(ids, labels, leaf, preds, depth=None):
    """`engine.build_decision_tree` over frozensets, one `Counter` per
    candidate split, each predicate read bit by bit from its mask; the
    mask learner must give an equal tree, or None where this one does."""
    ids = frozenset(ids)
    node = leaf(ids)
    if node is not None:
        return node
    if depth is not None and depth <= 0:
        return None
    base = _entropy(labels, ids)
    best = None
    best_gain = -1.0
    for payload, mask in preds:
        yes = frozenset(i for i in ids if mask >> i & 1)
        no = ids - yes
        if not yes or not no:
            continue
        gain = base - (
            len(yes) / len(ids) * _entropy(labels, yes)
            + len(no) / len(ids) * _entropy(labels, no)
        )
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (payload, yes, no)
    if best is None:
        return None
    payload, yes, no = best
    sub = None if depth is None else depth - 1
    then = build_decision_tree(yes, labels, leaf, preds, sub)
    other = build_decision_tree(no, labels, leaf, preds, sub)
    if then is None or other is None:
        return None
    return Branch(payload, then, other)
