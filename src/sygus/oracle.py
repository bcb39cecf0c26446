"""Post-processors: syntactic conformance and semantic verification.

Conformance is decided first, then semantics — counterexample search in
three tiers: exact evaluation of ground constraints (PBE examples are
ground), seeded bounded/sampled search, and an optional external SMT
solver spoken to over SMT-LIB2 text on stdin/stdout.  The second tier
runs each constraint group's whole point loop in one generated and
compiled Python function, drawing all-Int samples once per process; the
closure `Evaluator` decides the first tier and re-checks every
counterexample.
"""

from __future__ import annotations

import functools
import itertools
import random
import shlex
import subprocess
from array import array
from dataclasses import dataclass

from .core import (
    Apply,
    BOOL,
    Grammar,
    Hole,
    INT,
    Let,
    Lit,
    Sort,
    STRING,
    SygusError,
    Term,
    Var,
    expand_macros,
    free_vars,
    substitute_targets,
    var_equations,
    walk,
)
from .frontend import emit_term
from .semantics import Evaluator, SourceEmitter, default_value, eval_constraints, solution_interpretations
from .sexpr import HexTok, IntTok, SList, StrTok, Symbol, parse_sexprs


class FalseCounterexample(SygusError):
    """A point about to be reported as a counterexample satisfies every
    constraint: the search and the final check disagree."""


@dataclass(frozen=True)
class Verdict:
    kind: str  # "valid" | "counterexample" | "nonconformant" | "unknown"
    point: dict = None
    path: tuple = ()
    reason: str = ""


def Valid():
    return Verdict("valid")


def Counterexample(point):
    return Verdict("counterexample", point=point)


def NonConformant(path):
    return Verdict("nonconformant", path=tuple(path))


def Unknown(reason):
    return Verdict("unknown", reason=reason)


@dataclass
class VerifyConfig:
    seed: int = 0
    smt_cmd: object = None  # argv list or command string
    smt_timeout: float = 30.0


# Tier-2 search: Int grid radius, grid size cap, sample count, and the
# String pool's size cap and longest random string.
INT_BOUND = 64
EXHAUSTIVE_CAP = 200_000
SAMPLES = 10_000
STRING_POOL_CAP = 200
STRING_SAMPLE_LEN = 10


# ---------------------------------------------------------------------------
# Syntactic conformance


def _match(template, term, derivable):
    if isinstance(template, Hole):
        return derivable(template.nonterminal, term)
    if isinstance(template, (Var, Lit)):
        return template == term
    if isinstance(template, Apply):
        if not (isinstance(term, Apply) and term.op == template.op and len(term.args) == len(template.args)):
            return False
        return all(_match(a, b, derivable) for a, b in zip(template.args, term.args))
    if isinstance(template, Let):
        if not (isinstance(term, Let) and len(term.bindings) == len(template.bindings)):
            return False
        for (n1, e1), (n2, e2) in zip(template.bindings, term.bindings):
            if n1 != n2 or not _match(e1, e2, derivable):
                return False
        return _match(template.body, term.body, derivable)
    return False


class Derivable:
    """`Derivable(grammar)(nt, term)`: whether the grammar derives `term`
    from `nt`, by top-down matching with one memo across calls.

    The memo keys on `id`, so every term asked about must outlive the
    checker.  A pair already in progress is refused (an alias cycle that
    consumes no node); a refusal that leaned on such a cut through a pair
    further up is not memoized, since that pair may yet derive the term
    another way.
    """

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.memo = {}
        self.depth = {}  # pair in progress -> its depth on the stack
        self.shallowest_cut = float("inf")  # depth of the outermost pair a cut reached

    def __call__(self, nt, t):
        key = (nt, id(t))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if key in self.depth:
            self.shallowest_cut = min(self.shallowest_cut, self.depth[key])
            return False
        d = self.depth[key] = len(self.depth)
        outer, self.shallowest_cut = self.shallowest_cut, d
        ok = any(_match(tmpl, t, self) for tmpl in self.grammar.prods(nt))
        del self.depth[key]
        if ok or self.shallowest_cut >= d:
            self.memo[key] = ok
        self.shallowest_cut = min(outer, self.shallowest_cut)
        return ok


def check_conformance(term: Term, grammar: Grammar) -> Verdict:
    """Membership of `term` in the grammar's language, by memoized
    top-down derivation matching."""
    derivable = Derivable(grammar)
    if derivable(grammar.start, term):
        return Valid()
    return NonConformant(_offending_path(grammar, grammar.start, term, derivable))


def _offending_path(grammar, nt, term, derivable):
    """Best-effort path to a subterm no production can derive."""
    if isinstance(term, Apply):
        for tmpl in grammar.prods(nt):
            if isinstance(tmpl, Hole):
                if not derivable(tmpl.nonterminal, term):
                    continue
            if (
                isinstance(tmpl, Apply)
                and tmpl.op == term.op
                and len(tmpl.args) == len(term.args)
            ):
                for i, (ta, a) in enumerate(zip(tmpl.args, term.args)):
                    if isinstance(ta, Hole) and not derivable(ta.nonterminal, a):
                        return (i,) + _offending_path(grammar, ta.nonterminal, a, derivable)
    return ()


# ---------------------------------------------------------------------------
# Semantic verification


def _string_constants(problem):
    terms = list(problem.constraints) + [m.body for m in problem.macros]
    for t in problem.targets:
        for _, templates in t.grammar.productions:
            terms.extend(templates)
    return [n.value for t in terms for n in walk(t) if isinstance(n, Lit) and n.sort == STRING]


_PRINTABLE = "".join(chr(c) for c in range(32, 127))


def _value_pool(sort: Sort, problem, rng):
    if sort == BOOL:
        return [False, True]
    if sort == INT:
        return list(range(-INT_BOUND, INT_BOUND + 1))
    if sort.kind == "BitVec":
        w = sort.width
        mask = (1 << w) - 1
        vals = {0, 1, mask}
        for i in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, w - 1):
            if i < w:
                vals.add(1 << i)
                vals.add((1 << i) - 1)
        for _ in range(32):
            vals.add(rng.getrandbits(w))
        return sorted(vals)
    if sort == STRING:
        consts = _string_constants(problem)
        pool = list(dict.fromkeys(consts))
        for s in consts:
            if len(s) <= 16:
                for i in range(len(s)):
                    for j in range(i + 1, len(s) + 1):
                        pool.append(s[i:j])
            else:
                pool.extend([s[:4], s[-4:]])
        for a in consts[:8]:
            for b in consts[:8]:
                pool.append(a + b)
        pool.append("")
        for _ in range(32):
            n = rng.randrange(STRING_SAMPLE_LEN + 1)
            pool.append("".join(rng.choice(_PRINTABLE) for _ in range(n)))
        pool = list(dict.fromkeys(pool))
        return pool[:STRING_POOL_CAP]
    raise ValueError(f"no value pool for sort {sort}")


INT_SCALES = (2, 8, 64, 4096, 10**6)  # a sampled Int is uniform in [-scale, scale]


def _drawer(sort, pool, rng):
    """A function of no arguments that draws one sampled value of `sort`.

    An Int picks a scale from `INT_SCALES`, then a value in [-scale,
    scale]; a BitVec flips a coin between `pool` and `sort.width` random
    bits; any other sort picks from `pool`.  Each pick from n items draws
    `n.bit_length()` bits from `rng` until they fall below n, which is how
    `random.choice` and `random.randint` pick, so the values and the `rng`
    stream are exactly theirs, without their per-call overhead.
    """
    bits = rng.getrandbits
    if sort == INT:
        ranges = [(s, 2 * s + 1, (2 * s + 1).bit_length()) for s in INT_SCALES]
        n_scales, k_scales = len(ranges), len(ranges).bit_length()

        def draw_int():
            i = bits(k_scales)
            while i >= n_scales:
                i = bits(k_scales)
            scale, n, k = ranges[i]
            r = bits(k)
            while r >= n:
                r = bits(k)
            return r - scale

        return draw_int
    if not pool:
        raise IndexError(f"no values to draw for sort {sort}")
    n, k = len(pool), len(pool).bit_length()

    def draw():
        r = bits(k)
        while r >= n:
            r = bits(k)
        return pool[r]

    if sort.kind == "BitVec":
        coin, width = rng.random, sort.width
        return lambda: draw() if coin() < 0.5 else bits(width)
    return draw


class _IntStream:
    """An Int `_drawer`'s values from `random.Random(seed)`, drawn once into
    `array('q')` chunks, each by the first `iter()` to read past the last."""

    CHUNK = 4096

    def __init__(self, seed):
        self._draw = _drawer(INT, (), random.Random(seed))
        self.chunks = []

    def __iter__(self):
        return itertools.chain.from_iterable(self._chunks())

    def _chunks(self):
        for i in itertools.count():
            if i == len(self.chunks):
                self.chunks.append(array("q", [self._draw() for _ in range(self.CHUNK)]))
            yield self.chunks[i]


@functools.cache
def _int_stream(seed):
    """The process's `_IntStream` for `seed`: exactly what a search whose
    draws are all Int draws, as an Int pool takes nothing from the rng."""
    return _IntStream(seed)


def _search_points(universals, problem, seed, cap, samples):
    """Deterministic candidate points as value tuples: a bounded exhaustive
    grid (shrunk to fit `cap` points), then `samples` seeded independent
    samples."""
    rng = random.Random(seed)
    sorts = [s for _, s in universals]
    pools = [_value_pool(s, problem, rng) for s in sorts]

    grids = list(pools)
    while True:
        size = 1
        for g in grids:
            size *= len(g)
        if size <= cap:
            break
        # Shrink: halve the integer radius (down to 1), truncate the rest.
        shrunk = False
        for i, s in enumerate(sorts):
            if s == INT:
                radius = max(v for v in grids[i])
                if radius > 1:
                    r = max(1, radius // 2)
                    grids[i] = list(range(-r, r + 1))
                    shrunk = True
            elif len(grids[i]) > 4:
                grids[i] = grids[i][:4]
                shrunk = True
        if not shrunk:
            grids = None
            break
    grid = () if grids is None else itertools.product(*grids)
    if sorts and all(s == INT for s in sorts):
        sampled = itertools.islice(zip(*[iter(_int_stream(seed))] * len(sorts)), samples)
    else:
        draws = [_drawer(s, pool, rng) for s, pool in zip(sorts, pools)]
        sampled = (tuple([draw() for draw in draws]) for _ in range(samples))
    return itertools.chain(grid, sampled)


def _derived_choices(constraints, sub, problem):
    """Variables defined by equality subterms, with candidate defining
    expressions over the remaining (base) variables.

    Transition relations constrain primed variables through conjuncts
    like `(= i! (- i 1))`; falsifying points must satisfy them, and
    independent sampling essentially never does.  Returns a list of
    (name, [Term, ...]) for the derived variables, in a deterministic
    order.
    """
    names = [n for n, _ in sub]
    macro_map = problem.macro_map()
    defs = var_equations((expand_macros(c, macro_map) for c in constraints), names)

    base = set(names)
    derived = []
    # Variables with a non-variable defining expression first: given
    # (= i! (- i 1)) and (= i! i), derive i! from i rather than i from i!.
    order = sorted(
        names,
        key=lambda v: (
            not any(not isinstance(e, Var) for e in defs.get(v, ())),
            names.index(v),
        ),
    )
    for v in order:
        cands = [e for e in defs.get(v, []) if free_vars(e) <= (base - {v})]
        if cands:
            base.discard(v)
            derived.append((v, cands[:3]))
    # Defining expressions may not mention other derived variables.
    changed = True
    while changed:
        changed = False
        for i, (v, exprs) in enumerate(derived):
            kept = [e for e in exprs if free_vars(e) <= base]
            if not kept:
                base.add(v)
                del derived[i]
                changed = True
                break
            derived[i] = (v, kept)
    # Bound the combination count (each variable also gets a free choice).
    while derived:
        n = 1
        for _, exprs in derived:
            n *= len(exprs) + 1
        if n <= 64:
            break
        base.add(derived[-1][0])
        derived.pop()
    return derived


def _search_group(problem, interps, constraints, sub, seed):
    """Tier-2 search for one group of constraints sharing free variables:
    each base point with every combination of choices (an expression or a
    free draw) for the derived variables, all in one generated function.

    Returns a falsifying point dict or None.
    """
    derived = _derived_choices(constraints, sub, problem)
    base = [n for n, _ in sub if n not in dict(derived)]
    sorts = dict(sub)
    combos = list(itertools.product(*[exprs + [None] for _, exprs in derived]))
    # Spread the same point budget across the combinations.
    cap = max(1000, EXHAUSTIVE_CAP // len(combos))
    samples = max(1000, SAMPLES // len(combos))
    if all(sorts[n] == INT for n, _ in derived):
        drawers = dict.fromkeys(dict(derived), iter(_int_stream(seed + 1)).__next__)
    else:
        rng = random.Random(seed + 1)
        pools = {n: _value_pool(sorts[n], problem, rng) for n, _ in derived}
        drawers = {n: _drawer(sorts[n], pools[n], rng) for n, _ in derived}

    em = SourceEmitter(interps)
    draws = {n: em.bind(("draw", n), d) for n, d in drawers.items()}
    local = {n: em.fresh() for n, _ in sub}
    checks = " and ".join(em.expr(c, local) for c in constraints)
    lines = [
        "def search(points):",
        f"    for {''.join(local[n] + ',' for n in base) or '_'} in points:",
    ]
    for combo in combos:
        lines.append("        while True:  # one combination; `break` leaves it")
        scope = {n: local[n] for n in base}
        for (v, _), choice in zip(derived, combo):
            if choice is None:
                lines.append(f"            {local[v]} = {draws[v]}()")
            else:
                lines.append(f"            try: {local[v]} = {em.expr(choice, scope)}")
                lines.append("            except Exception: break")
            scope[v] = local[v]
        lines.append(f"            if not ({checks}): return ({','.join(local.values())},)")
        lines.append("            break")
    search = em.build("\n".join(lines), "search")
    found = search(_search_points([(n, sorts[n]) for n in base], problem, seed, cap, samples))
    return None if found is None else dict(zip(local, found))


def verify(problem, solution, cfg=None) -> Verdict:
    """Search for a falsifying point; `solution` maps target name ->
    (param names, body)."""
    cfg = cfg or VerifyConfig()
    interps = solution_interpretations(problem, solution)
    ev = Evaluator(interps)

    # Each constraint is searched over its own free variables only; a
    # constraint touching 4 of 8 universals gets the full grid radius in
    # those 4 dimensions instead of a radius diluted by the other 4.
    groups = {}
    for c in problem.constraints:
        fv = free_vars(c)
        key = frozenset(n for n, _ in problem.universals if n in fv)
        groups.setdefault(key, []).append(c)
    defaults = {n: default_value(s) for n, s in problem.universals}
    for key, cs in groups.items():
        if not key:
            # Ground constraints (PBE examples among them): one evaluation
            # each decides them.
            if not all(ev.eval(c, defaults) for c in cs):
                return _checked_cex(problem, solution, defaults)
            continue
        sub = [(n, s) for n, s in problem.universals if n in key]
        cex = _search_group(problem, interps, cs, sub, cfg.seed)
        if cex is not None:
            full = dict(defaults)
            full.update(cex)
            return _checked_cex(problem, solution, full)

    if not any(groups):  # every constraint was ground
        return Valid()
    if cfg.smt_cmd:
        return external_check(problem, solution, cfg)
    return Unknown("unverified-beyond-bound")


def _checked_cex(problem, solution, point):
    if eval_constraints(problem, solution, point):
        raise FalseCounterexample(f"point {point!r} does not falsify the constraints")
    return Counterexample(point)


# ---------------------------------------------------------------------------
# External solver over SMT-LIB2 text


def _smt_sort(sort: Sort) -> str:
    if sort.kind == "BitVec":
        return f"(_ BitVec {sort.width})"
    return sort.kind


def build_smt_script(problem, solution) -> str:
    """SMT-LIB2 script whose unsatisfiability proves the solution valid."""
    lines = ["(set-logic ALL)"]
    for n, s in problem.universals:
        lines.append(f"(declare-const {n} {_smt_sort(s)})")
    for m in problem.macros:
        params = " ".join(f"({pn} {_smt_sort(ps)})" for pn, ps in m.params)
        lines.append(f"(define-fun {m.name} ({params}) {_smt_sort(m.ret)} {emit_term(m.body)})")
    sol = {k: (v[0], v[1]) for k, v in solution.items()}
    names = problem.target_names()
    subbed = [substitute_targets(c, sol, names) for c in problem.constraints]
    if len(subbed) == 1:
        body = emit_term(subbed[0])
    else:
        body = "(and " + " ".join(emit_term(c) for c in subbed) + ")"
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _model_value(sx):
    if isinstance(sx, (IntTok, HexTok, StrTok)):
        return sx.value
    if isinstance(sx, Symbol):
        if sx.name == "true":
            return True
        if sx.name == "false":
            return False
    if (
        isinstance(sx, SList)
        and len(sx.items) == 2
        and isinstance(sx.items[0], Symbol)
        and sx.items[0].name == "-"
        and isinstance(sx.items[1], IntTok)
    ):
        return -sx.items[1].value
    raise ValueError(f"unparsable model value {sx!r}")


def parse_model(text, universals):
    """Extract a Point from a solver's get-model output."""
    point = {}
    sorts = dict(universals)
    items = []
    for sx in parse_sexprs(text):
        if isinstance(sx, SList):
            inner = sx.items
            if inner and isinstance(inner[0], Symbol) and inner[0].name == "model":
                inner = inner[1:]
            items.extend(inner)
    for sx in items:
        if not (
            isinstance(sx, SList)
            and len(sx.items) == 5
            and isinstance(sx.items[0], Symbol)
            and sx.items[0].name == "define-fun"
            and isinstance(sx.items[1], Symbol)
        ):
            continue
        name = sx.items[1].name
        if name in sorts:
            point[name] = _model_value(sx.items[4])
    for n, s in universals:
        point.setdefault(n, default_value(s))
    return point


def external_check(problem, solution, cfg=None) -> Verdict:
    """Ask the configured SMT solver; Valid on unsat, Counterexample on a
    model that re-checks, Unknown otherwise."""
    cfg = cfg or VerifyConfig()
    if not cfg.smt_cmd:
        return Unknown("no external solver configured")
    argv = cfg.smt_cmd if isinstance(cfg.smt_cmd, (list, tuple)) else shlex.split(cfg.smt_cmd)
    script = build_smt_script(problem, solution)
    try:
        proc = subprocess.run(
            list(argv),
            input=script,
            capture_output=True,
            text=True,
            timeout=cfg.smt_timeout,
        )
    except subprocess.TimeoutExpired:
        return Unknown("timeout")
    except (OSError, FileNotFoundError) as e:
        return Unknown(f"io: {e}")
    answer = None
    rest_lines = []
    for line in proc.stdout.splitlines():
        stripped = line.strip()
        if answer is None and stripped in ("sat", "unsat", "unknown"):
            answer = stripped
            continue
        if answer is not None:
            rest_lines.append(line)
    if answer == "unsat":
        return Valid()
    if answer != "sat":
        return Unknown(f"solver answered {answer!r}")
    try:
        point = parse_model("\n".join(rest_lines), problem.universals)
    except Exception as e:
        return Unknown(f"unparsable model: {e}")
    if eval_constraints(problem, solution, point):
        return Unknown("model does not falsify after re-check")
    return Counterexample(point)
