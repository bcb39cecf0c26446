"""Synthesis engines.

Two strategies over the same enumeration machinery:

* `cegis_solve` — size-ordered grammar enumeration with
  observational-equivalence pruning proposes each candidate.
* `unify_solve` — cover small terms over the current point set, then
  stitch them with enumerated predicates; invariant problems use an
  ICE-style variant that learns a Boolean combination of enumerated
  atoms from positive, negative and implication examples.

`classify` decides once what kind each problem is, and `_run` picks the
search from it for both engines.  Plain CEGIS, unification and the ICE
variant share one counterexample-guided loop, `_cegis`: propose a
candidate, verify it, then learn from the counterexample or stall.  PBE
problems run it for one round, since their examples are the whole
specification.  PBE and every single-target round share one search,
`_cover_and_stitch`, which stitches only under unification; several
targets go through a product loop, `_consistent_candidate`.  Each round
checks a candidate with one `_point_check`: the constraints are compiled
once over the round's points, and each target application reads the
candidate's value from its bank vector.  A stitch joins terms by the
production `_conditional` picks by its meaning, whatever its name: a
body, macros expanded, that is an `ite` selecting on hole 0
(`_selector`, which pruning reads too).  Stitching and invariant
learning grow their trees with one greedy information-gain ID3,
`build_decision_tree`, over predicate pools from one builder,
`_predicate_pool`, selecting through `Enumerator.sides`.  Every id set,
from a round's point check to the tree, is one int with bit i set for
point or example i: the learner takes the covers and the selections
`Enumerator.sides` gives as they are, so a split is one `&` and a class
count one popcount.

Enumeration order is total and reproducible: by size, then production
index, then recursive argument order.  Each production is compiled once
per enumerator into one generated function (every alias shares one that
reads its source bank): it loops over its child banks, computes each
candidate's vector over every observation point inline from the
template, macros expanded (see `_VectorSource`: a BitVec vector is one
int with a lane per point, computed by whole-word operations; any other
is a tuple, one expression per point), counts it, reads the deadline
every DEADLINE_STRIDE candidates, and builds and banks a term only for a
vector pruning keeps.
Under pruning, no candidate is built whose vector pruning is certain to
drop, so only the candidates counted fall: a commutative `(op H H)`
production is built as half its product, since each `(op b a)` would
repeat the vector of an `(op a b)` built before it; a comparison
mirrored by an earlier production (`(> a b)` after `(< b a)`) is not
built; and an `(ite C Hi Hj)` whose condition reads only hole 0 skips
each hole-0 entry on which C picks the same branch at every point.

Every engine keeps one wallclock deadline, whose `_Deadline.check` is
the only read of the clock: the enumerator checks it before each size
and every DEADLINE_STRIDE candidates, and `_run` turns the
BudgetExceeded it raises into `Failure("budget-exhausted")`.  Nothing
cut short is ever read, so no other outcome depends on the clock.  A
search for one term that holds everywhere stops building a size for good
at the first it accepts, and returns that term.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass

from .core import (
    Apply,
    BOOL,
    BUILTINS,
    Grammar,
    Hole,
    INT,
    Let,
    Lit,
    Macro,
    STRING,
    Sort,
    SygusError,
    Term,
    Var,
    expand_macros,
    free_vars,
    rebuild,
    subst,
    template_holes,
    term_size,
    var_equations,
    walk,
)
from . import oracle
from .semantics import Evaluator, SourceEmitter, default_value, solution_interpretations


class ConflictingExamples(SygusError):
    pass


class BudgetExceeded(SygusError):
    pass


class _Deadline:
    """A run's wallclock budget, counted from construction."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def remaining(self):
        return self.end - time.monotonic()

    def check(self, where=""):
        """Raise BudgetExceeded, saying `where`, once the deadline is reached."""
        if self.remaining() <= 0:
            raise BudgetExceeded(f"deadline reached {where}".rstrip())


NO_DEADLINE = _Deadline(math.inf)

# The largest term a search enumerates and predicate a stitch or the ICE
# learner does, and the most counterexample points (ICE: rounds, one
# fewer) a CEGIS loop takes.
MAX_TERM_SIZE = 20
MAX_PRED_SIZE = 9
MAX_POINTS = 128


@dataclass
class Solution:
    funs: dict  # name -> Macro
    verdict: object = None
    points_used: int = 0

    def as_map(self):
        return {n: ([p for p, _ in f.params], f.body) for n, f in self.funs.items()}

    def emit(self):
        from .frontend import emit_define_fun

        return "\n".join(
            emit_define_fun(f.name, f.params, f.ret, f.body) for f in self.funs.values()
        )


@dataclass
class Failure:
    reason: str
    detail: str = ""


# ---------------------------------------------------------------------------
# Size-ordered enumeration with observational-equivalence pruning


def _compositions(total, k):
    """All k-tuples of positive ints summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _fill(tmpl, kids):
    """Instantiate a template, consuming `kids` in hole order."""
    if isinstance(tmpl, Hole):
        return next(kids)
    return rebuild(tmpl, lambda a: _fill(a, kids))


def _body(tmpl, macros):
    """`tmpl` with `macros` expanded and each hole a variable named by its
    position, which no SyGuS symbol (none starts with a digit) shadows."""
    holes = template_holes(tmpl)
    return expand_macros(_fill(tmpl, iter([Var(str(i), h.sort) for i, h in enumerate(holes)])), macros)


def _selector(body):
    """(C, i, j) when `body`, as `_body` gives it, is `(ite C Hi Hj)`: C
    reads hole 0 and no other variable and cannot raise (it is built from
    TOTAL_OPS and literals), and Hi and Hj are holes i and j; else None."""
    if not (isinstance(body, Apply) and body.op == "ite" and len(body.args) == 3):
        return None
    cond, *branches = body.args
    nodes = list(walk(cond))
    if (all(isinstance(n, Lit) or (isinstance(n, Var) and n.name == "0")
            or (isinstance(n, Apply) and (n.op, len(n.args)) in TOTAL_OPS) for n in nodes)
            and any(isinstance(n, Var) for n in nodes)
            and all(isinstance(b, Var) and b.name.isdecimal() for b in branches)):
        return cond, *(int(b.name) for b in branches)
    return None


def _term_source(em, tmpl, kids):
    """An expression that builds `tmpl` with its holes, in order, replaced
    by the terms the names `kids` hold; a hole-free subterm is bound once."""
    if isinstance(tmpl, Hole):
        return next(kids)
    if isinstance(tmpl, Apply) and template_holes(tmpl):
        args = "".join(_term_source(em, a, kids) + "," for a in tmpl.args)
        return f"{em.bind('Apply', Apply)}({tmpl.op!r}, ({args}), {em.bind(('sort', tmpl.sort), tmpl.sort)})"
    return em.bind(("term", tmpl), tmpl)


# A production's function looks at the deadline once per this many candidates.
DEADLINE_STRIDE = 1024
# Operators whose value does not change when their two arguments swap.
COMMUTATIVE = frozenset(op for op, row in BUILTINS.items() if row.commutative)
# Each comparison with the one whose value is the same with its two
# arguments swapped: (> a b) is (< b a).
MIRRORS = {op: row.mirror for op, row in BUILTINS.items() if row.mirror}
# (operator, arity) of the builtins whose generated code cannot raise on
# arguments of their sorts; see `_selector`.
TOTAL_OPS = frozenset((op, n) for op, row in BUILTINS.items() for n in row.total)


class _Lanes:
    """The layout of a packed BitVec vector: the values of `n` points,
    `width` bits each, in one int, point i in bits [width·i, width·(i+1)).
    A whole-word operation then acts on every point at once: SWAR, "SIMD
    within a register" (Warren, *Hacker's Delight*, 2nd ed., ch. 2)."""

    def __init__(self, width, n):
        self.width, self.n = width, n
        self.lane = (1 << width) - 1
        self.ones = ((1 << width * n) - 1) // self.lane  # bit 0 of every lane
        self.all = self.lane * self.ones
        self.high = self.ones << width - 1  # the top bit of every lane
        self.low = self.all ^ self.high  # every other bit

    def pack(self, values):
        return sum(v << self.width * i for i, v in enumerate(values))

    def unpack(self, word):
        return tuple(word >> self.width * i & self.lane for i in range(self.n))

    def zeros(self, x):
        """The word with the top bit of each lane of `x` that is 0: the low
        bits of a nonzero lane carry into its top bit, and no further."""
        return ((x & self.low) + self.low | x) & self.high ^ self.high

    def ids(self, top):
        """The id mask, bit i for point i, of a word that sets only top bits."""
        return top if self.width == 1 else int(format(top, f"0{self.width * self.n}b")[::self.width], 2)

    def select(self, bools):
        """The lane mask, every bit of lane i set where bools[i] holds."""
        return sum(self.lane << self.width * i for i, b in enumerate(bools) if b)


_lanes = functools.lru_cache(maxsize=None)(_Lanes)


class _VectorSource:
    """Source of the vectors of terms over `n` points.  A BitVec-sorted
    term's vector is one packed word (see `_Lanes`): a lanewise builtin
    (`bvand`, `bvor`, `bvxor`, `bvnot`) is its own source over words, a
    shift by a literal is a shift and a lane mask, `bvadd` adds the low
    bits of every lane and sets each top bit apart, and `ite` selects
    through a lane mask (`mask`).  Any other operator's values are
    computed point by point, each lane unpacked, and packed again.  A
    term of any other sort has the tuple of its values, one expression
    per point.

    `columns` maps each variable to the expression holding its vector
    and `sorts` to its sort.  A variable in `selections` is a Bool whose
    column is a lane mask, every bit of lane i set where it holds at
    point i; it is read only as an `ite`'s condition.  `unpacks()` gives
    each variable read point by point the line that unpacks its column
    into the locals `points` name, one per point."""

    def __init__(self, em, n, columns, sorts, selections=()):
        self.em, self.n, self.columns, self.sorts = em, n, columns, sorts
        self.selections = set(selections)
        self.points = [{v: em.fresh() for v in columns} for _ in range(n)]
        self.read = {}  # the variables read point by point, in order

    def vector(self, t):
        return self.word(t) if t.sort.kind == "BitVec" else f"({''.join(v + ',' for v in self.values(t))})"

    def values(self, t):
        """One expression per point for the value of `t` there."""
        self.read.update(dict.fromkeys(sorted(free_vars(t) & self.columns.keys())))
        return [self.em.expr(t, p) for p in self.points]

    def unpacks(self):
        lines = {}
        for v in self.read:
            col, sort = self.columns[v], self.sorts[v]
            if sort.kind == "BitVec":
                lanes = _lanes(sort.width, self.n)
                col = "".join(f"{col} >> {lanes.width * i} & {hex(lanes.lane)}," for i in range(self.n))
            lines[v] = f"{''.join(p[v] + ',' for p in self.points)} = {col}"
        return lines

    def _twice(self, src):
        """(first, again): `src` for its first use, binding a local when
        it is not a name or a literal, and what reads it again."""
        if src.isidentifier() or src.isalnum():
            return src, src
        name = self.em.fresh("_w")
        return f"({name} := {src})", name

    def word(self, t):
        """Source of the packed word of the BitVec-sorted `t`."""
        lanes = _lanes(t.sort.width, self.n)
        if isinstance(t, Var) and t.name in self.columns:
            return self.columns[t.name]
        if isinstance(t, Lit):
            return hex(t.value * lanes.ones)
        op, args = (t.op, t.args) if isinstance(t, Apply) else (None, ())
        if op == "ite" and len(args) == 3:
            then, (other, again) = self.word(args[1]), self._twice(self.word(args[2]))
            return f"({other} ^ ({then} ^ {again}) & {self.mask(args[0], lanes)})"
        row = BUILTINS.get(op)
        if row is not None and row.lanewise and len(args) in row.source:
            return f"({row.source[len(args)].format(*map(self.word, args), m=hex(lanes.all))})"
        if op in ("bvshl", "bvlshr") and len(args) == 2 and isinstance(args[1], Lit):
            amount = args[1].value
            if amount >= lanes.width:
                return f"({self.word(args[0])} & 0)"  # every bit shifted out
            kept = lanes.lane << amount & lanes.lane if op == "bvshl" else lanes.lane >> amount
            return f"({self.word(args[0])} {'<<' if op == 'bvshl' else '>>'} {amount} & {hex(kept * lanes.ones)})"
        if op == "bvadd" and len(args) == 2:
            (a, a2), (b, b2) = (self._twice(self.word(x)) for x in args)
            low, high = hex(lanes.low), hex(lanes.high)
            return f"(({a} & {low}) + ({b} & {low}) ^ ({a2} ^ {b2}) & {high})"
        values = self.values(t)
        return f"({' | '.join([values[0]] + [f'{v} << {lanes.width * i}' for i, v in enumerate(values) if i])})"

    def mask(self, cond, lanes):
        """Source of the lane mask at `lanes`' width where the Bool `cond` holds."""
        if isinstance(cond, Var) and cond.name in self.selections:
            return self.columns[cond.name]
        top = self.top(cond, lanes)
        if top is None:
            select = self.em.bind(("select", lanes.width, self.n), lanes.select)
            return f"{select}(({''.join(v + ',' for v in self.values(cond))}))"
        return self.spread(top, lanes)

    @staticmethod
    def spread(top, lanes):
        """Source of the lane mask of the word `top`, which sets top bits only."""
        return top if lanes.width == 1 else f"(({top}) >> {lanes.width - 1}) * {hex(lanes.lane)}"

    def top(self, cond, lanes):
        """Source of the word that sets the top bit of lane i where the Bool
        `cond` holds at point i, and no other bit; None unless `cond` is
        `=` of two BitVecs of `lanes`' width (see `_Lanes.zeros`) or its
        `not`."""
        if not isinstance(cond, Apply):
            return None
        if cond.op == "not" and len(cond.args) == 1:
            inner = self.top(cond.args[0], lanes)
            return None if inner is None else f"({inner} ^ {hex(lanes.high)})"
        if cond.op == "=" and len(cond.args) == 2 and all(a.sort == Sort("BitVec", lanes.width) for a in cond.args):
            x, again = self._twice(f"({self.word(cond.args[0])} ^ {self.word(cond.args[1])})")
            low, high = hex(lanes.low), hex(lanes.high)
            return f"((({x} & {low}) + {low} | {again}) & {high} ^ {high})"
        return None


class Enumerator:
    """Per-grammar term banks, one per (nonterminal, size).

    Every banked term carries its evaluation vector over `envs`: for a
    nonterminal of a BitVec sort, one int that packs the values of every
    point, point i's in bits [w·i, w·(i+1)) for the sort's width w (see
    `_Lanes`); for any other sort, the tuple of its values.  Packing is a
    bijection, so either form decides pruning alike.  With pruning on, at
    most one term per distinct vector is kept per nonterminal.  With no
    observation points the single default environment (Int 0, Bool
    false, BV 0, String "") still folds constants.  With pruning on,
    fixed at construction, no candidate is built whose vector pruning is
    certain to drop: a commutative `(op H H)` production pairs its child
    entries in one order only (see `_halves`), a comparison mirrored by
    an earlier production is not built at all (see `_mirrored`), and a
    one-sided `(ite C Hi Hj)` builds only the condition entries that
    select both ways (see `_one_sided`).  A `keep(nt, vec)` sees a skipped candidate's
    nonterminal and vector in the one it repeats, so the banks are those
    of the full product, and `constructed` counts what was built.

    With a `goal`, `(nt, goal(term, vec))`, a build tests each `nt`
    entry as it banks it and stops for good at the first that meets the
    goal, left in `hit`.  Building checks `deadline` (by default
    NO_DEADLINE, never reached) before a size and every DEADLINE_STRIDE
    candidates inside one.  A size a hit or the deadline stops is never
    finished: its banks are never read, and the next `ensure` past it
    raises.  `first` and `enumerate` read such a size only for its hit;
    `bank` always returns a complete one.

    Banked terms, vectors and entries form no reference cycles, so the
    cyclic collector is off while a size is built, and what the build
    allocated is frozen (`gc.freeze`) before it is turned back on: the
    collector never scans a bank, and reference counting still frees it.
    A solve or `generate_nuggets` unfreezes every object when it returns.
    """

    def __init__(self, grammar: Grammar, envs=None, interpretations=None, max_size=12, prune=True, keep=None,
                 deadline=NO_DEADLINE):
        self.grammar = grammar
        self.interpretations = dict(interpretations or {})
        self.max_size = max_size
        self.prune = prune
        self.keep = keep
        self.envs = list(envs) if envs else [self._default_env()]
        self._nts = [n for n, _ in grammar.nonterminals]
        self._prods = self._prepare()
        self._bank = {}
        self._sigs = {nt: {} for nt in self._nts}
        self._done = 0
        self.constructed = 0
        self.deadline = deadline
        self.goal = None  # (nt, goal(term, vec)): stop the build at its first hit
        self.hit = None  # the entry a build stopped at
        self._cut = False  # a build stopped short; its size is never finished

    def _default_env(self):
        env = {}
        for _, templates in self.grammar.productions:
            for tmpl in templates:
                for node in walk(tmpl):
                    if isinstance(node, Var):
                        env[node.name] = default_value(node.sort)
        return env

    def _prepare(self):
        """Each nonterminal's productions, in grammar order, each with its
        compiled function: every alias shares one that reads its source
        bank (see `_alias_source`); every other production has its own,
        which builds its candidates (see `_production_source`), and a
        one-sided one also a function that picks the condition entries
        it builds (see `_sides_source`); a leaf's takes no banks.  A
        mirrored production is left out."""
        em = SourceEmitter()
        prods, sources = {nt: [] for nt in self._nts}, {}
        for nt in self._nts:
            templates = self.grammar.prods(nt)
            for idx, tmpl in enumerate(templates):
                if any(isinstance(n, Let) for n in walk(tmpl)) or self._mirrored(tmpl, templates[:idx]):
                    continue  # neither let productions nor mirrored ones are enumerated
                halved, sides = self._halves(tmpl), None
                if isinstance(tmpl, Hole):
                    name = "_alias"
                    if name not in sources:
                        sources[name] = _alias_source(em, name)
                else:
                    name, body = em.fresh("_p"), _body(tmpl, self.interpretations)
                    cond = self._one_sided(nt, template_holes(tmpl), body)
                    if cond is not None:
                        sides = em.fresh("_s")
                        sources[sides] = self._sides_source(em, sides, cond, body.sort)
                        # hole 0's column now holds the condition's selection
                        body = Apply("ite", (Var("0", BOOL), *body.args[1:]), body.sort)
                    sources[name] = self._production_source(em, name, tmpl, body, halved, sides)
                prods[nt].append((idx, tmpl, name, halved, sides))
        fns = em.build("\n".join([*sources.values(), f"_fns = ({''.join(n + ',' for n in sources)})"]), "_fns")
        fns = dict(zip(sources, fns))
        return {nt: [_production(idx, tmpl, fns[name], halved, fns.get(sides)) for idx, tmpl, name, halved, sides in ps]
                for nt, ps in prods.items()}

    def _halves(self, tmpl):
        """Whether `tmpl` is built as half its product: a commutative `(op
        H H)`, `op` not shadowed by a macro, under pruning.  Then each
        `(op b a)` has the vector of an `(op a b)` built before it, so
        pruning would drop it; it is never built."""
        return (self.prune and isinstance(tmpl, Apply) and tmpl.op in COMMUTATIVE
                and tmpl.op not in self.interpretations and len(tmpl.args) == 2
                and all(isinstance(a, Hole) for a in tmpl.args)
                and tmpl.args[0].nonterminal == tmpl.args[1].nonterminal)

    def _mirrored(self, tmpl, earlier):
        """Whether `tmpl` is never built: a comparison `(op H1 H2)` that an
        earlier production `(mirror H2 H1)` of the same nonterminal
        mirrors, neither op shadowed by a macro, under pruning.  The
        earlier one builds every pair of the same banks at the same size,
        each with the vector of its mirror, so pruning would drop every
        candidate of `tmpl`."""
        if not (self.prune and isinstance(tmpl, Apply) and tmpl.op in MIRRORS):
            return False
        mirror = MIRRORS[tmpl.op]
        if tmpl.op in self.interpretations or mirror in self.interpretations:
            return False
        return (len(tmpl.args) == 2 and all(isinstance(a, Hole) for a in tmpl.args)
                and Apply(mirror, tmpl.args[::-1], tmpl.sort) in earlier)

    def _one_sided(self, nt, holes, body):
        """The condition C of a production for `nt` whose `body` is a
        selector `(ite C Hi Hj)` (see `_selector`) whose branches are later
        holes of `nt` itself; under pruning.  Else None.  Where C picks
        the same branch at every point, a candidate has that branch's
        vector, banked for `nt` already, so pruning would drop it: only
        the hole-0 entries that select both ways are built."""
        sel = _selector(body) if self.prune else None
        if sel is not None and all(i and holes[i].nonterminal == nt for i in sel[1:]):
            return sel[0]
        return None

    def sides(self, cond):
        """The compiled `_sides_source` function for `cond`."""
        em = SourceEmitter()
        return em.build(self._sides_source(em, "sides", cond), "sides")

    def _sides_source(self, em, name, cond, branches=None):
        """Source of `name(bank)`, the (term, selection) of each entry of
        `bank` that, as hole 0, makes `cond` true at some point and false
        at another.  The selection is the id mask, bit i set where `cond`
        holds at point i.  For a one-sided production whose branches have
        the sort `branches`, it is instead the lane mask of that width
        when they are BitVecs (see `_VectorSource`), and else the tuple of
        `cond`'s values.  Over a BitVec hole 0 as wide as what it selects,
        the test reads one word of top bits, and only an entry kept is
        widened."""
        vec, n = em.fresh(), len(self.envs)
        hole = next(v.sort for v in walk(cond) if isinstance(v, Var) and v.name == "0")
        code = _VectorSource(em, n, {"0": vec}, {"0": hole})
        lanes = _lanes(hole.width, n) if hole.kind == "BitVec" and branches in (None, hole) else None
        top = None if lanes is None else code.top(cond, lanes)
        if top is not None:
            test = [f"top = {top}", f"if top and top != {hex(lanes.high)}:"]
            sel = code.spread("top", lanes) if branches else f"{em.bind(('ids', lanes.width, n), lanes.ids)}(top)"
        else:
            test = [f"sel = ({''.join(v + ',' for v in code.values(cond))})", "if any(sel) and not all(sel):"]
            if branches is None:
                sel = f"{em.bind('mask', _mask)}(sel)"
            elif branches.kind == "BitVec":
                sel = f"{em.bind(('select', branches.width, n), _lanes(branches.width, n).select)}(sel)"
            else:
                sel = "sel"
        lines = [f"def {name}(bank):", "    out = []", f"    for term, {vec} in bank:"]
        lines += ["        " + line for line in [*code.unpacks().values(), *test]]
        return "\n".join(lines + [f"            out.append((term, {sel}))", "    return out"])

    def _column(self, name, sort):
        """The vector of the variable `name` over `envs`."""
        values = tuple(env[name] for env in self.envs)
        return _lanes(sort.width, len(values)).pack(values) if sort.kind == "BitVec" else values

    def _production_source(self, em, name, tmpl, body, halved, sides):
        """Source of the function `name(en, nt, s, *kid_banks)`, which
        builds the size-`s` candidates of `tmpl` for `nt` from one bank
        per hole, in `itertools.product` order.  When `halved` and given
        one bank for both holes, the inner loop starts at the outer entry's
        index, so that each pair is built in one order only.  With `sides`,
        the outer loop reads only the hole-0 entries that the function of
        that name picks, each with its selection in place of its vector.
        A candidate's vector over `envs` is computed inline from `body`,
        the template with its holes as variables named by position and
        its macros expanded (see `_VectorSource`).  Each candidate
        is counted in `en.constructed`, and every DEADLINE_STRIDE-th reads
        the deadline.  A term is built only for a vector pruning keeps (see
        `_admission`).  The function reads `en.goal` when it starts, tests
        each entry it banks against it, and returns at a hit (see
        `_goal_hit`)."""
        holes = template_holes(tmpl)
        banks, terms, vecs = ([em.fresh() for _ in holes] for _ in range(3))
        variables = dict((n.name, n.sort) for n in walk(tmpl) if isinstance(n, Var))
        columns = {str(i): v for i, v in enumerate(vecs)}
        columns.update((v, em.bind(("column", v), self._column(v, sort))) for v, sort in variables.items())
        sorts = {str(i): h.sort for i, h in enumerate(holes)} | variables
        selections = ()
        if sides:
            sorts["0"] = BOOL
            selections = ("0",) if body.sort.kind == "BitVec" else ()
        code = _VectorSource(em, len(self.envs), columns, sorts, selections)
        vector = code.vector(body)
        unpacks = code.unpacks()
        skip = "continue" if holes else "return"
        step = [
            f"vec = {vector}",
            "n += 1",
            f"if not n % {DEADLINE_STRIDE}: deadline.check(f'while building size {{s}}')",
        ]
        step += _admission(skip, _term_source(em, tmpl, iter(terms)), None if isinstance(tmpl, (Var, Lit)) else "")
        step += _goal_hit()
        lines = [f"def {name}(en, nt, s{''.join(', ' + b for b in banks)}):",
                 "    out, sigs, n = en._bank[nt, s], en._sigs[nt], en.constructed",
                 "    prune, keep, deadline, goal = en.prune, en.keep, en.deadline, en.goal"]
        lines += ["    " + unpacks[v] for v in variables if v in unpacks]
        loops = [f"for {t}, {v} in {b}:" for b, t, v in zip(banks, terms, vecs)]
        if sides:
            loops[0] = f"for {terms[0]}, {vecs[0]} in {sides}({banks[0]}):"
        if halved:
            lines.append(f"    diagonal = {banks[0]} is {banks[1]}")
            loops[0] = f"for k, ({terms[0]}, {vecs[0]}) in enumerate({banks[0]}):"
            loops[1] = (f"for {terms[1]}, {vecs[1]} in "
                        f"{em.bind('islice', itertools.islice)}({banks[1]}, k if diagonal else 0, None):")
        lines.append("    try:")
        for i, loop in enumerate(loops):
            lines.append(f"{'    ' * (2 + i)}{loop}")
            if str(i) in unpacks:
                lines.append(f"{'    ' * (3 + i)}{unpacks[str(i)]}")
        lines += ["    " * (2 + len(holes)) + line for line in step]
        return "\n".join(lines + ["    finally:", "        en.constructed = n"])

    def bank(self, nt, size):
        """Every entry of (nt, size), the size built in full."""
        self.ensure(size)
        return self._bank.get((nt, size), [])

    def first(self, goal):
        """The first start entry, by size and bank order, that meets
        `goal(term, vec)`, or None.  On an enumerator that has built
        nothing, builds one size at a time up to the first hit."""
        self.goal = (self.grammar.start, goal)
        try:
            for s in range(1, self.max_size + 1):
                self.ensure(s)
                if self._done < s:
                    return self.hit
            return None
        finally:
            self.goal = None

    def ensure(self, size):
        """Build every size up to `size`, or stop for good at the goal's
        first hit, left in `hit`."""
        while self._done < min(size, self.max_size):
            s = self._done + 1
            self.deadline.check(f"before size {s}")
            if self._cut:
                raise BudgetExceeded(f"size {s} was cut short and cannot be resumed")
            self._cut = True  # until the size is built in full
            collecting = gc.isenabled()
            gc.disable()  # the collector would only rescan the growing banks
            try:
                self._build_size(s)
            finally:
                if collecting:
                    gc.freeze()  # out of every later collection's reach, until `_run` unfreezes
                    gc.enable()
            if self.hit is not None:
                return
            self._done, self._cut = s, False

    def size_cost(self, s):
        """Candidates `_build_size(s)` constructs once every smaller size
        is built: for each production and each split of the size among
        its holes that it builds, the product of the child banks' lengths
        (1 for a hole-free one of size `s`), or m(m + 1)/2 where a halved
        production pairs one bank of m entries with itself.  A one-sided
        production counts only the hole-0 entries it picks, and a
        mirrored one is not built at all."""
        total = 0
        for nt in self._nts:
            for prod in self._prods[nt]:
                if prod[0] == "comp":
                    halved, sides = prod[6:]
                    for keys in _splits(prod, s):
                        lens = [len(self._bank.get(k, ())) for k in keys]
                        if sides is not None:
                            lens[0] = len(sides(self._bank.get(keys[0], ())))
                        total += lens[0] * (lens[0] + 1) // 2 if halved and keys[0] == keys[1] else math.prod(lens)
        return total

    def _build_size(self, s):
        """Build size `s`, or return at the goal's first hit."""
        for nt in self._nts:
            self._bank[(nt, s)] = []
        built = set()  # (nt, production index): leaves and compositions are built once
        read = {}  # (nt, production index) of an alias -> source entries read
        changed = True
        while changed:  # fixpoint for alias chains at equal size
            changed = False
            for nt in self._nts:
                out = self._bank[(nt, s)]
                for prod in self._prods[nt]:
                    kind, key = prod[0], (nt, prod[1])
                    before = len(out)
                    if kind == "alias":
                        src = self._bank.get((prod[2], s), [])
                        read[key] = prod[3](self, nt, s, src, read.get(key, 0))
                        if self.hit is not None:
                            return
                    elif key not in built:
                        built.add(key)
                        for keys in _splits(prod, s):
                            banks = [self._bank.get(k, []) for k in keys]
                            if all(banks):
                                prod[5](self, nt, s, *banks)
                                if self.hit is not None:
                                    return
                    changed = changed or len(out) > before

    def enumerate(self, nt=None):
        """Yield (term, vector) in nondecreasing size up to the size cap.
        The goal set when the first term is asked for applies only to the
        sizes this call builds, and is cleared before each yield, so a
        build made meanwhile (say, by `bank`) runs whole.  A size that
        stopped at the goal's hit yields only the hit, and ends the
        enumeration."""
        nt, goal = nt or self.grammar.start, self.goal
        for s in range(1, self.max_size + 1):
            self.goal = goal
            try:
                self.ensure(s)
            finally:
                self.goal = None
            if self._done < s:
                yield self.hit
                return
            yield from self._bank.get((nt, s), [])

    def max_finite_size(self):
        """Largest derivable term size if the grammar is acyclic, else None."""
        memo = {}
        visiting = set()

        def go(nt):
            if nt in memo:
                return memo[nt]
            if nt in visiting:
                return None  # recursive grammar: unbounded
            visiting.add(nt)
            sizes = []
            for prod in self._prods[nt]:
                if prod[0] == "alias":
                    sizes.append(go(prod[2]))
                else:
                    subs = [go(h) for h in prod[3]]
                    sizes.append(None if None in subs else prod[4] + sum(subs))
                if sizes[-1] is None:
                    break
            visiting.discard(nt)
            memo[nt] = None if None in sizes else max(sizes, default=None)
            return memo[nt]

        return go(self.grammar.start)


def _alias_source(em, name):
    """Source of the function `name(en, nt, s, src, pos)`, which admits
    the entries of the bank `src` from index `pos` on into (nt, s) as
    `_production_source`'s functions admit a candidate, returns at a
    goal hit as they do, and else returns the index it stopped at.  It
    counts nothing: `src`'s own build counted them."""
    leaves = em.bind("leaves", (Var, Lit))
    lines = [f"def {name}(en, nt, s, src, pos):",
             "    out, sigs = en._bank[nt, s], en._sigs[nt]",
             "    prune, keep, goal = en.prune, en.keep, en.goal",
             "    while pos < len(src):",
             "        term, vec = src[pos]",
             "        pos += 1"]
    lines += ["        " + line for line in _admission("continue", None, f"not isinstance(term, {leaves}) and ")]
    lines += ["        " + line for line in _goal_hit()]
    return "\n".join(lines + ["    return pos"])


def _admission(skip, build, keep_test):
    """Generated lines that admit the candidate `vec` for `nt`: `skip`
    when pruning has banked its vector already, or when `keep` refuses
    it, asked where `keep_test` (a condition prefix, "" for always) holds
    and never for None; else the term is made by the expression `build`,
    when given, its vector recorded and `entry` banked in `out`."""
    lines = ["if prune and vec in sigs:", f"    {skip}"]
    if keep_test is not None:
        lines += [f"if keep is not None and {keep_test}not keep(nt, vec):", f"    {skip}"]
    if build is not None:
        lines.append(f"term = {build}")
    return lines + ["if prune:", "    sigs[vec] = term", "entry = term, vec", "out.append(entry)"]


def _goal_hit():
    """Generated lines that stop a build at the banked `entry` when it
    meets `goal`, leaving the entry in `en.hit`."""
    return ["if goal is not None and nt == goal[0] and goal[1](term, vec):", "    en.hit = entry", "    return"]


def _production(idx, tmpl, fn, halved, sides):
    if isinstance(tmpl, Hole):
        return ("alias", idx, tmpl.nonterminal, fn)
    hole_nts = [h.nonterminal for h in template_holes(tmpl)]
    return ("comp", idx, tmpl, hole_nts, term_size(tmpl), fn, halved, sides)


def _splits(prod, s):
    """The bank keys, one (hole nonterminal, size) per hole, of each split
    of size `s` among the holes of the composite production `prod` that it
    builds: a halved one skips each split whose first size exceeds its
    second, the mirror of a split built before it."""
    _, _, _, hole_nts, fixed, _, halved, _ = prod
    for sizes in _compositions(s - fixed, len(hole_nts)):
        if not (halved and sizes[0] > sizes[1]):
            yield list(zip(hole_nts, sizes))


# ---------------------------------------------------------------------------
# PBE extraction and problem classes


@dataclass(frozen=True)
class PbeExample:
    inputs: tuple
    output: object


def extract_pbe_points(problem):
    """Input-output examples when every constraint is `(= (f lit...) lit)`.

    Returns a deduplicated example list, or None when the problem is not
    pure PBE.  Raises ConflictingExamples on inconsistent duplicates.
    """
    if len(problem.targets) != 1:
        return None
    target = problem.targets[0]
    seen = {}
    order = []
    for c in problem.constraints:
        if not (isinstance(c, Apply) and c.op == "=" and len(c.args) == 2):
            return None
        lhs, rhs = c.args
        if isinstance(rhs, Apply) and rhs.op == target.name:
            lhs, rhs = rhs, lhs
        if not (isinstance(lhs, Apply) and lhs.op == target.name and isinstance(rhs, Lit)):
            return None
        if not all(isinstance(a, Lit) for a in lhs.args):
            return None
        inputs = tuple(a.value for a in lhs.args)
        if inputs in seen:
            if seen[inputs] != rhs.value:
                raise ConflictingExamples(
                    f"inputs {inputs!r} mapped to both {seen[inputs]!r} and {rhs.value!r}"
                )
            continue
        seen[inputs] = rhs.value
        order.append(PbeExample(inputs, rhs.value))
    return order


@dataclass(frozen=True)
class ProblemClass:
    """`kind` is "invariant", "pbe" (with its `examples`), "conditional" or
    "plain"; `cond` is a single target's `_conditional`.  Examples in
    `conflict` leave the problem classed by its grammar."""

    kind: str
    examples: list = None
    cond: tuple = None
    conflict: str = None


def classify(problem):
    """The one place that decides what kind of problem `problem` is."""
    if problem.invariant_spec is not None:
        return ProblemClass("invariant")
    cond = _conditional(problem.targets[0].grammar, problem.macro_map()) if len(problem.targets) == 1 else None
    try:
        examples, conflict = extract_pbe_points(problem), None
    except ConflictingExamples as e:
        examples, conflict = None, str(e)
    kind = "pbe" if examples is not None else "plain" if cond is None else "conditional"
    return ProblemClass(kind, examples, cond, conflict)


# ---------------------------------------------------------------------------
# Candidate search helpers


def _point_check(problem, points, envs):
    """check(entries): the mask, bit i for point i, of the `points` where
    every constraint holds with target i as entries[i] = (term, vec),
    `vec` being the term's vector over envs[i], packed for a BitVec
    target (see `_Lanes`).  The constraints are compiled once, into one
    function over the points' columns.  An application reads its value
    from `vec` by argument tuple; only a tuple outside envs[i] (a nested
    application, or a stitched term passed with vec = None) compiles
    `term`."""
    targets, ev = problem.targets, Evaluator(problem.macro_map())
    em = SourceEmitter(problem.macro_map(), {t.name: f"_t{i}" for i, t in enumerate(targets)})
    local = {n: em.fresh() for n, _ in problem.universals}
    # everything that varies from round to round is bound, so the source repeats
    columns = [em.bind("bits", tuple(1 << i for i in range(len(points))))]
    columns += [em.bind(("column", n), tuple(p[n] for p in points)) for n in local]
    holds = " and ".join(em.expr(c, local) for c in problem.constraints) or "True"
    run = em.build(f"def run():\n    return sum([_b for _b, {''.join(v + ',' for v in local.values())} in "
                   f"zip({', '.join(columns)}) if {holds}])", "run")
    rows = [[tuple(env[n] for n, _ in t.params) for env in e] for t, e in zip(targets, envs)]
    values = [_lanes(t.ret.width, len(e)).unpack if t.ret.kind == "BitVec" else tuple for t, e in zip(targets, envs)]

    def bind(target, table, term):
        def call(*args):
            if args not in table:
                table[args] = ev.eval(term, dict(zip([n for n, _ in target.params], args)))
            return table[args]

        return call

    def check(entries):
        for i, (term, vec) in enumerate(entries):
            table = {} if vec is None else dict(zip(rows[i], values[i](vec)))
            em.namespace[f"_t{i}"] = bind(targets[i], table, term)
        return run()

    return check


def _applications(problem, target):
    """The distinct applications of `target` in the constraints, macros
    expanded and lets inlined, in order of appearance."""
    macro_map = problem.macro_map()
    return list(dict.fromkeys(
        t for c in problem.constraints for t in walk(_inline_lets(expand_macros(c, macro_map)))
        if isinstance(t, Apply) and t.op == target.name
    ))


def _inline_lets(t):
    if isinstance(t, Let):
        return _inline_lets(subst(t.body, dict(t.bindings)))
    return rebuild(t, _inline_lets)


def collect_envs(problem, target, points):
    """Parameter environments for `target` induced by the points.

    Each application of the target whose arguments mention no synthesis
    target is evaluated at every point; the resulting argument tuples
    become observation environments.  With one application, environment
    i belongs to point i, repeats included; with more, repeated tuples
    are dropped.
    """
    names = problem.target_names()
    apps = [
        t.args for t in _applications(problem, target)
        if not any(isinstance(n, Apply) and n.op in names for a in t.args for n in walk(a))
    ]
    if not points or not apps:
        return []
    ev = Evaluator(problem.macro_map())
    rows = [tuple(ev.eval(a, p) for a in args) for p in points for args in apps]
    if len(apps) > 1:
        rows = list(dict.fromkeys(rows))
    param_names = [n for n, _ in target.params]
    return [dict(zip(param_names, vals)) for vals in rows]


def _enum_for(problem, target, envs, deadline):
    return Enumerator(target.grammar, envs, problem.macro_map(), max_size=MAX_TERM_SIZE, deadline=deadline)


def _exhaust_reason(en):
    finite = en.max_finite_size()
    if finite is not None and finite <= en.max_size:
        return Failure("grammar-exhausted")
    return Failure("budget-exhausted", "size cap reached")


# ---------------------------------------------------------------------------
# CEGIS


def _defined_funs(targets, bodies):
    """{name: Macro} for `targets`, given {name: body}."""
    return {t.name: Macro(t.name, t.params, t.ret, bodies[t.name]) for t in targets}


def _cegis(problem, targets, propose, learn, used, rounds, deadline, smt_cmd):
    """The counterexample-guided loop that every engine runs.

    Each round `propose()` returns a Failure, {name: body}, or a single
    target's body; the oracle checks the candidate, and `learn(point,
    sol_map)` takes its counterexample, returning a Failure to stop.  At
    most `rounds` candidates are proposed.  A verified (or unrefuted)
    candidate becomes a Solution using `used()` points.
    """
    for _ in range(rounds):
        deadline.check()
        cand = propose()
        if isinstance(cand, Failure):
            return cand
        if isinstance(cand, Term):
            cand = {targets[0].name: cand}
        sol = Solution(_defined_funs(targets, cand))
        sol_map = sol.as_map()
        verdict = oracle.verify(problem, sol_map, smt_cmd)
        if verdict.kind != "counterexample":
            sol.verdict, sol.points_used = verdict, used()
            return sol
        stop = learn(verdict.point, sol_map)
        if stop is not None:
            return stop
    return Failure("budget-exhausted", "round cap reached")


def _point_cegis(problem, targets, propose, deadline, smt_cmd):
    """`_cegis` over the counterexample points themselves: `propose(points)`
    sees every point so far, and a repeated point stalls the loop."""
    points = []

    def learn(point, _sol_map):
        if point in points:
            return Failure("oracle-stall", "repeated counterexample")
        points.append(point)

    return _cegis(
        problem, targets, lambda: propose(points), learn, lambda: len(points),
        MAX_POINTS + 1, deadline, smt_cmd,
    )


def _run(problem, wallclock, smt_cmd, unify):
    """Solve `problem` by its class within `wallclock` seconds, with ICE
    and stitching only if `unify`, verifying with `smt_cmd` (an argv list
    or None); BudgetExceeded becomes a Failure."""
    deadline = _Deadline(wallclock)
    pclass = classify(problem)
    if pclass.conflict is not None:
        return Failure("conflicting-examples", pclass.conflict)
    cond = pclass.cond if unify else None
    targets = problem.targets
    try:
        if unify and pclass.kind == "invariant":
            return _ice_solve(problem, deadline, smt_cmd)
        if pclass.kind == "pbe":
            return _solve_pbe(problem, pclass.examples, cond, deadline, smt_cmd)
        if unify and pclass.kind != "conditional":
            many = len(targets) != 1
            return Failure("no-conditional-production", "unification handles a single target" if many else "")
        if len(targets) == 1:
            propose = lambda points: _unify_candidate(problem, targets[0], points, cond, deadline)
        else:
            propose = lambda points: _consistent_candidate(problem, points, deadline)
        return _point_cegis(problem, targets, propose, deadline, smt_cmd)
    except BudgetExceeded as e:
        return Failure("budget-exhausted", str(e))
    finally:
        gc.unfreeze()  # what `Enumerator.ensure` froze


def cegis_solve(problem, wallclock=60.0, smt_cmd=None):
    """Enumerative CEGIS within `wallclock` seconds; returns Solution or Failure."""
    return _run(problem, wallclock, smt_cmd, unify=False)


def unify_solve(problem, wallclock=60.0, smt_cmd=None):
    """Enumeration + unification within `wallclock` seconds; returns Solution or Failure."""
    return _run(problem, wallclock, smt_cmd, unify=True)


def _consistent_candidate(problem, points, deadline):
    """Product enumeration of two or more targets' terms, ordered by
    combined size: the first tuple, scanning whole banks, that holds at
    every point."""
    targets = problem.targets
    envs = [collect_envs(problem, t, points) for t in targets]
    ens = [_enum_for(problem, t, e, deadline) for t, e in zip(targets, envs)]
    check, full = _point_check(problem, points, envs), (1 << len(points)) - 1
    n = len(targets)
    for total in range(n, MAX_TERM_SIZE * n + 1):
        for sizes in _compositions(total, n):
            # a size past the cap has an empty bank
            banks = [ens[i].bank(ens[i].grammar.start, sizes[i]) for i in range(n - 1)]
            if any(not b for b in banks):
                continue
            banks.append(ens[-1].bank(ens[-1].grammar.start, sizes[-1]))
            for entries in itertools.product(*banks):
                deadline.check()
                if check(entries) == full:
                    return {t.name: term for t, (term, _vec) in zip(targets, entries)}
    if all(_exhaust_reason(e).reason == "grammar-exhausted" for e in ens):
        return Failure("grammar-exhausted")
    return Failure("budget-exhausted", "size cap reached")


# ---------------------------------------------------------------------------
# Decision trees


@dataclass
class Leaf:
    term: Term


@dataclass
class Branch:
    pred: object  # the stitched term's hole 0, or an ICE atom
    then: object
    other: object


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(bits):
    """The int whose bit i is set where the bool `bits[i]` is True."""
    return int(bytes(bits)[::-1].translate(_DIGITS) or b"0", 2)


def _entropy(counts, total):
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def build_decision_tree(ids, covers, preds, depth=None):
    """Greedy information-gain (ID3) tree over example ids.

    `ids` is an int mask, bit i set for id i, and `covers` a list of
    (payload, mask) that together hold every id.  An id's class is the
    first cover that holds it, and a node whose ids need no split is the
    Leaf of the first cover that holds them all.  `preds` is a list of
    (payload, mask), the mask setting bit i where the predicate holds on
    id i.  With a `depth`, no split is made that many levels down.  The
    first predicate of highest gain wins.  Returns Leaf/Branch, or None
    when no predicate makes progress.  A split is one `&` and a class
    count one popcount.
    """
    classes, taken = [], 0
    for _, c in covers:
        own = c & ids & ~taken
        if own:
            classes.append(own)
        taken |= c
    masks = []
    for payload, m in preds:
        m &= ids
        if m and m != ids:  # a predicate that splits no subset of ids is never chosen
            masks.append((payload, m))
    return _id3(ids, classes, covers, masks, depth)


def _id3(ids, classes, covers, preds, depth):
    """`build_decision_tree` over class masks and (payload, mask) predicates."""
    for payload, c in covers:
        if not ids & ~c:
            return Leaf(payload)
    if depth is not None and depth <= 0:
        return None
    n = ids.bit_count()
    counts = [(c & ids).bit_count() for c in classes]
    base = _entropy(counts, n)
    best = None
    best_gain = -1.0
    for payload, m in preds:
        yes = ids & m
        if not yes or yes == ids:
            continue
        n_yes = yes.bit_count()
        yes_counts = [(c & yes).bit_count() for c in classes]
        gain = base - (
            n_yes / n * _entropy(yes_counts, n_yes)
            + (n - n_yes) / n * _entropy([a - b for a, b in zip(counts, yes_counts)], n - n_yes)
        )
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (payload, yes)
    if best is None:
        return None
    payload, yes = best
    sub = None if depth is None else depth - 1
    then = _id3(yes, classes, covers, preds, sub)
    other = _id3(ids & ~yes, classes, covers, preds, sub)
    if then is None or other is None:
        return None
    return Branch(payload, then, other)


def _conditional(grammar, macros):
    """(tmpl, cond, then, other), the template of `grammar` a stitch joins
    with, whose body under `macros` is `(ite cond H<then> H<other>)` (see
    `_selector`) over two more holes, or one in a chain such as `qm`'s
    `(ite (< h0 0) h1 h0)`; or None.  The first, in grammar order, of the
    first rank: cond is hole 0; cond is computed from hole 0; a chain."""
    found = []
    for _, templates in grammar.productions:
        for tmpl in templates:
            sel = _selector(_body(tmpl, macros))
            if sel is not None and sel[1] != sel[2] and len(template_holes(tmpl)) == len({0, *sel[1:]}):
                found.append((tmpl, *sel))
    return min(found, key=lambda c: 2 if 0 in c[2:] else not isinstance(c[1], Var), default=None)


def _join(cond, h0, then, other):
    """`cond`'s template with `h0` at hole 0, `then` and `other` at its
    branch holes; in a chain, hole 0 holds `h0`."""
    tmpl, _, i, j = cond
    kids = {i: then, j: other, 0: h0}
    return _fill(tmpl, map(kids.get, range(len(kids))))


# ---------------------------------------------------------------------------
# Unification (enumeration + decision-tree learning)


def _string_keep(nonterminals, expected_outputs):
    """Pruning hook for string PBE: composite terms of a String
    nonterminal, `nonterminals` mapping each to its sort, must evaluate
    to a substring of the example output at every point."""

    def keep(nt, vec):
        if nonterminals[nt] != STRING:
            return True
        return all(isinstance(v, str) and v in out for v, out in zip(vec, expected_outputs))

    return keep


def _cover_and_stitch(en, n, covers, cond, check, goal=None):
    """Return the first enumerated term that `covers(term, vec)`, a mask
    with bit i for id i, says is right on all of ids 0..n-1.  With no
    conditional, that is the first hit of a goal-driven build (see
    `Enumerator.first`) on `goal`, when given, which tests a vector
    without computing its cover, and the Failure is `_exhaust_reason`.
    With the conditional production `cond` (see `_conditional`), terms
    with new covers (in a chain, with new selections: see
    `_stitch_chain`) are kept and stitched for each new one once together
    they cover every id; a stitched term is returned once it is in
    `en.grammar` and `check(term)` says it is right on every id, as a
    direct hit is.  Else the Failure is the last stitch's, if one was
    tried; `cover-stall` if the finite grammar ran out; else
    `_exhaust_reason`.  A `goal(term, vec)`, true only of a term right
    on every id, stops the size that `en.enumerate` builds at its first
    hit, which is then returned before any stitch over the entries ahead
    of it in that size."""
    all_ids = (1 << n) - 1
    if cond is None:

        def whole(term, vec):
            en.deadline.check()
            return covers(term, vec) == all_ids

        hit = en.first(goal or whole)
        return _exhaust_reason(en) if hit is None else hit[0]
    _, test, then, other = cond
    # a tree's predicate selects, and a chain's term is taken, where this holds
    sides = en.sides(test if other else Apply("not", (test,), BOOL))
    kept, seen, union, failure = [], set(), 0, None
    en.goal = None if goal is None else (en.grammar.start, goal)
    for term, vec in en.enumerate():
        en.deadline.check()
        cov = covers(term, vec)
        if cov == all_ids:
            return term
        if not cov:
            continue
        # a term that selects one way only is never a chain's inner link
        picked = sides([(term, vec)]) if 0 in (then, other) else ()
        key = (cov, picked[0][1] if picked else 0)
        if key in seen:
            continue
        seen.add(key)
        kept.append((term, *key))
        union |= cov
        if union != all_ids:
            continue
        stitched = _stitch(en, kept, all_ids, cond, sides)
        if isinstance(stitched, Failure):
            failure = stitched
        elif oracle.check_conformance(stitched, en.grammar).kind != "valid":
            failure = Failure("cover-stall", "stitched candidate is not in the grammar")
        elif check(stitched):
            return stitched
        else:
            failure = Failure("cover-stall", "stitched candidate fails a point")
    if failure is not None:
        return failure
    out = _exhaust_reason(en)
    return Failure("cover-stall") if out.reason == "grammar-exhausted" else out


def _solve_pbe(problem, examples, cond, deadline, smt_cmd):
    """Cover-and-stitch over the examples, with `cond` as the conditional
    production to stitch with; None enumerates only.  The term found is
    the one round of `_cegis`, verified with the caller's `smt_cmd`."""
    target = problem.targets[0]
    params = [n for n, _ in target.params]
    envs = [dict(zip(params, ex.inputs)) for ex in examples]
    expected = tuple(ex.output for ex in examples)
    keep = _string_keep(dict(target.grammar.nonterminals), [str(o) for o in expected]) if target.ret == STRING else None
    en = Enumerator(target.grammar, envs, problem.macro_map(), max_size=MAX_TERM_SIZE, keep=keep, deadline=deadline)
    ev = Evaluator(problem.macro_map())
    if target.ret.kind == "BitVec":
        lanes = _lanes(target.ret.width, len(envs))
        want = lanes.pack(expected)

        def covers(_term, vec):
            return lanes.ids(lanes.zeros(vec ^ want))
    else:
        want = expected

        def covers(_term, vec):
            return _mask(map(operator.eq, vec, expected))

    # no size is built past the first term that meets every example; with
    # none, the enumerator's one default point is no example to meet
    def propose():
        return _cover_and_stitch(en, len(examples), covers, cond,
                                 lambda term: tuple(map(ev.compile(term), envs)) == expected,
                                 (lambda _term, vec: vec == want) if examples else None)

    # the examples are the whole specification, so one round: a term that
    # meets them all has no counterexample to learn from
    stall = Failure("oracle-stall", "counterexample to a term that meets every example")
    return _cegis(problem, [target], propose, lambda _point, _sol_map: stall, lambda: len(examples), 1,
                  deadline, smt_cmd)


def _predicate_pool(en, nt, max_size, sides):
    """(term, id mask) for the `nt` terms up to `max_size`, in
    enumeration order, as `sides` (see `Enumerator.sides`) reads each
    chunk of a bank, dropping a selection seen before.

    Each size is read only once `en` has built it in full.  A size the
    deadline cuts raises BudgetExceeded, and so does the pass over the
    banks once `en.deadline` has passed, read before every
    DEADLINE_STRIDE entries: no tree is ever grown over a pool cut short.
    """
    pool, seen = [], set()
    for s in range(1, max_size + 1):
        bank = en.bank(nt, s)
        for start in range(0, len(bank), DEADLINE_STRIDE):
            en.deadline.check(f"while reading the size-{s} predicates")
            for term, sel in sides(bank[start:start + DEADLINE_STRIDE]):
                if sel not in seen:
                    seen.add(sel)
                    pool.append((term, sel))
    return pool


def _stitch(en, cover_terms, all_ids, cond, sides):
    """Join (term, cover mask, selection mask) triples that together cover
    the mask `all_ids` into one term by the conditional production
    `cond`: a chain, or a decision tree over the predicates of hole 0's
    nonterminal, as `sides` selects on them.  Returns a Term or a Failure."""
    tmpl, _, then, other = cond
    if 0 in (then, other):
        return _stitch_chain(cover_terms, all_ids, cond)
    preds = _predicate_pool(en, template_holes(tmpl)[0].nonterminal, min(MAX_PRED_SIZE, en.max_size), sides)
    tree = build_decision_tree(all_ids, [(t, c) for t, c, _ in cover_terms], preds)

    def join(node):
        return node.term if isinstance(node, Leaf) else _join(cond, node.pred, join(node.then), join(node.other))

    return Failure("predicate-exhausted") if tree is None else join(tree)


def _stitch_chain(cover_terms, ids, cond):
    """A chain of the production `cond`, each link a term t at hole 0 and
    the rest of the chain at its other branch: t is taken at the ids of
    its selection, where the condition on t's own vector picks hole 0.
    `ids` and each cover and selection are masks, bit i for id i."""
    for term, cover, _sel in cover_terms:
        if not ids & ~cover:
            return term
    for term, cover, sel in cover_terms:
        selected = sel & ids
        if not selected or selected == ids:
            continue
        if not selected & ~cover:
            rest = _stitch_chain(cover_terms, ids & ~selected, cond)
            if isinstance(rest, Term):
                return _join(cond, term, rest, rest)
    return Failure("predicate-exhausted")


def _unify_candidate(problem, target, points, cond, deadline):
    """One round of cover-and-stitch over the current point set."""
    envs = collect_envs(problem, target, points)
    en = _enum_for(problem, target, envs, deadline)
    # stitching reads environment i as point i: one application per point
    dropped = cond is not None and len(_applications(problem, target)) != 1
    check, full = _point_check(problem, points, [envs]), (1 << len(points)) - 1
    found = _cover_and_stitch(
        en, len(points), lambda term, vec: check([(term, vec)]), None if dropped else cond,
        lambda term: check([(term, None)]) == full,
    )
    if isinstance(found, Failure) and dropped:
        return Failure("cover-stall", "multiple target invocations per point")
    return found


# ---------------------------------------------------------------------------
# Invariant synthesis (ICE-style decision-tree learning)


def _ice_seed(problem, spec, state_names, seed):
    """Initial ICE examples from the specification alone.

    Any state satisfying the pre-condition must be inside the invariant;
    any state violating the post-condition must be outside.  Implication
    pairs come from executing the transition relation on sampled states,
    all through generated functions of the state values by position.
    The sample and the subsample of negatives are drawn from `seed`;
    `_ice_solve` passes `oracle.SEED`, the verifier's.
    """
    macro_map = problem.macro_map()
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

    # Successors: solve the transition equations for the primed variables.
    unprimed = set(trans_params[:n])
    primed = trans_params[n:]
    defs = {
        v: [e for e in es if free_vars(e) <= unprimed]
        for v, es in var_equations([trans_body], primed).items()
    }
    combos = []
    if all(defs.get(p) for p in primed):
        combos = list(itertools.product(*[defs[p][:3] for p in primed]))[:81]
    em = SourceEmitter(macro_map)

    def function(params, bodies):  # a lambda of `params` returning the tuple of `bodies`
        names = {p: em.fresh() for p in params}
        return f"lambda {', '.join(names.values())}: ({''.join(em.expr(b, names) + ',' for b in bodies)})"

    sources = [function(pre_params, [pre_body]), function(post_params, [post_body]),
               function(trans_params, [trans_body])]
    sources += [function(trans_params[:n], combo) for combo in combos]
    pre, post, trans, *successors = em.build(f"_fns = ({''.join(f + ',' for f in sources)})", "_fns")

    pos = {s for s in states if pre(*s)[0]}
    neg = {s for s in states if not post(*s)[0]}
    # Keep the learner's example set small; verification supplies any
    # point the subsample fails to pin down.
    if len(neg) > 120:
        neg = set(rng.sample(sorted(neg), 120))

    imps = set()
    for s in states:
        for successor in successors:
            try:
                succ = successor(*s)
            except Exception:
                continue
            if trans(*s, *succ)[0]:
                imps.add((s, succ))
        if len(imps) > 4000:
            break
    return pos, neg, imps


def _ice_solve(problem, deadline, smt_cmd):
    spec = problem.invariant_spec
    target = problem.target(spec.inv_name)
    state_names = [n for n, _ in spec.state_vars]
    vc_base = len(problem.constraints) - 3
    pos, neg, imps = _ice_seed(problem, spec, state_names, oracle.SEED)
    if _ice_closure(pos, neg, imps):
        return Failure("ice-conflict", "pre/trans/post admit no invariant")

    def learn(p, sol_map):
        ev = Evaluator(solution_interpretations(problem, sol_map))
        state = tuple(p[n] for n in state_names)
        state_p = tuple(p[n + "!"] for n in state_names)
        progressed = False
        for off, c in enumerate(problem.constraints[vc_base:]):
            if ev.eval(c, p):
                continue
            if off == 0:
                if state not in pos:
                    pos.add(state)
                    progressed = True
            elif off == 1:
                if (state, state_p) not in imps:
                    imps.add((state, state_p))
                    progressed = True
            else:
                if state not in neg:
                    neg.add(state)
                    progressed = True
        if not progressed:
            return Failure("oracle-stall", "counterexample added no new example")
        if _ice_closure(pos, neg, imps):
            return Failure("ice-conflict", "an example is forced both inside and outside")

    # One round fewer than point-based CEGIS: the cap counts rounds here.
    return _cegis(
        problem, [target],
        lambda: _ice_learn(target, state_names, pos, neg, imps, deadline),
        learn, lambda: len(pos) + len(neg) + len(imps), MAX_POINTS, deadline, smt_cmd,
    )


def _ice_closure(pos, neg, imps):
    """Propagate implication endpoints; True on pos/neg conflict."""
    changed = True
    while changed:
        changed = False
        for a, b in imps:
            if a in pos and b not in pos:
                pos.add(b)
                changed = True
            if b in neg and a not in neg:
                neg.add(a)
                changed = True
    return bool(pos & neg)


# The ICE learner's constant invariants, true and false.
_TRUE = Apply("=", (Lit(0, INT), Lit(0, INT)), BOOL)
_FALSE = Apply("<", (Lit(0, INT), Lit(0, INT)), BOOL)


def _ice_learn(target, state_names, pos, neg, imps, deadline):
    """Boolean-combination learner over enumerated atoms.

    Labeled states become a true/false decision tree; unlabeled
    implication endpoints are repaired optimistically (forcing the
    successor inside) and relearned.
    """
    if not pos and not neg:
        return _TRUE

    pos_w, neg_w = set(pos), set(neg)
    for _ in range(1 + min(len(imps), 40)):
        states = sorted(pos_w | neg_w)
        envs = [dict(zip(state_names, s)) for s in states]
        body = _ice_tree(target, states, envs, pos_w, deadline)
        if isinstance(body, Failure):
            return body
        inv = Evaluator().compile(body)
        holds = lambda s: bool(inv(dict(zip(state_names, s))))
        broken = [(a, b) for a, b in imps if holds(a) and not holds(b)]
        if not broken:
            return body
        for a, b in broken:
            if b not in neg_w:
                pos_w.add(b)
            else:
                neg_w.add(a)
        if pos_w & neg_w:
            return Failure("ice-conflict")
    return body


def _octagon_atoms(target, bool_nt, envs):
    """Curated comparison atoms over sums and differences of parameters.

    Linear invariants usually relate two variables or two pairwise sums;
    the grammar enumerator reaches such atoms only at size 7, long after
    small atoms have let the tree overfit.  Keeps the first atom per
    vector that the grammar's Bool nonterminal derives; one memo decides.
    """
    int_vars = [Var(n, s) for n, s in target.params if s == INT]
    columns = [tuple(env[v.name] for env in envs) for v in int_vars]
    terms = list(int_vars) + [Lit(0, INT), Lit(1, INT)]
    values = columns + [(0,) * len(envs), (1,) * len(envs)]
    for i, (u, cu) in enumerate(zip(int_vars, columns)):
        for v, cv in zip(int_vars[i:], columns[i:]):
            terms.append(Apply("+", (u, v), INT))
            values.append(tuple(map(operator.add, cu, cv)))
        for v, cv in zip(int_vars, columns):
            if u is not v:
                terms.append(Apply("-", (u, v), INT))
                values.append(tuple(map(operator.sub, cu, cv)))
    derivable = oracle.Derivable(target.grammar)
    asked = []  # every atom asked about outlives `derivable`, whose memo keys on id
    kept = {}  # vector -> its first derivable atom
    for op, cmp in (("=", operator.eq), ("<", operator.lt), ("<=", operator.le)):
        for a, va in zip(terms, values):
            for b, vb in zip(terms, values):
                if a == b:
                    continue
                vec = tuple(map(cmp, va, vb))
                if vec in kept or all(vec) or not any(vec):
                    continue
                asked.append(Apply(op, (a, b), BOOL))
                if derivable(bool_nt, asked[-1]):
                    kept[vec] = asked[-1]
    return [(t, v) for v, t in kept.items()]


def _ice_tree(target, states, envs, pos, deadline):
    grammar = target.grammar
    bool_nt = next((name for name, sort in grammar.nonterminals if sort == BOOL), None)
    if bool_nt is None:
        return Failure("no-conditional-production", "grammar has no Bool nonterminal")
    ids = (1 << len(states)) - 1
    inside = _mask([s in pos for s in states])
    covers = [(True, inside), (False, ids & ~inside)]
    curated = [(t, _mask(v)) for t, v in _octagon_atoms(target, bool_nt, envs)]
    max_stage = max(1, (MAX_PRED_SIZE - 1) // 2)
    en = None  # one enumerator for every stage, built when stage 1 needs it
    # Cheap atom pools first, and within a pool shallow trees first: a
    # depth-limited fit with richer atoms beats a deep overfit chain.
    for stage in range(0, max_stage + 1):
        preds = curated
        if stage:
            en = en or Enumerator(grammar, envs, max_size=2 * max_stage + 1, deadline=deadline)
            preds = curated + _predicate_pool(en, bool_nt, 2 * stage + 1, en.sides(Var("0", BOOL)))
        dedup = {}
        for t, v in preds:
            dedup.setdefault(v, t)
        preds = [(t, v) for v, t in dedup.items()]
        for depth in (3, 5, None):
            deadline.check()
            tree = build_decision_tree(ids, covers, preds, depth)
            if tree is not None:
                return _dt_to_bool(tree)
    return Failure("predicate-exhausted")


def _dt_to_bool(tree):
    """Flatten a true/false tree into and/or/not form (the CLIA Bool
    nonterminal has no ite)."""
    paths = []

    def go(node, conds):
        if isinstance(node, Leaf):
            if node.term is True:
                paths.append(list(conds))
            return
        go(node.then, conds + [(node.pred, True)])
        go(node.other, conds + [(node.pred, False)])

    go(tree, [])
    if not paths:
        return _FALSE
    disjuncts = []
    for conds in paths:
        if not conds:
            return _TRUE
        lits = [p if polarity else Apply("not", (p,), BOOL) for p, polarity in conds]
        disjuncts.append(functools.reduce(lambda a, b: Apply("and", (a, b), BOOL), lits))
    return functools.reduce(lambda a, b: Apply("or", (a, b), BOOL), disjuncts)


# ---------------------------------------------------------------------------
# Nugget generation


MAX_NUGGET_BANK = 500_000  # terms enumerated before generate_nuggets gives up


def generate_nuggets(grammar, k, input_sample, interpretations=None):
    """Size-k terms observationally distinct (on the sample) from every
    smaller term.  The equivalence check is sampling-based, so the result
    over-approximates true nuggets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    en = Enumerator(grammar, input_sample, interpretations, max_size=k, prune=False)
    try:
        for s in range(1, k + 1):
            # unpruned, every candidate is banked: refuse a size before building it
            if en.constructed + en.size_cost(s) > MAX_NUGGET_BANK:
                raise BudgetExceeded(f"more than {MAX_NUGGET_BANK} terms up to size {s}")
            en.ensure(s)
    finally:
        gc.unfreeze()  # what `Enumerator.ensure` froze
    seen = {vec for s in range(1, k) for _, vec in en.bank(grammar.start, s)}
    return [term for term, vec in en.bank(grammar.start, k) if vec not in seen]
