"""SyGuS-IF v1 reader and writer.

Reads `.sl` text into a `Problem`, resolving default grammars for the
conditional-arithmetic and invariant tracks and desugaring
`inv-constraint` into the three verification conditions.  The writer
produces text that parses back to a structurally identical problem.
"""

from __future__ import annotations

from .core import (
    Apply,
    ArityError,
    BOOL,
    Grammar,
    Hole,
    INT,
    InvariantSpec,
    Let,
    Lit,
    Macro,
    Problem,
    SignatureTable,
    Sort,
    SortError,
    STRING,
    SygusError,
    SynthTarget,
    Term,
    Var,
    mk_apply,
    sorts_text,
    subst,
)
from .sexpr import (
    BinTok,
    HexTok,
    IntTok,
    LexError,
    ParseError,
    SList,
    StrTok,
    Symbol,
    parse_sexprs,
    to_text,
)

__all__ = [
    "parse",
    "parse_file",
    "default_grammar",
    "desugar_invariant",
    "emit_term",
    "emit_define_fun",
    "emit_problem",
    "LexError",
    "ParseError",
    "UnsupportedLogic",
    "UnsupportedDefaultGrammar",
    "DesugarError",
]


class UnsupportedLogic(SygusError):
    pass


class UnsupportedDefaultGrammar(SygusError):
    pass


class DesugarError(SygusError):
    pass


# ---------------------------------------------------------------------------
# Sorts and terms from s-expressions


def _parse_sort(sx):
    if isinstance(sx, Symbol):
        if sx.name == "Int":
            return INT
        if sx.name == "Bool":
            return BOOL
        if sx.name == "String":
            return STRING
        raise ParseError(f"unknown sort {sx.name!r}")
    if isinstance(sx, SList):
        items = sx.items
        if items and isinstance(items[0], Symbol) and items[0].name == "_":
            items = items[1:]
        if (
            len(items) == 2
            and isinstance(items[0], Symbol)
            and items[0].name == "BitVec"
            and isinstance(items[1], IntTok)
        ):
            return Sort("BitVec", items[1].value)
    raise ParseError(f"malformed sort {to_text(sx)}")


def _parse_params(sx):
    if not isinstance(sx, SList):
        raise ParseError("expected a parameter list")
    params = {}
    for p in sx.items:
        if not (isinstance(p, SList) and len(p.items) == 2 and isinstance(p.items[0], Symbol)):
            raise ParseError(f"malformed parameter {to_text(p)}")
        name = p.items[0]
        if name.name in params:
            raise ParseError(f"duplicate parameter {name.name!r} at {name.pos[0]}:{name.pos[1]}")
        params[name.name] = _parse_sort(p.items[1])
    return tuple(params.items())


def _parse_term(sx, scope, table, nts=None):
    """Parse a term from a token or SList; symbols in `nts` become grammar holes."""
    if isinstance(sx, IntTok):
        return Lit(sx.value, INT)
    if isinstance(sx, StrTok):
        return Lit(sx.value, STRING)
    if isinstance(sx, HexTok):
        return Lit(sx.value, Sort("BitVec", 4 * sx.digits))
    if isinstance(sx, BinTok):
        return Lit(sx.value, Sort("BitVec", sx.digits))
    if isinstance(sx, Symbol):
        name = sx.name
        if nts and name in nts:
            return Hole(name, nts[name])
        if name in scope:
            return Var(name, scope[name])
        if name == "true":
            return Lit(True, BOOL)
        if name == "false":
            return Lit(False, BOOL)
        raise ParseError(f"unbound symbol {name!r} at {sx.pos[0]}:{sx.pos[1]}")
    if not sx.items or not isinstance(sx.items[0], Symbol):
        raise ParseError(f"malformed term {to_text(sx)}")
    head = sx.items[0].name
    if head == "let":
        if len(sx.items) != 3 or not isinstance(sx.items[1], SList):
            raise ParseError(f"malformed let {to_text(sx)}")
        bindings = []
        for b in sx.items[1].items:
            if not (isinstance(b, SList) and len(b.items) == 2 and isinstance(b.items[0], Symbol)):
                raise ParseError(f"malformed let binding {to_text(b)}")
            bindings.append((b.items[0].name, _parse_term(b.items[1], scope, table, nts)))
        inner = dict(scope)
        for n, e in bindings:
            inner[n] = e.sort
        body = _parse_term(sx.items[2], inner, table, nts)
        return Let(tuple(bindings), body, body.sort)
    args = [_parse_term(a, scope, table, nts) for a in sx.items[1:]]
    if not table.known(head):
        raise ParseError(f"unknown operator {head!r} at {sx.pos[0]}:{sx.pos[1]}")
    try:
        return mk_apply(table, head, args)
    except (ArityError, SortError) as e:
        raise type(e)(f"{e} at {sx.pos[0]}:{sx.pos[1]}") from None


# ---------------------------------------------------------------------------
# Default grammar (conditional linear integer arithmetic)


def default_grammar(logic, params, ret):
    """Grammar closed under the full conditional-LIA term language."""
    if logic != "LIA":
        raise UnsupportedDefaultGrammar(f"no default grammar for logic {logic!r}")
    if ret not in (INT, BOOL):
        raise UnsupportedDefaultGrammar(f"no default grammar at sort {ret}")
    int_nt, bool_nt = "IntNT", "BoolNT"
    ih = Hole(int_nt, INT)
    bh = Hole(bool_nt, BOOL)
    int_prods = [Var(n, INT) for n, s in params if s == INT]
    int_prods += [
        Lit(0, INT),
        Lit(1, INT),
        Apply("+", (ih, ih), INT),
        Apply("-", (ih, ih), INT),
        Apply("ite", (bh, ih, ih), INT),
    ]
    bool_prods = [Var(n, BOOL) for n, s in params if s == BOOL]
    bool_prods += [
        Apply("and", (bh, bh), BOOL),
        Apply("or", (bh, bh), BOOL),
        Apply("not", (bh,), BOOL),
        Apply("=", (ih, ih), BOOL),
        Apply("<", (ih, ih), BOOL),
        Apply("<=", (ih, ih), BOOL),
        Apply(">", (ih, ih), BOOL),
        Apply(">=", (ih, ih), BOOL),
    ]
    start = int_nt if ret == INT else bool_nt
    order = [(int_nt, INT), (bool_nt, BOOL)] if ret == INT else [(bool_nt, BOOL), (int_nt, INT)]
    prods = {int_nt: tuple(int_prods), bool_nt: tuple(bool_prods)}
    return Grammar(
        nonterminals=tuple(order),
        start=start,
        productions=tuple((n, prods[n]) for n, _ in order),
    )


# ---------------------------------------------------------------------------
# Invariant desugaring


def desugar_invariant(spec: InvariantSpec, problem: Problem) -> Problem:
    """Append the three verification conditions implied by `inv-constraint`.
    Pre and post take the state sorts, trans the state sorts twice (the
    state, then its primed twin), and each returns Bool."""
    macros = {m.name: m for m in problem.macros}
    for role, name in (("pre", spec.pre_name), ("trans", spec.trans_name), ("post", spec.post_name)):
        if name not in macros:
            raise DesugarError(f"{role} macro {name!r} is not defined")
    state = [s for _, s in spec.state_vars]
    for name, want, arity in ((spec.pre_name, state, "|state vars|"), (spec.trans_name, state + state, "2*|state vars|"),
                              (spec.post_name, state, "|state vars|")):
        m = macros[name]
        if len(m.params) != len(want):
            raise DesugarError(f"{name!r} arity != {arity}")
        if [s for _, s in m.params] != want or m.ret != BOOL:
            raise DesugarError(f"{name!r} differs from the invariant's sorts {sorts_text(want)} Bool")
    universal_sorts = dict(problem.universals)
    plain = []
    primed = []
    for name, sort in spec.state_vars:
        pname = name + "!"
        if universal_sorts.get(name) != sort or universal_sorts.get(pname) != sort:
            raise DesugarError(f"state variable {name!r} lacks a declared primed twin")
        plain.append(Var(name, sort))
        primed.append(Var(pname, sort))

    def app(fn, args):
        return Apply(fn, tuple(args), BOOL)

    def implies(a, b):
        return Apply("=>", (a, b), BOOL)

    vc1 = implies(app(spec.pre_name, plain), app(spec.inv_name, plain))
    vc2 = implies(
        Apply("and", (app(spec.inv_name, plain), app(spec.trans_name, plain + primed)), BOOL),
        app(spec.inv_name, primed),
    )
    vc3 = implies(app(spec.inv_name, plain), app(spec.post_name, plain))
    return Problem(
        logic=problem.logic,
        universals=problem.universals,
        macros=problem.macros,
        targets=problem.targets,
        constraints=problem.constraints + (vc1, vc2, vc3),
        invariant_spec=spec,
    )


# ---------------------------------------------------------------------------
# Reading problems


def _parse_grammar(sx, params, table):
    if not isinstance(sx, SList) or not sx.items:
        raise ParseError(f"malformed grammar {to_text(sx)}")
    groups = []
    for g in sx.items:
        if not (
            isinstance(g, SList)
            and len(g.items) == 3
            and isinstance(g.items[0], Symbol)
            and isinstance(g.items[2], SList)
        ):
            raise ParseError(f"malformed grammar group {to_text(g)}")
        groups.append((g.items[0].name, _parse_sort(g.items[1]), g.items[2].items))
    nts = {name: sort for name, sort, _ in groups}
    if len(nts) != len(groups):
        raise ParseError("duplicate nonterminal in grammar")
    scope = dict(params)
    productions = []
    for name, sort, prod_sxs in groups:
        templates = tuple(_parse_term(p, scope, table, nts) for p in prod_sxs)
        for p, t in zip(prod_sxs, templates):
            if t.sort != sort:
                raise SortError(f"production {to_text(p)} of {name!r} at {p.pos[0]}:{p.pos[1]} "
                                   f"has sort {t.sort}, expected {sort}")
        productions.append((name, templates))
    return Grammar(
        nonterminals=tuple((name, sort) for name, sort, _ in groups),
        start=groups[0][0],
        productions=tuple(productions),
    )


def _define_fun(sx, table, what) -> Macro:
    """The Macro of a `(define-fun name params sort body)` form whose body
    is read over `table`; `what` names the form in a sort error."""
    rest = sx.items[1:]
    if len(rest) != 4 or not isinstance(rest[0], Symbol):
        raise ParseError(f"malformed define-fun {to_text(sx)}")
    name = rest[0].name
    params = _parse_params(rest[1])
    ret = _parse_sort(rest[2])
    body = _parse_term(rest[3], dict(params), table)
    if body.sort != ret:
        raise SortError(f"{what} {name!r} body has sort {body.sort}, declared {ret}")
    return Macro(name, params, ret, body)


def parse(text: str) -> Problem:
    """Parse SyGuS-IF text into a validated Problem."""
    logic = None
    table = None
    universals = []
    macros = []
    targets = []
    constraints = []
    inv_directive = None
    inv_params = {}
    declared = set()
    finished = False

    def declare(sym, suffix=""):
        """Refuse a name declared before, by any directive."""
        name = sym.name + suffix
        if name in declared:
            raise ParseError(f"{name!r} is declared twice at {sym.pos[0]}:{sym.pos[1]}")
        declared.add(name)

    for sx in parse_sexprs(text):
        if finished:
            raise ParseError("directives after (check-synth)")
        if not (isinstance(sx, SList) and sx.items and isinstance(sx.items[0], Symbol)):
            raise ParseError(f"malformed directive {to_text(sx)}")
        head = sx.items[0].name
        rest = sx.items[1:]
        if head == "set-logic":
            if logic is not None:
                raise ParseError("duplicate set-logic")
            if len(rest) != 1 or not isinstance(rest[0], Symbol):
                raise ParseError("malformed set-logic")
            logic = rest[0].name
            if logic not in ("LIA", "BV", "SLIA"):
                raise UnsupportedLogic(f"unsupported logic {logic!r}")
            table = SignatureTable(logic)
            continue
        if table is None:
            raise ParseError(f"({head} ...) before set-logic")
        if head == "define-fun":
            macro = _define_fun(sx, table, "define-fun")
            declare(rest[0])
            macros.append(macro)
            table.register(macro.name, [s for _, s in macro.params], macro.ret)
        elif head == "synth-fun":
            if len(rest) not in (3, 4) or not isinstance(rest[0], Symbol):
                raise ParseError(f"malformed synth-fun {to_text(sx)}")
            declare(rest[0])
            name = rest[0].name
            params = _parse_params(rest[1])
            ret = _parse_sort(rest[2])
            if len(rest) == 4:
                grammar = _parse_grammar(rest[3], params, table)
                if grammar.sort_of(grammar.start) != ret:
                    raise SortError(f"grammar start sort differs from return sort of {name!r}")
                is_default = False
            else:
                grammar = default_grammar(logic, params, ret)
                is_default = True
            targets.append(SynthTarget(name, params, ret, grammar, is_default))
            table.register(name, [s for _, s in params], ret)
        elif head == "synth-inv":
            if len(rest) != 2 or not isinstance(rest[0], Symbol):
                raise ParseError(f"malformed synth-inv {to_text(sx)}")
            declare(rest[0])
            name = rest[0].name
            params = _parse_params(rest[1])
            grammar = default_grammar(logic, params, BOOL)
            targets.append(SynthTarget(name, params, BOOL, grammar, True))
            table.register(name, [s for _, s in params], BOOL)
            inv_params[name] = params
        elif head == "declare-var":
            if len(rest) != 2 or not isinstance(rest[0], Symbol):
                raise ParseError(f"malformed declare-var {to_text(sx)}")
            declare(rest[0])
            universals.append((rest[0].name, _parse_sort(rest[1])))
        elif head == "declare-primed-var":
            if len(rest) != 2 or not isinstance(rest[0], Symbol):
                raise ParseError(f"malformed declare-primed-var {to_text(sx)}")
            declare(rest[0])
            declare(rest[0], "!")
            sort = _parse_sort(rest[1])
            universals.append((rest[0].name, sort))
            universals.append((rest[0].name + "!", sort))
        elif head == "constraint":
            if len(rest) != 1:
                raise ParseError(f"constraint takes exactly one term: {to_text(sx)}")
            term = _parse_term(rest[0], dict(universals), table)
            if term.sort != BOOL:
                raise SortError(f"constraint has sort {term.sort}, expected Bool")
            constraints.append(term)
        elif head == "inv-constraint":
            if len(rest) != 4 or not all(isinstance(r, Symbol) for r in rest):
                raise ParseError(f"malformed inv-constraint {to_text(sx)}")
            if inv_directive is not None:
                raise ParseError("duplicate inv-constraint")
            inv_directive = tuple(r.name for r in rest)
        elif head == "check-synth":
            if rest:
                raise ParseError("malformed check-synth")
            finished = True
        else:
            raise ParseError(f"unknown directive {head!r}")

    if not finished:
        raise ParseError("input does not end with (check-synth)")
    if not targets:
        raise ParseError("no synth-fun or synth-inv to synthesize")
    problem = Problem(
        logic=logic,
        universals=tuple(universals),
        macros=tuple(macros),
        targets=tuple(targets),
        constraints=tuple(constraints),
    )
    if inv_directive is not None:
        inv_name, pre, trans, post = inv_directive
        if inv_name not in inv_params:
            raise DesugarError(f"inv-constraint names unknown invariant {inv_name!r}")
        spec = InvariantSpec(inv_name, inv_params[inv_name], pre, trans, post)
        problem = desugar_invariant(spec, problem)
    return problem


def parse_file(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def parse_solution(text: str, problem: Problem) -> dict:
    """Read `(define-fun ...)` forms, as `parse` does, into a solution map
    name -> (param names, body) for `problem`'s targets.  A form naming no
    target is read and dropped, so it cannot redefine a macro.  A target's
    takes its sorts (else ArityError or SortError) and comes once (else
    ParseError); its parameters are renamed to the target's."""
    targets = {t.name: t for t in problem.targets}
    table = SignatureTable(problem.logic)
    for m in problem.macros:
        table.register(m.name, [s for _, s in m.params], m.ret)
    sols = {}
    for sx in parse_sexprs(text):
        if not (isinstance(sx, SList) and sx.items and sx.items[0] == Symbol("define-fun")):
            raise ParseError(f"expected define-fun, got {to_text(sx)}")
        fun = _define_fun(sx, table, "solution")
        target = targets.get(fun.name)
        if target is None:
            continue
        if fun.name in sols:
            raise ParseError(f"solution {fun.name!r} is defined twice")
        if len(fun.params) != len(target.params):
            raise ArityError(f"solution {fun.name!r} takes {len(fun.params)} arguments, the target {len(target.params)}")
        if ([s for _, s in fun.params], fun.ret) != ([s for _, s in target.params], target.ret):
            want = sorts_text(s for _, s in target.params)
            raise SortError(f"solution {fun.name!r} differs from the target's sorts {want} {target.ret}")
        renames = {n: Var(tn, s) for (n, _), (tn, s) in zip(fun.params, target.params) if n != tn}
        sols[fun.name] = ([n for n, _ in target.params], subst(fun.body, renames))
    return sols


# ---------------------------------------------------------------------------
# Writing terms and problems


def _sort_sx(sort: Sort):
    if sort.kind == "BitVec":
        return SList((Symbol("BitVec"), IntTok(sort.width)))
    return Symbol(sort.kind)


def _term_sx(t: Term):
    if isinstance(t, Var):
        return Symbol(t.name)
    if isinstance(t, Hole):
        return Symbol(t.nonterminal)
    if isinstance(t, Lit):
        if t.sort == INT:
            return IntTok(t.value)
        if t.sort == BOOL:
            return Symbol("true" if t.value else "false")
        if t.sort == STRING:
            return StrTok(t.value)
        width = t.sort.width
        return HexTok(t.value, width // 4) if width % 4 == 0 else BinTok(t.value, width)
    if isinstance(t, Apply):
        return SList((Symbol(t.op),) + tuple(_term_sx(a) for a in t.args))
    if isinstance(t, Let):
        bindings = SList(tuple(SList((Symbol(n), _term_sx(e))) for n, e in t.bindings))
        return SList((Symbol("let"), bindings, _term_sx(t.body)))
    raise TypeError(f"not a term: {t!r}")


def emit_term(t: Term) -> str:
    return to_text(_term_sx(t))


def _params_sx(params):
    return SList(tuple(SList((Symbol(n), _sort_sx(s))) for n, s in params))


def emit_define_fun(name, params, ret, body) -> str:
    sx = SList(
        (Symbol("define-fun"), Symbol(name), _params_sx(params), _sort_sx(ret), _term_sx(body))
    )
    return to_text(sx)


def _grammar_sx(g: Grammar):
    groups = []
    prods = dict(g.productions)
    for name, sort in g.nonterminals:
        groups.append(
            SList((Symbol(name), _sort_sx(sort), SList(tuple(_term_sx(p) for p in prods[name]))))
        )
    return SList(tuple(groups))


def emit_problem(p: Problem) -> str:
    """Render a problem back to SyGuS-IF; invariant problems are re-sugared."""
    lines = [f"(set-logic {p.logic})"]
    for m in p.macros:
        lines.append(emit_define_fun(m.name, m.params, m.ret, m.body))
    spec = p.invariant_spec
    for t in p.targets:
        if spec is not None and t.name == spec.inv_name:
            lines.append(to_text(SList((Symbol("synth-inv"), Symbol(t.name), _params_sx(t.params)))))
        elif t.is_default:
            lines.append(
                to_text(SList((Symbol("synth-fun"), Symbol(t.name), _params_sx(t.params), _sort_sx(t.ret))))
            )
        else:
            lines.append(
                to_text(
                    SList(
                        (
                            Symbol("synth-fun"),
                            Symbol(t.name),
                            _params_sx(t.params),
                            _sort_sx(t.ret),
                            _grammar_sx(t.grammar),
                        )
                    )
                )
            )
    if spec is not None:
        emitted = set()
        for name, sort in p.universals:
            base = name[:-1] if name.endswith("!") else name
            if base in emitted:
                continue
            emitted.add(base)
            lines.append(to_text(SList((Symbol("declare-primed-var"), Symbol(base), _sort_sx(sort)))))
        lines.append(
            to_text(
                SList(
                    (
                        Symbol("inv-constraint"),
                        Symbol(spec.inv_name),
                        Symbol(spec.pre_name),
                        Symbol(spec.trans_name),
                        Symbol(spec.post_name),
                    )
                )
            )
        )
    else:
        for name, sort in p.universals:
            lines.append(to_text(SList((Symbol("declare-var"), Symbol(name), _sort_sx(sort)))))
        for c in p.constraints:
            lines.append(to_text(SList((Symbol("constraint"), _term_sx(c)))))
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"
