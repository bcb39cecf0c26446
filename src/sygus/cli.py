"""Command-line interface.

Verbs: solve, verify, bench, score, nuggets.  Exit codes: 0 solved/ok,
1 failure, 2 timeout, 3 input error (a bad flag or argument too).

`solve` and `bench` take the same engine flags and turn them into one
`harness.SuiteConfig`; `sygus solve` runs it through `harness.solve`,
the same call each benchmark of a batch run makes.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

from .core import Apply, BOOL, Lit, SygusError, Problem
from .engine import Failure, generate_nuggets
from .frontend import parse_file, parse_solution, emit_problem
from .harness import SuiteConfig, load_records, run_suite, score, solve
from .oracle import VerifyConfig, check_conformance, verify
from .semantics import Evaluator, default_value

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_TIMEOUT = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


class _InputError(Exception):
    """Outside input a verb cannot use; `main` prints it and exits 3."""


def _input(fn, *args):
    """`fn(*args)` on outside input, its OSError or SygusError an _InputError."""
    try:
        return fn(*args)
    except (OSError, SygusError) as e:
        raise _InputError(e) from e


def _seconds(text):
    """A wallclock budget: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds above 0, got {text!r}")
    return value


def _engine_flags(sp):
    sp.add_argument("--engine", choices=("cegis", "unif", "auto"), default="auto")
    sp.add_argument("--timeout", type=_seconds, default=60.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--smt-cmd", default=None, help="external SMT solver command")


def _suite_config(args, **extra):
    """The SuiteConfig of the engine flags `_engine_flags` adds."""
    return SuiteConfig(
        engine=args.engine,
        timeout=args.timeout,
        seed=args.seed,
        smt_cmd=args.smt_cmd,
        **extra,
    )


def _cmd_solve(args):
    problem = _input(parse_file, args.file)
    result = solve(problem, _suite_config(args))
    if isinstance(result, Failure):
        why = f"{result.reason} ({result.detail})" if result.detail else result.reason
        print(f"; no solution: {why}", file=sys.stderr)
        return EXIT_TIMEOUT if result.reason == "budget-exhausted" else EXIT_FAILURE
    print(result.emit())
    if result.verdict is not None and result.verdict.kind == "unknown":
        print(f"; verified: unknown ({result.verdict.reason})", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args):
    problem = _input(parse_file, args.file)
    with _input(open, args.solution) as fh:
        sols = _input(parse_solution, fh.read(), problem)
    for t in problem.targets:
        if t.name not in sols:
            raise _InputError(f"solution does not bind {t.name}")
    for t in problem.targets:
        v = check_conformance(sols[t.name][1], t.grammar)
        if v.kind != "valid":
            print(f"nonconformant: {t.name} at path {list(v.path)}")
            return EXIT_FAILURE
    vcfg = VerifyConfig(seed=args.seed, smt_cmd=args.smt_cmd)
    verdict = verify(problem, sols, vcfg)
    print(verdict.kind if not verdict.reason else f"{verdict.kind}: {verdict.reason}")
    if verdict.kind == "counterexample":
        print(f"point: {verdict.point}")
    return EXIT_OK if verdict.kind == "valid" else EXIT_FAILURE


def _cmd_bench(args):
    if not os.path.isdir(args.dir):
        raise _InputError(f"{args.dir} is not a directory")
    if args.workers < 1:
        raise _InputError(f"--workers must be at least 1, got {args.workers}")
    if args.records and os.path.exists(args.records):
        _input(load_records, args.records)
    # both outputs must be writable before the first benchmark runs
    if args.records:
        _input(open, args.records, "a").close()
    if args.solutions:
        _input(lambda: os.makedirs(args.solutions, exist_ok=True))
    cfg = _suite_config(args, workers=args.workers, records_path=args.records, solutions_dir=args.solutions)
    records = run_suite(args.dir, cfg)
    for r in records:
        size = "-" if r.size is None else str(r.size)
        print(f"{r.benchmark}\t{r.engine}\t{r.outcome}\t{r.wallclock:.2f}\t{size}")
    return EXIT_OK


def _cmd_score(args):
    report = _input(score, _input(load_records, args.records))
    print(report.to_json())
    return EXIT_OK


def _structured_inputs(sort, rng, count):
    if sort.kind == "BitVec":
        w = sort.width
        vals = [0, 1, (1 << w) - 1, 1 << (w // 2), (1 << (w // 2)) - 1]
        while len(vals) < count:
            vals.append(rng.getrandbits(w))
        return vals[:count]
    if sort.kind == "Int":
        vals = [0, 1, -1, 2, 7]
        while len(vals) < count:
            vals.append(rng.randint(-64, 64))
        return vals[:count]
    return [default_value(sort)] * count


def _cmd_nuggets(args):
    for flag, value, least in (("--k", args.k, 1), ("--examples", args.examples, 1), ("--count", args.count, 0)):
        if value < least:
            raise _InputError(f"{flag} must be at least {least}, got {value}")
    _input(lambda: os.makedirs(args.out, exist_ok=True))
    problem = _input(parse_file, args.grammar_file)
    target = problem.targets[0]
    rng = random.Random(args.seed)
    sample = []
    cols = {n: _structured_inputs(s, rng, args.examples) for n, s in target.params}
    for i in range(args.examples):
        sample.append({n: cols[n][i] for n, _ in target.params})
    try:
        nuggets = generate_nuggets(
            target.grammar, args.k, sample, problem.macro_map()
        )
    except SygusError as e:
        print(f"failure: {e}", file=sys.stderr)
        return EXIT_FAILURE
    rng.shuffle(nuggets)
    nuggets = nuggets[: args.count]
    ev = Evaluator(problem.macro_map())
    params = [n for n, _ in target.params]
    stem = os.path.splitext(os.path.basename(args.grammar_file))[0]
    for i, body in enumerate(nuggets):
        constraints = []
        fn = ev.compile(body)
        for env in sample:
            out_val = fn(env)
            call = Apply(
                target.name,
                tuple(Lit(env[n], s) for n, s in target.params),
                target.ret,
            )
            constraints.append(Apply("=", (call, Lit(out_val, target.ret)), BOOL))
        bench = Problem(
            logic=problem.logic,
            universals=(),
            macros=problem.macros,
            targets=(target,),
            constraints=tuple(constraints),
        )
        path = os.path.join(args.out, f"{stem}_nugget{args.k}_{i:03d}.sl")
        with open(path, "w") as fh:
            fh.write(emit_problem(bench))
        print(path)
    return EXIT_OK


def main(argv=None):
    ap = _Parser(prog="sygus", description="SyGuS synthesis toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="synthesize and print a solution")
    sp.add_argument("file")
    _engine_flags(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="check a solution file against a benchmark")
    sp.add_argument("file")
    sp.add_argument("solution")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--smt-cmd", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bench", help="run a benchmark directory")
    sp.add_argument("dir")
    _engine_flags(sp)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--records", default=None, help="JSONL record file (resumable)")
    sp.add_argument("--solutions", default=None, help="directory for solution files")
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("score", help="score a record file")
    sp.add_argument("records")
    sp.set_defaults(fn=_cmd_score)

    sp = sub.add_parser("nuggets", help="generate PBE benchmarks from minimal terms")
    sp.add_argument("grammar_file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--examples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="nuggets_out")
    sp.set_defaults(fn=_cmd_nuggets)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
