"""Command-line interface.

Verbs: solve, verify, bench, score, nuggets.  Exit codes: 0 solved/ok,
1 failure, 2 timeout, 3 input error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .core import Apply, BOOL, Lit, SygusError, Problem
from .engine import Budget, Failure, generate_nuggets
from .frontend import parse_file, parse_solution, emit_problem
from .harness import (
    SuiteConfig,
    load_records,
    run_suite,
    score,
    _pick_solver,
)
from .oracle import VerifyConfig, check_conformance, verify
from .semantics import Evaluator, default_value

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_TIMEOUT = 2
EXIT_INPUT = 3


def _engine_flags(sp):
    sp.add_argument("--engine", choices=("cegis", "unif", "auto"), default="auto")
    sp.add_argument("--timeout", type=float, default=60.0)
    sp.add_argument("--max-size", type=int, default=20)
    sp.add_argument("--max-pred-size", type=int, default=9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--smt-cmd", default=None, help="external SMT solver command")


def _cmd_solve(args):
    try:
        problem = parse_file(args.file)
    except (OSError, SygusError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    budget = Budget(
        wallclock=args.timeout,
        max_term_size=args.max_size,
        max_pred_size=args.max_pred_size,
        seed=args.seed,
    )
    vcfg = VerifyConfig(seed=args.seed, smt_cmd=args.smt_cmd)
    solver = _pick_solver(problem, args.engine)
    result = solver(problem, budget, vcfg)
    if isinstance(result, Failure):
        print(f"; no solution: {result.reason}", file=sys.stderr)
        return EXIT_TIMEOUT if result.reason == "budget-exhausted" else EXIT_FAILURE
    print(result.emit())
    if result.verdict is not None and result.verdict.kind == "unknown":
        print(f"; verified: unknown ({result.verdict.reason})", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args):
    try:
        problem = parse_file(args.file)
        with open(args.solution) as fh:
            sols = parse_solution(fh.read(), problem)
    except (OSError, SygusError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    for t in problem.targets:
        if t.name not in sols:
            print(f"input error: solution does not bind {t.name}", file=sys.stderr)
            return EXIT_INPUT
    for t in problem.targets:
        _, body = sols[t.name]
        v = check_conformance(body, t.grammar)
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
        print(f"input error: {args.dir} is not a directory", file=sys.stderr)
        return EXIT_INPUT
    cfg = SuiteConfig(
        engine=args.engine,
        timeout=args.timeout,
        workers=args.workers,
        max_size=args.max_size,
        max_pred_size=args.max_pred_size,
        seed=args.seed,
        smt_cmd=args.smt_cmd,
        records_path=args.records,
        solutions_dir=args.solutions,
    )
    records = run_suite(args.dir, cfg)
    for r in records:
        size = "-" if r.size is None else str(r.size)
        print(f"{r.benchmark}\t{r.engine}\t{r.outcome}\t{r.wallclock:.2f}\t{size}")
    return EXIT_OK


def _cmd_score(args):
    try:
        records = load_records(args.records)
        report = score(records)
    except (OSError, SygusError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
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
    try:
        problem = parse_file(args.grammar_file)
    except (OSError, SygusError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
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
    os.makedirs(args.out, exist_ok=True)
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
    ap = argparse.ArgumentParser(prog="sygus", description="SyGuS synthesis toolkit")
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
