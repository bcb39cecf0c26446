"""Batch runner and competition-style scoring.

`solve` is the one mapping from a `SuiteConfig` to a solve: the engine
it names, given its wallclock in seconds and its SMT command.  `sygus
solve` calls it, and so does `solve_benchmark` for each benchmark of a
suite.  Every run samples from the one fixed `oracle.SEED`.

Runs engines over a directory of `.sl` benchmarks under a wallclock
limit, applies both post-processors, persists one JSON line per record
(so a crashed run resumes), and scores outcomes with pseudo-logarithmic
time and size buckets.

`run_suite` forks its worker processes once and hands each one
benchmark after another over a connection, replacing a worker that dies or is
killed.  Only pure caches carry over between benchmarks (see
`run_suite`), so a record does not depend on which worker ran it before;
a worker's max-RSS is its high-water mark over all the benchmarks it
ran.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import time
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, asdict
from multiprocessing.connection import wait

from .core import SygusError, term_size
from .engine import Failure, cegis_solve, classify, unify_solve
from .frontend import parse_file
from .oracle import check_conformance, verify

ENGINES = ("cegis", "unif", "auto")
TIME_EDGES = (1, 3, 10, 30, 100, 300, 1000, 3600)
SIZE_EDGES = (10, 30, 100, 300, 1000)
GRACE = 5.0  # wallclock slack past the budget before run_suite terminates a worker

OUTCOMES = (
    "solved",
    "failed",
    "timeout",
    "nonconformant",
    "semantics-failed",
    "unknown-verified",
)


class DataError(SygusError):
    pass


def time_bucket(seconds) -> int:
    """Index on the scale [0,1), [1,3), [3,10), [10,30), [30,100),
    [100,300), [300,1000), [1000,3600), >=3600."""
    if seconds < 0:
        raise ValueError("negative wallclock")
    return bisect_right(TIME_EDGES, seconds)


def size_bucket(count) -> int:
    """Index on the scale [1,10), [10,30), [30,100), [100,300),
    [300,1000), >=1000."""
    if count < 1:
        raise ValueError("expression size must be >= 1")
    return bisect_right(SIZE_EDGES, count)


@dataclass
class RunRecord:
    benchmark: str
    engine: str
    outcome: str
    wallclock: float
    size: int = None
    cpu: float = None
    solution: str = None  # emitted define-fun text when solved

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line):
        return cls(**json.loads(line))


@dataclass
class ScoreReport:
    engines: dict  # engine -> counts
    benchmarks: dict  # benchmark -> per-benchmark summary

    def to_json(self, indent=2):
        return json.dumps({"engines": self.engines, "benchmarks": self.benchmarks}, indent=indent, sort_keys=True)


def score(records) -> ScoreReport:
    """Solved / uniquely-solved / among-the-fastest counts plus
    per-benchmark time and size ranges."""
    seen = set()
    for r in records:
        key = (r.engine, r.benchmark)
        if key in seen:
            raise DataError(f"duplicate record for {key}")
        seen.add(key)
        if r.outcome not in OUTCOMES:
            raise DataError(f"unknown outcome {r.outcome!r}")
    engines = {}
    for r in records:
        engines.setdefault(
            r.engine,
            {"solved": 0, "unknown_verified": 0, "uniquely_solved": 0, "among_fastest": 0},
        )
    by_benchmark = {}
    for r in records:
        by_benchmark.setdefault(r.benchmark, []).append(r)
    benchmarks = {}
    for bench, rs in by_benchmark.items():
        solved = [r for r in rs if r.outcome == "solved"]
        for r in rs:
            if r.outcome == "solved":
                engines[r.engine]["solved"] += 1
            elif r.outcome == "unknown-verified":
                engines[r.engine]["unknown_verified"] += 1
        entry = {
            "solved_by": sorted(r.engine for r in solved),
            "time_range": None,
            "size_range": None,
            "fastest": [],
        }
        if solved:
            times = [r.wallclock for r in solved]
            entry["time_range"] = [min(times), max(times)]
            sizes = [r.size for r in solved if r.size is not None]
            if sizes:
                entry["size_range"] = [min(sizes), max(sizes)]
            best = min(time_bucket(t) for t in times)
            fastest = sorted(r.engine for r in solved if time_bucket(r.wallclock) == best)
            entry["fastest"] = fastest
            for e in fastest:
                engines[e]["among_fastest"] += 1
            if len(solved) == 1:
                engines[solved[0].engine]["uniquely_solved"] += 1
        benchmarks[bench] = entry
    return ScoreReport(engines, benchmarks)


# ---------------------------------------------------------------------------
# Suite execution


@dataclass
class SuiteConfig:
    engine: str = "auto"  # one of ENGINES
    engine_id: str = None  # record label; defaults to the engine name
    timeout: float = 60.0
    workers: int = 1
    smt_cmd: list = None  # argv of an external SMT solver
    records_path: str = None
    solutions_dir: str = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {', '.join(ENGINES)}, got {self.engine!r}")
        if not 0 < self.timeout < math.inf:  # false for nan too
            raise ValueError(f"timeout must be a finite number of seconds above 0, got {self.timeout!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")

    def label(self):
        return self.engine_id or self.engine


def _pick_solver(problem, engine):
    if engine == "cegis":
        return cegis_solve
    if engine == "unif":
        return unify_solve
    # auto: unification for invariant and PBE problems and for a single
    # target whose grammar has a conditional; plain enumeration otherwise.
    return cegis_solve if classify(problem).kind == "plain" else unify_solve


def solve(problem, cfg: SuiteConfig):
    """Solve a parsed `problem` with `cfg`'s engine, wallclock and SMT
    command; returns a Solution or a Failure."""
    return _pick_solver(problem, cfg.engine)(problem, cfg.timeout, cfg.smt_cmd)


def solve_benchmark(path, cfg: SuiteConfig):
    """Parse, solve and post-process one benchmark.

    Returns (outcome, wallclock, cpu, size, solution_text).
    """
    t0 = time.monotonic()
    c0 = time.process_time()
    try:
        problem = parse_file(path)
    except Exception:
        return ("failed", time.monotonic() - t0, time.process_time() - c0, None, None)
    result = solve(problem, cfg)
    wall = time.monotonic() - t0
    cpu = time.process_time() - c0
    if isinstance(result, Failure):
        outcome = "timeout" if result.reason == "budget-exhausted" else "failed"
        return (outcome, wall, cpu, None, None)
    for name, fun in result.funs.items():
        if check_conformance(fun.body, problem.target(name).grammar).kind != "valid":
            return ("nonconformant", wall, cpu, None, result.emit())
    verdict = verify(problem, result.as_map(), cfg.smt_cmd)
    total = sum(term_size(f.body) for f in result.funs.values())
    if verdict.kind == "valid":
        return ("solved", wall, cpu, total, result.emit())
    if verdict.kind == "unknown":
        return ("unknown-verified", wall, cpu, total, result.emit())
    return ("semantics-failed", wall, cpu, None, result.emit())


def _worker(path, cfg, conn):
    start = time.monotonic()
    try:
        out = solve_benchmark(path, cfg)
    except Exception:  # a crashing engine fails its record only
        out = ("failed", time.monotonic() - start, None, None, None)
    conn.send(out)


def _serve(conn, inherited=()):
    """A pool worker: solve each `(path, cfg)` received on `conn` and send
    its outcome back, until a None sentinel or the end of `conn`.

    `inherited` are the parent's ends of the workers' connections, this
    one's included; closing them leaves the parent the only holder of the
    other end, so a worker whose parent is gone sees the end and exits."""
    for end in inherited:
        end.close()
    with conn:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return
            if task is None:
                return
            try:
                _worker(*task, conn)  # a module global, looked up per call
            except BrokenPipeError:  # the parent is gone
                return


def run_suite(bench_dir, cfg: SuiteConfig):
    """Run every `.sl` file under `bench_dir`; returns RunRecord list.

    Records are appended to `cfg.records_path` as they complete; on
    restart, benchmarks already recorded for this engine are skipped.  A
    torn final record is cut from the file before anything is appended
    (else it would become a bad line mid-file), so its benchmark runs
    again.

    Up to `cfg.workers` worker processes are forked once per call and each
    is handed one benchmark after another, in sorted path order, as it
    comes free.  Between benchmarks a worker keeps only pure caches: the
    tier-2 Int sample streams (`oracle._int_stream`), code objects keyed
    by their source (`semantics._compiled`) and the last verdict of
    `oracle.verify`, keyed by the identity of a problem it holds.  A
    worker that exits without replying fails its record; one still
    running `GRACE` seconds past its budget is terminated and recorded as
    a timeout.  Either is replaced by a fresh worker while benchmarks
    remain.  Every worker has exited before this returns or raises.
    """
    paths = sorted(
        os.path.join(bench_dir, f) for f in os.listdir(bench_dir) if f.endswith(".sl")
    )
    done = {}
    records = []
    if cfg.records_path and os.path.exists(cfg.records_path):
        saved, torn_at = _read_records(cfg.records_path)
        if torn_at is not None:
            with open(cfg.records_path, "r+b") as fh:
                fh.truncate(torn_at)
        for r in saved:
            if r.engine == cfg.label():
                done[r.benchmark] = r
    pending = []
    for p in paths:
        bench = os.path.basename(p)
        if bench in done:
            records.append(done[bench])
        else:
            pending.append(p)
    pending.reverse()  # popped from the end, in sorted order

    ctx = mp.get_context("fork")
    procs = []  # every worker forked, joined before returning
    ends = []  # the parent's ends of their connections, closed in each new worker
    idle = []  # (proc, conn) waiting for a benchmark
    busy = {}  # conn -> (proc, bench, start)

    def fork():
        conn, child = ctx.Pipe()
        ends.append(conn)
        proc = ctx.Process(target=_serve, args=(child, ends))
        proc.start()
        child.close()
        procs.append(proc)
        return proc, conn

    def dispatch():
        while pending and (idle or len(busy) < cfg.workers):
            proc, conn = idle.pop() if idle else fork()
            try:
                conn.send((pending[-1], cfg))
            except OSError:  # the idle worker is gone; a fresh one takes the benchmark
                conn.close()
                continue
            busy[conn] = (proc, os.path.basename(pending.pop()), time.monotonic())
        while idle and not pending:  # let spare workers exit while the rest run
            _, conn = idle.pop()
            with suppress(OSError):  # a worker that is gone needs no sentinel
                conn.send(None)
            conn.close()

    def emit(record):
        records.append(record)
        if cfg.records_path:
            with open(cfg.records_path, "a") as fh:
                fh.write(record.to_json() + "\n")
        if cfg.solutions_dir and record.solution:
            os.makedirs(cfg.solutions_dir, exist_ok=True)
            with open(os.path.join(cfg.solutions_dir, record.benchmark + ".sol"), "w") as fh:
                fh.write(record.solution + "\n")

    try:
        dispatch()
        while busy:
            # sleep until a worker replies or dies, or the first kill time comes
            kill_at = min(start for _, _, start in busy.values()) + cfg.timeout + GRACE
            for conn in wait(list(busy), timeout=max(0.0, kill_at - time.monotonic())):
                proc, bench, start = busy.pop(conn)
                try:
                    outcome, wall, cpu, size, solution = conn.recv()
                    idle.append((proc, conn))
                except EOFError:  # the worker died without replying
                    outcome, wall, cpu, size, solution = ("failed", time.monotonic() - start, None, None, None)
                    conn.close()
                emit(RunRecord(bench, cfg.label(), outcome, wall, size, cpu, solution))
            now = time.monotonic()
            for conn, (proc, bench, start) in list(busy.items()):
                if now - start >= cfg.timeout + GRACE:
                    proc.terminate()
                    conn.close()
                    del busy[conn]
                    emit(RunRecord(bench, cfg.label(), "timeout", cfg.timeout, None, None, None))
            dispatch()
    finally:
        for conn, (proc, _, _) in busy.items():
            proc.terminate()
            conn.close()
        pending.clear()
        dispatch()  # stops the idle workers
        for proc in procs:
            proc.join()
    return records


def _read_records(path):
    """Parse a records file; returns (records, torn_at).

    An unparsable final line is a write cut short by a crash: it is
    skipped, and `torn_at` is the byte offset where it starts (else
    None).  An unparsable line anywhere else raises DataError.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
    out = []
    offset = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                out.append(RunRecord.from_json(line))
            except (ValueError, TypeError) as e:
                if i != last:
                    raise DataError(f"{path}: unparsable record on line {i + 1}: {e}") from None
                return out, offset
        offset += len(line)
    return out, None


def load_records(path):
    """The records in `path`, skipping a torn final line."""
    return _read_records(path)[0]
