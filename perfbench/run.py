"""Repository benchmark: seeded SyGuS workloads through the batch harness.

    python3 perfbench/run.py --workload pbe|clia|inv --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports `sygus` from
`src/`, writes each workload's generated `.sl` files to a fresh directory
under `.perfbench/` (one subdirectory per engine label), and runs them the
way batch users do: through `harness.run_suite` with two workers.

Set-up and the harness passes each run in a child process of their own
(`--child`), so the workers fork from a process that has imported
`sygus` and nothing else, and `getrusage(RUSAGE_CHILDREN)` there counts
the workers' CPU time only.

--trace 0 makes as many whole passes over the workload as fit in
`--seconds` (at least one; see PASS_S) and prints the end-to-end metrics.
Every solution a pass returns is checked by `refcheck`, the benchmark's
own reader and evaluator; a wrong one names the instance and makes the
run exit 1.

--trace 1 runs the same instances in this process through
`harness.solve_benchmark`, each once untraced and once with spans around
every layer's entry points (`spans.Tracer`), cut off at the same limit
`run_suite` enforces.  It prints the per-layer metrics, the tracing
overhead and every run whose outcome differs between the two.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A run is attempted once per instance, engine label and pass.  It counts
as failed when the harness reports `failed`, `nonconformant` or
`semantics-failed`, or when the reference check rejects its solution;
a run that ends at its budget is unsolved, not failed, and shows in
`solved_frac`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

import gen
import refcheck
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKERS = 2
# setup_s is the median of at least SETUP_REPEATS set-ups, and of as many
# more as make up SETUP_MIN_S, so that a set-up of 0.1 s rests on about
# ten samples; SETUP_MAX caps the count should set-up get much faster.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX = 40
CHILD_TIMEOUT = 150.0  # seconds a child process may take before it is killed
GRACE = 5.0  # run_suite terminates a worker this long after its budget

# Seconds one pass takes at the commit that added the benchmark, on a
# shared 2-core x86-64 machine.  A run makes the number of passes that
# fits in --seconds at that pace, so a faster program still does the
# same work per run.
PASS_S = {"pbe": 17.0, "clia": 17.0, "inv": 24.0}

# Engine labels per workload: (label, engine, budget in seconds).  Each
# budget keeps every run's outcome far from the kill point:
# * pbe, 7 s: direct targets of size 7 solve in 2.6-4.1 s, those of
#   size 6 in 0.4-0.8 s, and `initials` in 0.8-1.6 s.  The stitching target
#   checks the deadline while it yields predicates up to size 7, which
#   ends after 2.7-4 s on one idle core and up to about 4.6 s with both
#   workers busy, and then builds size 8 without checking it until
#   about 15.6-18 s.  It is killed at 7 + 5 s, never stopped by the
#   deadline and never past size 8.
# * clia cegis, 10 s: every run solves in under 4.5 s.
# * clia auto, 1 s: `qm_inner` solves in 0.2-0.4 s, `abs` returns at its
#   deadline after 1.3-3.7 s (a timeout either way, were it killed), and
#   the generated spec is still enumerating predicates at 8 s, so it is
#   killed at 1 + 5 s.
# * inv, 40 s: a run takes 10-16 s to solve plus 8-12 s to verify again,
#   so it ends well inside the 45 s kill timer, which covers both.
RUNS = {
    "pbe": (("auto", "auto", 7.0),),
    "clia": (("cegis", "cegis", 10.0), ("auto", "auto", 1.0)),
    "inv": (("auto", "auto", 40.0),),
}
SOLVED = ("solved", "unknown-verified")
BROKEN = ("failed", "nonconformant", "semantics-failed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sygus():
    """Import `sygus` from this checkout afresh, dropping cached modules."""
    if not os.path.isfile(os.path.join(SRC, "sygus", "__init__.py")):
        fail(f"no sygus package under {SRC}; run from a full checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "sygus" or m.startswith("sygus.")]:
        del sys.modules[name]
    sygus = importlib.import_module("sygus")
    if os.path.dirname(os.path.dirname(os.path.abspath(sygus.__file__))) != SRC:
        fail(f"imported sygus from {sygus.__file__}, not from {SRC}")
    return sygus


def maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def passes(args):
    return max(1, round(args.seconds / PASS_S[args.workload]))


def run_pass(directory, runs):
    """One harness pass: every instance under every engine label."""
    from sygus import harness

    records = []
    cpu0, t0 = children_cpu(), time.perf_counter()
    for label, engine, budget in runs:
        cfg = harness.SuiteConfig(engine=engine, engine_id=label, timeout=budget, workers=WORKERS)
        records += harness.run_suite(os.path.join(directory, label), cfg)
    return {"wall": time.perf_counter() - t0, "cpu": children_cpu() - cpu0, "records": [asdict(r) for r in records]}


def child(args):
    """Body of a child process; prints its result as one JSON line.

    setup: import sygus, then generate and write the workload's instance
    files into --dir, and report the time that took and the instances.
    passes: run the harness passes over --dir and report each pass's
    wallclock, the workers' CPU time and records, the largest max-RSS of
    a worker that returned a record, and this process's own max-RSS,
    from which the workers fork."""
    runs = RUNS[args.workload]
    if args.child == "setup":
        t0 = time.perf_counter()
        import_sygus()
        instances = gen.WORKLOADS[args.workload](args.seed)
        for label, _, _ in runs:
            os.mkdir(os.path.join(args.dir, label))
            gen.write(instances, os.path.join(args.dir, label), label)
        out = {"seconds": time.perf_counter() - t0, "instances": [asdict(i) for i in instances]}
    else:
        import_sygus()
        from sygus import harness

        floor = maxrss_mb(resource.RUSAGE_SELF)
        rss_log = os.path.join(args.dir, "worker-maxrss")
        harness._worker = _logging_maxrss(harness._worker, rss_log)
        done = [run_pass(args.dir, runs) for _ in range(passes(args))]
        with open(rss_log, encoding="utf-8") as fh:
            peak = max(float(line) for line in fh) / 1024
        out = {"passes": done, "peak_rss_mb": peak, "floor_rss_mb": floor}
    print(json.dumps(out))


def _logging_maxrss(worker, log):
    """Wrap `harness._worker` so that each worker appends its max-RSS to
    `log` once its record is sent.  A worker the harness kills never gets
    there: its RSS says only how far it got before the kill, which a
    faster program makes larger."""

    def run(*args):
        worker(*args)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\n")

    return run


def spawn(args, mode, directory):
    """Run this script as a `mode` child over `directory` and return its
    JSON result.  The child leads a process group of its own, so a child
    that overruns is killed together with any workers it started."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--child", mode, "--dir", directory]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{mode} child overran {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        fail(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def setup(args):
    """Import sygus and generate and write the workload's instance files,
    in a fresh child process.

    Returns (seconds, instances, directory)."""
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        out = spawn(args, "setup", directory)
    except BaseException:
        shutil.rmtree(directory)
        raise
    return out["seconds"], [gen.Instance(**i) for i in out["instances"]], directory


class Checker:
    """Reference checks of returned solutions, memoised per instance and
    solution text (passes repeat the same solutions)."""

    def __init__(self, instances):
        self.instances = {i.name: i for i in instances}
        self.memo = {}

    def __call__(self, bench, solution):
        key = (bench, solution)
        if key not in self.memo:
            try:
                self.memo[key] = refcheck.check(self.instances[bench].text, solution)
            except Exception as e:  # text the checker cannot read or evaluate is wrong
                self.memo[key] = f"unreadable solution: {e!r}"
        return self.memo[key]

    def ref_size(self, bench):
        return refcheck.size(refcheck.read(self.instances[bench].reference)[0])


def solution_size(solution):
    return sum(refcheck.size(body) for _, body in refcheck.read_solution(solution).values())


def tally(records, check):
    """(solved, failed, size ratios, wrong answers, killed runs) over
    records; a size ratio is a solution's size over its reference's."""
    solved, failed, ratios, wrong, killed = 0, 0, [], [], []
    for r in records:
        if r.outcome in SOLVED:
            why = check(r.benchmark, r.solution)
            if why is None:
                solved += 1
                ratios.append(solution_size(r.solution) / check.ref_size(r.benchmark))
            else:
                failed += 1
                wrong.append(f"{r.engine}/{r.benchmark}: {why}")
        elif r.outcome in BROKEN:
            failed += 1
        elif r.cpu is None:  # the harness killed the worker
            killed.append(f"{r.engine}/{r.benchmark}")
    return solved, failed, ratios, wrong, killed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, runs):
    setups, directory = [], None
    while len(setups) < SETUP_MAX and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
        if directory is not None:
            shutil.rmtree(directory)
        seconds, instances, directory = setup(args)
        setups.append(seconds)
    from sygus import harness

    print("setup_s samples: " + " ".join(f"{x:.4f}" for x in setups))
    try:
        out = spawn(args, "passes", directory)
    finally:
        shutil.rmtree(directory)

    walls, cpus, records = [], [], []
    for p in out["passes"]:
        recs = [harness.RunRecord(**r) for r in p["records"]]
        walls.append(p["wall"])
        cpus.append(p["cpu"])
        records += recs
        report = harness.score(recs)
        print(f"pass {len(walls)}: wall {p['wall']:.3f} s, cpu {p['cpu']:.3f} s, solved per label "
              + json.dumps({e: c["solved"] + c["unknown_verified"] for e, c in report.engines.items()}))
    check = Checker(instances)
    solved, failed, ratios, wrong, killed = tally(records, check)
    for r in records[: len(records) // len(walls)]:
        print(f"  {r.engine:6s} {r.benchmark:28s} {r.outcome:17s} {r.wallclock:8.3f} s")
    print(f"harness.killed per pass: {len(killed) // len(walls)} {sorted(set(killed))}")
    for w in wrong:
        print(f"WRONG {w}", file=sys.stderr)
    times = [r.wallclock for r in records]
    print(f"inst_mean_s over {len(times)} runs in {len(walls)} passes; their median {statistics.median(times):.4f} s")
    print(f"peak_rss_mb {out['peak_rss_mb']:.1f}; the process the workers fork from: {out['floor_rss_mb']:.1f} MB")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "solved_frac": metric(solved / len(records), "ratio"),
        # The mean, not the median: on a shared host the per-run times of
        # equal work split into a fast and a slow group, and the median of
        # many short runs jumps between the two from run to run.
        "inst_mean_s": metric(statistics.fmean(times), "s"),
        # geometric mean over solved runs; 1 when nothing was solved
        "size_ratio": metric(statistics.geometric_mean(ratios) if ratios else 1.0, "ratio"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
    }
    return not wrong, len(records), failed, metrics


class Killed(BaseException):
    """Raised by the alarm that cuts an in-process run at budget + grace;
    a BaseException so the engine's `except Exception` handlers let it by."""


def _alarm(signum, frame):
    raise Killed()


def cut_run(harness, path, cfg, tracer=None):
    """`harness.solve_benchmark` in this process, cut off at the budget
    plus the grace `run_suite` allows; a cut run is recorded the way
    `run_suite` records a killed worker.  With `tracer`, the layers'
    entry points are wrapped for the duration of the run."""
    if tracer is not None:
        tracer.install()
    signal.setitimer(signal.ITIMER_REAL, cfg.timeout + GRACE)
    try:
        out = harness.solve_benchmark(path, cfg)
    except Killed:
        out = ("timeout", cfg.timeout, None, None, None)
        if tracer is not None:
            tracer.cut()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()
    outcome, wall, cpu, size, solution = out
    return harness.RunRecord(os.path.basename(path), cfg.label(), outcome, wall, size, cpu, solution)


def traced(args, runs):
    """Each run twice in this process, untraced and then traced."""
    _, instances, directory = setup(args)
    from sygus import harness

    tracer = spans.Tracer()
    plain, records = [], []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for label, engine, budget in runs:
            cfg = harness.SuiteConfig(engine=engine, engine_id=label, timeout=budget)
            for inst in sorted((i for i in instances if i.runs_under(label)), key=lambda i: i.name):
                path = os.path.join(directory, label, inst.name)
                plain.append(cut_run(harness, path, cfg))
                tracer.instance = f"{label}/{inst.name}"
                records.append(cut_run(harness, path, cfg, tracer))
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(directory)

    spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_path)
    _, failed, _, wrong, killed = tally(plain + records, Checker(instances))
    for w in wrong:
        print(f"WRONG {w}", file=sys.stderr)
    diffs, base, with_trace = [], 0.0, 0.0
    for u, r in zip(plain, records):
        if u.outcome != r.outcome:
            diffs.append(f"{r.engine}/{r.benchmark}: {u.outcome} untraced, {r.outcome} traced")
        elif r.cpu is not None and u.cpu is not None:
            base += u.wallclock
            with_trace += r.wallclock
    for d in diffs:
        print(f"outcome differs: {d}")
    overhead = with_trace / base - 1 if base else 0.0
    print(f"tracing overhead {overhead:+.1%}: {with_trace:.3f} s traced against {base:.3f} s untraced, "
          f"over the runs that ended alike and uncut; spans in {spans_path}")
    cut = sum(r.cpu is None for r in records)
    metrics = {name: metric(value, unit) for name, (value, unit) in spans.layer_metrics(tracer, cut).items()}
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    metrics["trace.outcome_diffs"] = metric(len(diffs), "count")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return not wrong, len(plain) + len(records), failed, metrics


def main(argv=None):
    # String hashing is salted per process, and the salt alone moves the
    # string PBE solve times by a third.  A fixed salt makes runs repeat;
    # forked workers inherit it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "passes"), help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    os.makedirs(WORK, exist_ok=True)
    import_sygus()
    mode = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = mode(args, RUNS[args.workload])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
