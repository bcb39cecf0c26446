"""Buckets, scoring, records and the suite runner."""

import multiprocessing as mp
import os
import shutil
import time

import pytest
from hypothesis import given, strategies as st

from sygus import harness
from sygus.core import Macro
from sygus.engine import Solution
from sygus.frontend import parse_file, parse_solution
from sygus.harness import (
    DataError,
    RunRecord,
    SIZE_EDGES,
    SuiteConfig,
    TIME_EDGES,
    load_records,
    run_suite,
    score,
    size_bucket,
    time_bucket,
)

BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def test_time_bucket_boundaries():
    assert time_bucket(0) == 0
    assert time_bucket(0.999) == 0
    assert time_bucket(1) == 1
    assert time_bucket(2.5) == 1
    assert time_bucket(3) == 2
    assert time_bucket(29.9) == 3
    assert time_bucket(30) == 4
    assert time_bucket(999) == 6
    assert time_bucket(1000) == 7
    assert time_bucket(3600) == 8
    assert time_bucket(100000) == 8
    with pytest.raises(ValueError):
        time_bucket(-0.1)


def test_size_bucket_boundaries():
    assert size_bucket(1) == 0
    assert size_bucket(9) == 0
    assert size_bucket(10) == 1
    assert size_bucket(299) == 3
    assert size_bucket(300) == 4
    assert size_bucket(1000) == 5
    with pytest.raises(ValueError):
        size_bucket(0)


@given(st.floats(min_value=0, max_value=10_000, allow_nan=False))
def test_time_bucket_is_monotone_step(t):
    b = time_bucket(t)
    assert 0 <= b <= len(TIME_EDGES)
    lo = 0 if b == 0 else TIME_EDGES[b - 1]
    assert lo <= t
    if b < len(TIME_EDGES):
        assert t < TIME_EDGES[b]


@given(st.integers(min_value=1, max_value=100_000))
def test_size_bucket_is_monotone_step(n):
    b = size_bucket(n)
    lo = 1 if b == 0 else SIZE_EDGES[b - 1]
    assert lo <= n
    if b < len(SIZE_EDGES):
        assert n < SIZE_EDGES[b]


# --- scoring ---------------------------------------------------------------


def _rec(bench, engine, outcome, wall, size=None):
    return RunRecord(bench, engine, outcome, wall, size)


def test_score_counts_hand_checked():
    records = [
        _rec("a.sl", "e1", "solved", 0.5, 5),
        _rec("a.sl", "e2", "solved", 2.0, 7),  # same bucket? 0.5->0, 2.0->1: no
        _rec("b.sl", "e1", "failed", 1.0),
        _rec("b.sl", "e2", "solved", 50.0, 12),
        _rec("c.sl", "e1", "unknown-verified", 1.0, 3),
        _rec("c.sl", "e2", "timeout", 60.0),
    ]
    rep = score(records)
    assert rep.engines["e1"] == {
        "solved": 1,
        "unknown_verified": 1,
        "uniquely_solved": 0,
        "among_fastest": 1,
    }
    assert rep.engines["e2"] == {
        "solved": 2,
        "unknown_verified": 0,
        "uniquely_solved": 1,
        "among_fastest": 1,
    }
    a = rep.benchmarks["a.sl"]
    assert a["solved_by"] == ["e1", "e2"]
    assert a["fastest"] == ["e1"]
    assert a["time_range"] == [0.5, 2.0]
    assert a["size_range"] == [5, 7]
    assert rep.benchmarks["b.sl"]["fastest"] == ["e2"]


def test_score_same_bucket_ties_are_shared():
    records = [
        _rec("a.sl", "e1", "solved", 4.0, 5),
        _rec("a.sl", "e2", "solved", 9.9, 5),  # both in bucket [3,10)
    ]
    rep = score(records)
    assert rep.benchmarks["a.sl"]["fastest"] == ["e1", "e2"]
    assert rep.engines["e1"]["among_fastest"] == 1
    assert rep.engines["e2"]["among_fastest"] == 1
    assert rep.engines["e1"]["uniquely_solved"] == 0


def test_score_rejects_duplicates_and_bad_outcomes():
    with pytest.raises(DataError):
        score([_rec("a.sl", "e1", "solved", 1), _rec("a.sl", "e1", "solved", 2)])
    with pytest.raises(DataError):
        score([_rec("a.sl", "e1", "exploded", 1)])


def test_run_record_json_round_trip():
    r = RunRecord("a.sl", "e1", "solved", 1.25, 9, 1.1, "(define-fun f () Int 0)")
    assert RunRecord.from_json(r.to_json()) == r


# --- suite runner ----------------------------------------------------------


def _mini_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("abs.sl", "initials.sl"):
        shutil.copy(os.path.join(BENCH, name), d / name)
    return str(d)


def test_run_suite_and_resume(tmp_path):
    corpus = _mini_corpus(tmp_path)
    records_path = str(tmp_path / "records.jsonl")
    cfg = SuiteConfig(engine="auto", timeout=30, records_path=records_path,
                      solutions_dir=str(tmp_path / "sols"))
    records = run_suite(corpus, cfg)
    assert sorted(r.benchmark for r in records) == ["abs.sl", "initials.sl"]
    outcomes = {r.benchmark: r.outcome for r in records}
    # PBE verification is exhaustive over the examples, so "solved";
    # abs has a universal and stays tier-2 without an external solver.
    assert outcomes["initials.sl"] == "solved"
    assert outcomes["abs.sl"] in ("solved", "unknown-verified")
    assert all(r.size is not None for r in records)
    assert os.path.exists(os.path.join(str(tmp_path / "sols"), "abs.sl.sol"))
    assert load_records(records_path) == records

    # resume: nothing re-runs, the persisted records are returned as-is
    again = run_suite(corpus, cfg)
    assert again == records
    assert load_records(records_path) == records


@pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0, -1])
def test_suite_config_rejects_a_timeout_run_suite_cannot_keep(timeout):
    with pytest.raises(ValueError, match="timeout must be a finite number of seconds above 0"):
        SuiteConfig(timeout=timeout)


@pytest.mark.parametrize("workers", [0, -1])
def test_suite_config_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        SuiteConfig(workers=workers)


@pytest.mark.parametrize("engine", ["unify", "AUTO", ""])
def test_suite_config_rejects_an_unknown_engine(engine):
    # a name outside ENGINES would run the auto policy under its own label
    with pytest.raises(ValueError, match=f"engine must be one of cegis, unif, auto, got {engine!r}"):
        SuiteConfig(engine=engine)


def test_suite_config_takes_a_short_timeout():
    assert SuiteConfig(timeout=0.2).timeout == 0.2


def test_run_suite_timeout(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    shutil.copy(os.path.join(BENCH, "qm_loop.sl"), d / "qm_loop.sl")
    cfg = SuiteConfig(engine="cegis", timeout=0.5)
    (rec,) = run_suite(str(d), cfg)
    assert rec.outcome == "timeout"
    assert rec.size is None


def test_run_suite_unparsable_file_fails_its_record(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "bad.sl").write_text("(set-logic LIA) (constraint")
    (rec,) = run_suite(str(d), SuiteConfig(timeout=5))
    assert rec.outcome == "failed"


TINY = """(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))
(declare-var x Int)
(constraint (= (f x) (+ x x)))
(check-synth)
"""


def _tiny_corpus(tmp_path, names=("tiny.sl",)):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in names:
        (d / name).write_text(TINY)
    return str(d)


def test_run_suite_survives_a_worker_that_dies(tmp_path, monkeypatch):
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl"))
    monkeypatch.setattr(harness, "solve_benchmark", lambda path, cfg: os._exit(1))
    records = run_suite(corpus, SuiteConfig(engine="cegis", timeout=5, workers=2))
    assert sorted(r.benchmark for r in records) == ["a.sl", "b.sl"]
    assert all(r.outcome == "failed" and r.size is None for r in records)


def test_run_suite_records_the_wallclock_of_a_crashing_engine(tmp_path, monkeypatch):
    def crash(path, cfg):
        time.sleep(0.3)
        raise RuntimeError("engine bug")

    monkeypatch.setattr(harness, "solve_benchmark", crash)
    (rec,) = run_suite(_tiny_corpus(tmp_path), SuiteConfig(engine="cegis", timeout=5))
    assert rec.outcome == "failed"
    assert rec.wallclock >= 0.3
    assert rec.cpu is None


def test_run_suite_kills_a_worker_that_hangs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "solve_benchmark", lambda path, cfg: time.sleep(60))
    monkeypatch.setattr(harness, "GRACE", 0.3)
    cfg = SuiteConfig(engine="cegis", timeout=0.2, workers=2)
    t0 = time.monotonic()
    records = run_suite(_tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl")), cfg)
    assert time.monotonic() - t0 < 5
    assert sorted(r.benchmark for r in records) == ["a.sl", "b.sl", "c.sl"]
    assert all((r.outcome, r.wallclock, r.cpu, r.size) == ("timeout", 0.2, None, None) for r in records)


# --- worker pool -------------------------------------------------------------


def _by_pid(path, cfg):
    """A stand-in solve: `solved`, with the serving worker's pid as its solution."""
    return ("solved", 0.0, 0.0, 1, str(os.getpid()))


def _die_on_b(path, cfg):
    if path.endswith("b.sl"):
        os._exit(1)
    return _by_pid(path, cfg)


def _pids(records):
    return {r.benchmark: int(r.solution) for r in records if r.outcome == "solved"}


def test_run_suite_reuses_its_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "solve_benchmark", _by_pid)
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl", "d.sl"))
    records = run_suite(corpus, SuiteConfig(engine="cegis", timeout=5, workers=2))
    pids = _pids(records)
    assert sorted(pids) == ["a.sl", "b.sl", "c.sl", "d.sl"]
    assert len(set(pids.values())) <= 2
    assert os.getpid() not in pids.values()


def test_run_suite_replaces_a_killed_worker(tmp_path, monkeypatch):
    def hang_on_a(path, cfg):
        if path.endswith("a.sl"):
            time.sleep(60)
        return _by_pid(path, cfg)

    monkeypatch.setattr(harness, "solve_benchmark", hang_on_a)
    monkeypatch.setattr(harness, "GRACE", 0.3)
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl"))
    records = run_suite(corpus, SuiteConfig(engine="cegis", timeout=0.2, workers=1))
    assert {r.benchmark: r.outcome for r in records} == {"a.sl": "timeout", "b.sl": "solved", "c.sl": "solved"}
    pids = _pids(records)
    assert pids["b.sl"] == pids["c.sl"]  # one fresh worker serves the rest


def test_run_suite_replaces_a_worker_that_dies(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "solve_benchmark", _die_on_b)
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl", "d.sl"))
    records = run_suite(corpus, SuiteConfig(engine="cegis", timeout=5, workers=1))
    assert [(r.benchmark, r.outcome) for r in records] == [
        ("a.sl", "solved"), ("b.sl", "failed"), ("c.sl", "solved"), ("d.sl", "solved")]
    pids = _pids(records)
    assert pids["a.sl"] != pids["c.sl"] == pids["d.sl"]


def test_run_suite_calls_the_module_worker_once_per_record(tmp_path, monkeypatch):
    # as perfbench's max-RSS logger does: wrap `_worker` and log after it
    log = tmp_path / "log"
    worker = harness._worker

    def logging(path, cfg, conn):
        worker(path, cfg, conn)
        with open(log, "a") as fh:
            fh.write(os.path.basename(path) + "\n")

    monkeypatch.setattr(harness, "solve_benchmark", _die_on_b)
    monkeypatch.setattr(harness, "_worker", logging)
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl", "d.sl"))
    records = run_suite(corpus, SuiteConfig(engine="cegis", timeout=5, workers=2))
    assert len(records) == 4
    assert sorted(log.read_text().split()) == sorted(_pids(records)) == ["a.sl", "c.sl", "d.sl"]


def test_run_suite_leaves_no_worker_when_it_returns_or_raises(tmp_path, monkeypatch):
    def hang_on_b(path, cfg):
        if path.endswith("b.sl"):
            time.sleep(60)
        return _by_pid(path, cfg)

    monkeypatch.setattr(harness, "solve_benchmark", hang_on_b)
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl", "c.sl"))
    monkeypatch.setattr(harness, "GRACE", 0.3)
    run_suite(corpus, SuiteConfig(engine="cegis", timeout=0.2, workers=2))
    assert mp.active_children() == []

    # emit raises on the first solution, with b.sl still running
    (tmp_path / "not-a-dir").write_text("")
    cfg = SuiteConfig(engine="cegis", timeout=30, workers=2, solutions_dir=str(tmp_path / "not-a-dir"))
    t0 = time.monotonic()
    with pytest.raises(OSError):
        run_suite(corpus, cfg)
    assert time.monotonic() - t0 < 10
    assert mp.active_children() == []


def test_serve_stops_at_a_sentinel_or_when_its_parent_is_gone(monkeypatch):
    monkeypatch.setattr(harness, "solve_benchmark", _by_pid)
    task = ("a.sl", SuiteConfig())

    parent, child = mp.Pipe()
    parent.send(task)
    parent.send(None)
    harness._serve(child)
    assert parent.recv() == _by_pid(*task)
    with pytest.raises(EOFError):  # the worker closed its end on the way out
        parent.recv()

    parent, child = mp.Pipe()
    parent.close()
    harness._serve(child)  # no task ever comes

    parent, child = mp.Pipe()
    parent.send(task)
    parent.close()
    harness._serve(child)  # its reply has nowhere to go


def _record_line(bench, outcome="solved"):
    return RunRecord(bench, "cegis", outcome, 0.5, 3, 0.4, None).to_json() + "\n"


def test_load_records_skips_a_torn_final_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(_record_line("a.sl") + _record_line("b.sl")[:25])
    (rec,) = load_records(str(path))
    assert rec.benchmark == "a.sl"


def test_load_records_rejects_a_bad_line_before_the_last(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(_record_line("a.sl")[:25] + "\n" + _record_line("b.sl"))
    with pytest.raises(DataError):
        load_records(str(path))


def test_resume_reruns_the_benchmark_of_a_torn_record(tmp_path):
    corpus = _tiny_corpus(tmp_path, ("a.sl", "b.sl"))
    path = tmp_path / "records.jsonl"
    path.write_text(_record_line("a.sl", "timeout") + _record_line("b.sl")[:25])
    cfg = SuiteConfig(engine="cegis", timeout=10, records_path=str(path))
    records = run_suite(corpus, cfg)
    outcomes = {r.benchmark: r.outcome for r in records}
    # b.sl ran again: a universal spec verifies only up to the search bound
    assert outcomes == {"a.sl": "timeout", "b.sl": "unknown-verified"}
    # the torn tail was cut, so the file parses in full afterwards
    assert sorted(load_records(str(path)), key=lambda r: r.benchmark) == sorted(records, key=lambda r: r.benchmark)


@pytest.mark.parametrize("engine, solver", [("cegis", "cegis_solve"), ("unif", "unify_solve")])
@pytest.mark.parametrize("body, outcome", [
    ("(* x 17)", "nonconformant"),  # neither * nor 17 is in abs's grammar
    ("x", "semantics-failed"),  # wrong at every negative x
])
def test_solve_benchmark_post_processes_what_a_solver_returns(engine, solver, body, outcome, monkeypatch):
    path = os.path.join(BENCH, "abs.sl")
    problem = parse_file(path)
    target = problem.targets[0]
    text = f"(define-fun abs ((x Int)) Int {body})"
    _, term = parse_solution(text, problem)["abs"]
    # a solver's Solution is only a claim: the harness checks conformance, then verifies
    monkeypatch.setattr(harness, solver, lambda *_: Solution({"abs": Macro("abs", target.params, target.ret, term)}))
    got, _, _, size, solution = harness.solve_benchmark(path, SuiteConfig(engine=engine, timeout=10))
    assert (got, size, solution) == (outcome, None, text)
