"""run.py's own plumbing: set-up children and the worker max-RSS log."""

import argparse
import os

import run


def test_setup_child_writes_one_suite_per_label(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    args = argparse.Namespace(workload="clia", seed=0, seconds=1.0)
    seconds, instances, directory = run.setup(args)
    assert seconds > 0
    for label, _, _ in run.RUNS["clia"]:
        names = sorted(os.listdir(os.path.join(directory, label)))
        assert names == sorted(i.name for i in instances if i.runs_under(label))
    assert len(os.listdir(os.path.join(directory, "auto"))) < len(instances)


def test_logging_maxrss_appends_once_per_returned_worker(tmp_path):
    log = tmp_path / "maxrss"
    calls = []
    wrapped = run._logging_maxrss(lambda *a: calls.append(a), str(log))
    wrapped("a.sl", None, None)
    wrapped("b.sl", None, None)
    assert calls == [("a.sl", None, None), ("b.sl", None, None)]
    values = [float(x) for x in log.read_text().split()]
    assert len(values) == 2 and all(v > 0 for v in values)
