"""Seeded generators: reproducible, parsable, and satisfied by their own
reference programs."""

import collections
import os
import re

import pytest

import gen
import refcheck


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload, tmp_path):
    make = gen.WORKLOADS[workload]
    for seed in (0, 7):
        a, b = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
        a.mkdir()
        b.mkdir()
        gen.write(make(seed), a)
        gen.write(make(seed), b)
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seeds_differ(workload):
    make = gen.WORKLOADS[workload]
    assert [i.text for i in make(1)] != [i.text for i in make(2)]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 3])
def test_files_parse_and_references_hold(workload, seed, tmp_path):
    from sygus.frontend import parse_file

    instances = gen.WORKLOADS[workload](seed)
    gen.write(instances, tmp_path)
    assert len({i.name for i in instances}) == len(instances)
    for inst in instances:
        parse_file(os.path.join(tmp_path, inst.name))
        solution = refcheck.define_fun(inst.text, inst.reference)
        assert refcheck.check(inst.text, solution) is None, inst.name


def test_pbe_mix_and_minimal_references():
    instances = gen.pbe(5)
    mix = collections.Counter(i.note for i in instances)
    expected = collections.Counter({"string PBE": 2})
    for kind, k, n in gen.PBE_MIX:
        expected[f"{kind} size {k}"] += n
    assert mix == expected
    assert [i.name for i in instances] == sorted(i.name for i in instances)
    for inst in instances:
        if inst.note != "string PBE":
            k = int(inst.note.rsplit(" ", 1)[1])
            assert refcheck.size(refcheck.read(inst.reference)[0]) == k


def test_bank_kinds_decide_the_cover_race():
    """A stitch target is covered example by example by smaller terms; a
    direct target has an example no other term of its size or smaller hits."""
    bank = gen.Bank(gen.STRUCTURED + (3, 5, 1 << 40, 12345, 99), 5)
    every = set(range(10))
    for k in (4, 5):
        for term, vec in bank.by_size[k]:
            kind = gen._pbe_kind(bank, vec, k)
            others = [v for s in range(1, k + 1) for _, v in bank.by_size[s] if v != vec]
            smaller = [v for s in range(1, k) for _, v in bank.by_size[s]]
            hit = lambda vs: {i for v in vs for i in every if v[i] == vec[i]}
            if kind == "stitch":
                assert hit(smaller) == every
            elif kind == "direct":
                assert hit(others) != every
            else:
                assert hit(smaller) != every and hit(others) == every


def test_clia_mix():
    for seed in range(5):
        instances = gen.clia(seed)
        sizes = [refcheck.size(refcheck.read(i.reference)[0]) for i in instances]
        assert sizes[: len(gen.CLIA_MIX)] == [10] * 2 + [6] * 12
        assert [i.name for i in instances] == sorted(i.name for i in instances)
        under_auto = [i.name for i in instances if i.runs_under("auto")]
        assert under_auto == ["c00_size10.sl", "c14_abs.sl", "c15_qm_inner.sl"]
        assert all(i.runs_under("cegis") for i in instances)


def test_write_keeps_to_the_label(tmp_path):
    instances = gen.clia(0)
    gen.write(instances, tmp_path, "auto")
    assert sorted(os.listdir(tmp_path)) == [i.name for i in instances if i.runs_under("auto")]


def test_inv_variants_cover_every_shape():
    shapes = set()
    for seed in range(40):
        head = gen.inv(seed)[1].text.splitlines()[0]
        shapes.add(re.match(r"; Loop \w+ (down|up) to 0 while \w+ moves (with|against) it", head).groups())
    assert shapes == {("down", "with"), ("down", "against"), ("up", "with"), ("up", "against")}
