"""Work partitioning: results in task order, bounded worker count."""

import multiprocessing
import os
import pickle

from f1kgw import _parallel
from test_pointed import CORRUPTIONS


def _square(x):
    return x * x


def _fake_pools(monkeypatch, cpus):
    """Replace process pools by in-process fakes that record their size.
    Each task crosses to the fake worker pickled, as to a real one."""
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(pickle.loads(pickle.dumps(t))) for t in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: FakeContext())
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes


def test_worker_count_is_bounded_by_tasks_and_cpus(monkeypatch):
    sizes = _fake_pools(monkeypatch, cpus=4)
    assert _parallel.parallel_map(_square, range(10), 10**6) == [x * x for x in range(10)]
    assert _parallel.parallel_map(_square, range(3), 10**6) == [0, 1, 4]
    assert sizes == [4, 3]


def test_one_worker_runs_in_process(monkeypatch):
    sizes = _fake_pools(monkeypatch, cpus=None)
    assert _parallel.parallel_map(_square, range(5), 10**6) == [0, 1, 4, 9, 16]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _parallel.parallel_map(_square, range(5), 1) == [0, 1, 4, 9, 16]
    assert _parallel.parallel_map(_square, [], 8) == []
    assert sizes == []


def test_axioms_iv_and_v_share_one_pool(monkeypatch):
    # Both completion scans go to one pool, and the results split back
    # into the same counts and witnesses as a one-worker run.  Corrupted
    # classes, lambdas among them, take the same path: the tasks carry
    # hom sets, not class functions.
    from f1kgw.pointed import axiom_suite

    for given in ({}, *CORRUPTIONS.values()):
        serial = [(c.name, c.checked, c.witness) for c in axiom_suite(2, **given).checks]
        sizes = _fake_pools(monkeypatch, cpus=2)
        pooled = [(c.name, c.checked, c.witness) for c in axiom_suite(2, jobs=2, **given).checks]
        assert sizes == [2], given
        assert pooled == serial, given
