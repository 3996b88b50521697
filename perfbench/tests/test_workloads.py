"""Seeded generation: same seed, same bytes; another seed, other bytes."""

import dataclasses

import numpy as np
import pytest

import workloads


def small(name):
    return dataclasses.replace(workloads.SHAPES[name], n_sets=40, n_queries=5)


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_same_seed_same_inputs(name):
    a = workloads.generate(small(name), 7)
    b = workloads.generate(small(name), 7)
    assert len(a.tables) == len(b.tables) == 40
    assert all(np.array_equal(x, y) for x, y in zip(a.tables + a.queries, b.tables + b.queries))


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_other_seed_other_inputs(name):
    a = workloads.generate(small(name), 7)
    b = workloads.generate(small(name), 8)
    assert not np.array_equal(a.tables[0], b.tables[0]) or a.tables[0].shape != b.tables[0].shape
    assert any(not np.array_equal(x, y) for x, y in zip(a.queries, b.queries))


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_shapes_hold(name):
    shape = small(name)
    inputs = workloads.generate(shape, 1)
    lo, hi = shape.cols
    for t in inputs.tables + inputs.queries:
        assert lo <= len(t) <= hi and t.shape[1] == shape.dim and t.dtype == np.float32
        assert np.allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-6)
    widths = [len(q) for q in inputs.queries]
    assert widths[0] == lo and widths[-1] == hi


def test_manifest_round_trip(tmp_path):
    from tusearch import ingest_repository

    inputs = workloads.generate(small("narrow"), 2)
    repo = ingest_repository(workloads.write_manifest(inputs.tables, tmp_path))
    assert repo.n_sets == len(inputs.tables)
    assert np.allclose(repo.matrix, np.vstack(inputs.tables), atol=1e-6)
