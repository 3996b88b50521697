"""The parts of the program that perfbench reaches into by name.

perfbench wraps the functions in its ``HOOKS`` list with timing spans and,
in a traced run, drains sample queries with a ``RefinementTrace`` and reads
``engine.postings[cid][0]``, each set's ``assignment.set_owners(sid)`` and
``partition_index.of(sid).groups``, and the bundle's ``component_sizes``.
A rename would otherwise show only when a traced benchmark runs.
``perfbench/run.py`` is read, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import tusearch.matching as matching
import tusearch.pipeline as pipeline
import tusearch.quantizer as quantizer
from tusearch.bundle import component_sizes, load_bundle, save_bundle
from tusearch.pipeline import SearchParams, build_engine
from tusearch.refinement import RefinementTrace
from tusearch.repository import QueryTable, generate_synthetic

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench_hooks() -> list[tuple[str, str, str]]:
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no HOOKS list")


def count_calls(monkeypatch, hooked) -> dict[str, int]:
    """Wrap each ``(module, name)`` function on its module with a counter;
    the returned dict counts the calls by name."""
    calls = {name: 0 for _, name in hooked}
    for module, name in hooked:
        inner = getattr(module, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def engine():
    return build_engine(generate_synthetic(60, (3, 8), 12, 6, 0.2, seed=41).repository, n_c=8, seed=1)


def test_every_hook_resolves():
    hooks = perfbench_hooks()
    assert hooks
    for module, attr, _ in hooks:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_refine_fills_what_perfbench_reads(engine):
    trace = RefinementTrace()
    engine.refine(QueryTable(engine.repo.vectors_of(3)), SearchParams(k=5, phi_c=4), trace=trace)
    assert trace.events and trace.accepted
    for _, cid, _ in trace.events:
        assert len(engine.postings[cid][0]) > 0


def test_stage_one_hooks_run_once_per_search(engine, monkeypatch):
    """perfbench requires one stage-1 span, two ``pruning.run`` spans (stages
    2 and 3) and at least one ``matching.exact`` span in every traced search.
    Its ``mwmto.bounds`` and ``mwmto.exact`` layers time one call per
    stage-2 candidate that the pruner bounds or scores, so batching either
    away would leave those layers empty."""
    calls = count_calls(monkeypatch, [(pipeline, "refine"), (pipeline, "top_centroids"),
                                      (pipeline, "run_pruner"), (matching, "unionability"),
                                      (pipeline, "bounds_for_mwmto"), (pipeline, "mwmto_exact")])
    for pruner in ("bf", "base", "enhanced"):
        calls.update(dict.fromkeys(calls, 0))
        diag = engine.search(QueryTable(engine.repo.vectors_of(5)),
                             SearchParams(k=5, phi_c=4, pruner=pruner)).diagnostics
        assert calls["unionability"] >= 1
        assert calls == {"refine": 1, "top_centroids": 1, "run_pruner": 2,
                         "unionability": calls["unionability"],
                         "bounds_for_mwmto": diag.filter_bound_calls,
                         "mwmto_exact": diag.filter_score_calls}
        # the enhanced pruner, which perfbench runs, bounds every candidate
        if pruner == "enhanced":
            assert calls["bounds_for_mwmto"] == diag.refine_candidates
        assert 1 <= calls["mwmto_exact"] <= diag.refine_candidates
        assert diag.filter_row_best_scores <= diag.filter_score_calls


def test_built_engine_answers_what_perfbench_reads(engine, tmp_path):
    repo = engine.repo
    for sid in range(repo.n_sets):
        owners = engine.assignment.set_owners(sid)
        groups = engine.partition_index.of(sid).groups
        assert len(owners) == repo.size_of(sid) == sum(g.capacity for g in groups)
    touched = sum(len(engine.postings[cid][0]) for cid in range(engine.codebook.n_c))
    assert touched == len(engine.postings.sets) > 0
    sizes = component_sizes(save_bundle(tmp_path / "b", engine))
    assert {"codebook.f32", "partitions.bin"} <= set(sizes)


def test_only_a_build_enters_the_hooked_build_indexes(monkeypatch, tmp_path):
    """perfbench's ``quantizer.index`` span wraps ``quantizer.build_indexes``;
    the bundle loader binds the function at import, so loads stay outside it."""
    calls = []
    inner = quantizer.build_indexes

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(quantizer, "build_indexes", counted)
    built = build_engine(generate_synthetic(30, (3, 6), 8, 5, 0.2, seed=42).repository, n_c=6, seed=1)
    assert len(calls) == 1
    load_bundle(save_bundle(tmp_path / "b", built))
    assert len(calls) == 1


def test_one_build_enters_each_build_hook_once(monkeypatch):
    """perfbench requires one span of each build layer per build, and
    ``build_engine`` must look each function up on its module at call time
    for the span to see it."""
    spans = ("quantizer.train", "quantizer.assign", "quantizer.index", "partitions.build")
    hooked = [(importlib.import_module(module), attr) for module, attr, span in perfbench_hooks() if span in spans]
    assert [name for _, name in hooked] == ["train_codebook", "assign_all", "build_indexes", "build_partition_index"]
    calls = count_calls(monkeypatch, hooked)
    build_engine(generate_synthetic(30, (3, 6), 8, 5, 0.2, seed=43).repository, n_c=6, seed=1)
    assert calls == dict.fromkeys(calls, 1)
