"""Bundle persistence and the command-line surface."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tusearch import bundle as bundle_module
from tusearch import cli
from tusearch.bundle import (
    FORMAT_NAME,
    FORMAT_VERSION,
    component_sizes,
    index_components,
    load_bundle,
    save_bundle,
)
from tusearch.cli import main
from tusearch.errors import DataError, UsageError
from tusearch.evaluation import ground_truth_rankings, recall
from tusearch.mwmto import partition_sims
from tusearch.partitions import dispersion
from tusearch.pipeline import SearchParams, build_engine
from tusearch.repository import (
    QueryTable,
    generate_synthetic,
    ingest_repository,
    load_query_tables,
    write_repository,
)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    data = generate_synthetic(60, (3, 8), 12, 8, 0.1, seed=17)
    manifest = write_repository(data.repository, root, stem="repository")
    qdir = tmp_path_factory.mktemp("q")
    queries = write_repository(
        generate_synthetic(3, (3, 6), 12, 8, 0.1, seed=18).repository, qdir, stem="queries"
    )
    single = write_repository(
        generate_synthetic(1, (4, 4), 12, 8, 0.1, seed=19).repository, qdir, stem="one"
    )
    return manifest, queries, single


@pytest.fixture(scope="module")
def saved(sources, tmp_path_factory):
    """One saved bundle; tests that change it work on a copy."""
    engine = build_engine(ingest_repository(sources[0]), seed=3)
    return save_bundle(tmp_path_factory.mktemp("saved") / "b", engine)


def damaged_partition_indexes(engine):
    """Damaged copies of the engine's partition index, each with a pattern
    of the ``DataError`` it must raise."""
    pindex, n_c = engine.partition_index, engine.codebook.n_c
    duplicated = pindex.members.copy()
    duplicated[1] = duplicated[0]
    short_last = pindex.member_ptr.copy()
    short_last[-1] -= 1
    return [
        (match, dataclasses.replace(pindex, **change))
        for match, change in [
            ("group_ptr does not span", {"group_ptr": pindex.group_ptr[::-1].copy()}),
            ("member_ptr does not span", {"member_ptr": short_last}),
            ("member_ptr does not span", {"member_ptr": pindex.member_ptr[:-1]}),
            ("centroid id without a backing row", {"centroid_ids": pindex.centroid_ids + n_c}),
            ("groups of set 0 do not partition its vectors", {"members": pindex.members + 100}),
            ("groups of set 0 do not partition its vectors", {"members": duplicated}),
        ]
    ]


def rewrite_component(bundle, name, raw):
    """Replace one component's bytes and record their checksum, so that
    loading gets past verification to the decoder."""
    (bundle / name).write_bytes(raw)
    meta_path = bundle / "bundle.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"][name] = hashlib.sha256(raw).hexdigest()
    meta_path.write_text(json.dumps(meta))


READ_COMPONENTS = ["repository.tsv", "repository.f32", "codebook.f32", "assignment.i32", "partitions.bin"]
CONFIG_KEYS = ["n_c", "seed", "rho_low", "rho_high", "single_partition"]


def damaged_metadata():
    """Changes to the parsed ``bundle.json``, each with a pattern of the
    ``DataError`` it must raise, that load must refuse before it reads a
    component."""
    cases = [
        (f"unchecked {name}", lambda m, n=name: m["checksums"].pop(n), f"checksums lack {name}")
        for name in READ_COMPONENTS
    ]
    cases += [
        (f"name {name!r}", lambda m, n=name: m["checksums"].update({n: "0" * 64}), "unknown components")
        for name in ("../x", "a/b", ".", "")
    ]
    cases += [
        (f"no {key}", lambda m, k=key: m["config"].pop(k), "config must hold exactly")
        for key in CONFIG_KEYS
    ]
    cases += [
        ("NaN rho_low", lambda m: m["config"].update(rho_low=float("nan")), "need 0 < rho_low < rho_high"),
        ("bool rho_low", lambda m: m["config"].update(rho_low=True), "must be real numbers"),
        ("rho_low at rho_high", lambda m: m["config"].update(rho_low=m["config"]["rho_high"]), "need 0 < rho_low"),
        ("rho_low above rho_high", lambda m: m["config"].update(rho_low=0.9), "need 0 < rho_low"),
        ("string single_partition", lambda m: m["config"].update(single_partition="no"), "single_partition must be bool"),
        ("fractional n_c", lambda m: m["config"].update(n_c=1.5), "n_c must be int"),
        ("null n_c", lambda m: m["config"].update(n_c=None), "n_c must be int >= 1, got None"),
        ("negative seed", lambda m: m["config"].update(seed=-1), "seed must be int >= 0"),
        ("extra config key", lambda m: m["config"].update(dimension=12), "config must hold exactly"),
    ]
    return [pytest.param(change, match, id=label) for label, change, match in cases]


# Build settings that build, save and load all refuse, each with a pattern
# of the ``UsageError`` it raises.
BAD_SETTINGS = [
    pytest.param({"seed": 1.5}, "seed must be int >= 0", id="fractional seed"),
    pytest.param({"seed": -1}, "seed must be int >= 0", id="negative seed"),
    pytest.param({"seed": True}, "seed must be int >= 0", id="bool seed"),
    pytest.param({"n_c": 0}, "n_c must be int >= 1", id="zero n_c"),
    pytest.param({"n_c": 2.5}, "n_c must be int >= 1", id="fractional n_c"),
    pytest.param({"single_partition": "no"}, "single_partition must be bool", id="string single_partition"),
    pytest.param({"rho_low": 0.9}, "need 0 < rho_low < rho_high", id="rho_low above rho_high"),
]


def untrained(*args, **kwargs):
    raise AssertionError("trained a codebook")


class TestBundleRoundTrip:
    def test_save_load_search_equivalence(self, sources, tmp_path):
        manifest, _, _ = sources
        repo = ingest_repository(manifest)
        engine = build_engine(repo, seed=3)
        save_bundle(tmp_path / "b", engine)
        loaded = load_bundle(tmp_path / "b")
        query = QueryTable(repo.vectors_of(5))
        params = SearchParams(k=5, tau=0.7, phi_c=8)
        assert engine.search(query, params).items == loaded.search(query, params).items
        assert loaded.codebook.centroids.tobytes() == engine.codebook.centroids.tobytes()
        assert np.array_equal(loaded.assignment.flat, engine.assignment.flat)
        for field in ("ptr", "sets", "counts"):
            assert np.array_equal(getattr(loaded.postings, field), getattr(engine.postings, field))
        for field in ("group_ptr", "cascade_ptr", "cid_ptr", "member_ptr", "centroid_ids", "members", "cascade"):
            want = getattr(engine.partition_index, field)
            assert np.array_equal(getattr(loaded.partition_index, field), want), field

    def test_d8_repository_loads_back_bit_identical(self, tmp_path):
        # Low dimension makes an ulp move on re-normalizing likely (about one
        # row in a hundred at d=8), so a loaded engine would drift from the
        # built one.
        data = generate_synthetic(150, (3, 8), 8, 6, 0.3, seed=23)
        engine = build_engine(data.repository, seed=3)
        loaded = load_bundle(save_bundle(tmp_path / "b", engine))
        assert np.array_equal(loaded.repo.matrix, engine.repo.matrix)
        params = SearchParams(k=5, tau=0.7, phi_c=8)
        for sid in range(0, 150, 10):
            query = QueryTable(engine.repo.vectors_of(sid))
            assert loaded.search(query, params).items == engine.search(query, params).items

    def test_byte_identical_rebuild(self, sources, tmp_path):
        manifest, _, _ = sources
        repo = ingest_repository(manifest)
        for name in ("a", "b"):
            save_bundle(tmp_path / name, build_engine(repo, seed=3))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_corruption_detected(self, sources, tmp_path):
        manifest, _, _ = sources
        repo = ingest_repository(manifest)
        save_bundle(tmp_path / "c", engine := build_engine(repo, seed=3))
        victim = tmp_path / "c" / "codebook.f32"
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_bundle(tmp_path / "c")

    @pytest.mark.parametrize(
        "name", ["codebook.f32", "assignment.i32", "partitions.bin"]
    )
    def test_truncated_component_is_a_data_error(self, saved, tmp_path, capsys, name):
        bundle = shutil.copytree(saved, tmp_path / "t")
        raw = (bundle / name).read_bytes()
        rewrite_component(bundle, name, raw[: len(raw) // 2])
        with pytest.raises(DataError, match=name.replace(".", r"\.")):
            load_bundle(bundle)
        assert main(["inspect", "--bundle", str(bundle)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_payload_is_a_data_error(self, saved, tmp_path, capsys):
        bundle = shutil.copytree(saved, tmp_path / "s")
        raw = bytearray((bundle / "repository.f32").read_bytes())
        raw[4:8] = (0x7F800001).to_bytes(4, "little")
        rewrite_component(bundle, "repository.f32", bytes(raw))
        with pytest.raises(DataError, match="non-finite vector at set 0, index 0"):
            load_bundle(bundle)
        assert main(["inspect", "--bundle", str(bundle)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_partition_arrays_are_checked_on_load(self, saved, tmp_path):
        engine = load_bundle(saved)
        for i, (match, pindex) in enumerate(damaged_partition_indexes(engine)):
            bundle = shutil.copytree(saved, tmp_path / str(i))
            damaged = SimpleNamespace(partition_index=pindex, codebook=engine.codebook, assignment=engine.assignment)
            rewrite_component(bundle, "partitions.bin", index_components(damaged)["partitions.bin"])
            with pytest.raises(DataError, match=match):
                load_bundle(bundle)

    def test_damaged_partition_index_fails_validation(self, saved):
        engine = load_bundle(saved)
        for match, pindex in damaged_partition_indexes(engine):
            with pytest.raises(DataError, match=match):
                pindex.validate(engine.repo.offsets, engine.codebook.n_c)

    def test_loaded_bundle_builds_the_same_stage_2_tables(self, tmp_path):
        # 3 merge, 51 plain and 6 cascade sets, with merged groups of two
        # centroids
        data = generate_synthetic(60, (1, 30), 8, 3, 0.02, seed=17)
        engine = build_engine(data.repository, n_c=6, seed=3)
        loaded = load_bundle(save_bundle(tmp_path / "b", engine))
        params = SearchParams(k=5, tau=0.6, phi_c=4, phi_ref=40, phi_r=15)
        pindex = engine.partition_index
        has_cascade = np.diff(pindex.cascade_ptr) > 0
        has_merged = [any(len(g.centroid_ids) > 1 for g in pindex.of(s).groups) for s in range(pindex.n_sets)]
        solved = cascade = merged = 0
        for sid in range(0, 60, 6):
            query = QueryTable(data.repository.vectors_of(sid))
            ids = [s for s, _ in engine.refine(query, params)]
            assert [s for s, _ in loaded.refine(query, params)] == ids
            q64 = query.vectors.astype(np.float64)
            built = partition_sims(q64, pindex, engine.codebook, ids, params.tau)
            again = partition_sims(q64, loaded.partition_index, loaded.codebook, ids, params.tau)
            for s in ids:
                a, b = built[s], again[s]
                for name in ("sims", "valid", "choice"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
                assert (a.lb, a.ub) == (b.lb, b.ub)
                assert (a.profit is None) == (b.profit is None)
                if a.profit is not None:
                    assert np.array_equal(a.profit, b.profit) and np.array_equal(a.groups, b.groups)
                    solved += 1
                cascade += bool(has_cascade[s])
                merged += has_merged[s]
        assert solved > 0 and cascade > 0 and merged > 0

    def test_extra_component_is_a_data_error(self, saved, tmp_path, capsys):
        # a bundle lists exactly its five components, so the centroid graph
        # of bundles from before its removal is refused, checksum and all
        bundle = shutil.copytree(saved, tmp_path / "g")
        rewrite_component(bundle, "graph.bin", b"\x01\x00\x00\x00" * 16)
        with pytest.raises(DataError, match="unknown components: 'graph.bin'"):
            load_bundle(bundle)
        assert main(["inspect", "--bundle", str(bundle)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_component_sizes_of_a_missing_component_is_a_data_error(self, saved, tmp_path):
        bundle = shutil.copytree(saved, tmp_path / "p")
        (bundle / "partitions.bin").unlink()
        with pytest.raises(DataError, match="bundle component missing: partitions.bin"):
            component_sizes(bundle)

    def test_metadata_holds_the_settings_and_one_component_list(self, saved):
        meta = json.loads((saved / "bundle.json").read_text())
        assert sorted(meta) == ["checksums", "config", "format", "version"]
        assert meta["version"] == FORMAT_VERSION == 3
        assert sorted(meta["config"]) == sorted(CONFIG_KEYS)
        assert sorted(meta["checksums"]) == sorted(READ_COMPONENTS)
        assert sorted(component_sizes(saved)) == sorted(READ_COMPONENTS)

    @pytest.mark.parametrize("change, match", damaged_metadata())
    def test_damaged_metadata_is_a_data_error(self, saved, tmp_path, capsys, monkeypatch, change, match):
        bundle = shutil.copytree(saved, tmp_path / "m")
        (tmp_path / "x").write_bytes(b"outside the bundle")
        meta_path = bundle / "bundle.json"
        meta = json.loads(meta_path.read_text())
        change(meta)
        meta_path.write_text(json.dumps(meta))
        hashed = []
        monkeypatch.setattr(bundle_module, "_sha256", lambda path: hashed.append(path) or "0" * 64)
        with pytest.raises(DataError, match=match):
            load_bundle(bundle)
        assert main(["inspect", "--bundle", str(bundle)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert hashed == []

    @pytest.mark.parametrize("setting, match", BAD_SETTINGS)
    def test_bad_build_setting_is_a_usage_error_and_writes_nothing(
        self, sources, saved, tmp_path, monkeypatch, setting, match
    ):
        monkeypatch.setattr("tusearch.quantizer.train_codebook", untrained)
        with pytest.raises(UsageError, match=match):
            build_engine(ingest_repository(sources[0]), **setting)
        engine = load_bundle(saved)
        engine.build_config.update(setting)
        with pytest.raises(UsageError, match=match):
            save_bundle(tmp_path / "b", engine)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("single", [False, True])
    def test_numpy_typed_settings_save_and_load_as_python_values(self, sources, tmp_path, single):
        repo = ingest_repository(sources[0])
        plain = save_bundle(tmp_path / "plain", build_engine(repo, n_c=9, seed=3, single_partition=single))
        typed = save_bundle(tmp_path / "typed", build_engine(
            repo, n_c=np.int64(9), seed=np.int32(3), rho_low=np.float64(0.2), single_partition=np.bool_(single),
        ))
        for path in plain.iterdir():
            assert (typed / path.name).read_bytes() == path.read_bytes(), path.name
        config = load_bundle(typed).build_config
        assert config == {"n_c": 9, "seed": 3, "rho_low": 0.2, "rho_high": 0.8, "single_partition": single}
        assert [type(config[key]) for key in CONFIG_KEYS] == [int, int, float, float, bool]

    def test_payload_outside_the_bundle_is_a_data_error(self, saved, tmp_path, capsys):
        bundle = shutil.copytree(saved, tmp_path / "b")
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "payload.f32").write_bytes((saved / "repository.f32").read_bytes())
        manifest = (saved / "repository.tsv").read_text()
        assert manifest.count("\trepository.f32\t") > 1
        outside = manifest.replace("\trepository.f32\t", "\t../outside/payload.f32\t")
        rewrite_component(bundle, "repository.tsv", outside.encode())
        rewrite_component(bundle, "repository.f32", b"")
        with pytest.raises(DataError, match="names payload '../outside/payload.f32', not repository.f32"):
            load_bundle(bundle)
        assert main(["inspect", "--bundle", str(bundle)]) == 3
        assert capsys.readouterr().err.startswith("error: repository.tsv names payload")

    def test_version_1_bundle_must_be_rebuilt(self, saved, tmp_path, capsys):
        # and a version 2 bundle, whose partitions.bin began with the rho pair
        for version in (1, 2):
            bundle = shutil.copytree(saved, tmp_path / f"v{version}")
            meta_path = bundle / "bundle.json"
            meta = json.loads(meta_path.read_text())
            meta["version"] = version
            meta_path.write_text(json.dumps(meta))
            with pytest.raises(DataError, match=f"format mismatch: found 'tusearch-bundle' v{version}"):
                load_bundle(bundle)
            assert main(["inspect", "--bundle", str(bundle)]) == 3
            assert capsys.readouterr().err.startswith("error: bundle format mismatch")

    def test_version_mismatch_fails_before_parsing(self, sources, tmp_path):
        manifest, _, _ = sources
        repo = ingest_repository(manifest)
        save_bundle(tmp_path / "v", build_engine(repo, seed=3))
        meta_path = tmp_path / "v" / "bundle.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match="format mismatch"):
            load_bundle(tmp_path / "v")

    def test_corrupt_metadata_is_a_data_error(self, sources, tmp_path, capsys):
        manifest, _, _ = sources
        save_bundle(tmp_path / "j", build_engine(ingest_repository(manifest), seed=3))
        meta_path = tmp_path / "j" / "bundle.json"
        meta_path.write_text("{not json")
        with pytest.raises(DataError, match="not JSON"):
            load_bundle(tmp_path / "j")
        assert main(["inspect", "--bundle", str(tmp_path / "j")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        meta_path.write_text(json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION}))
        with pytest.raises(DataError, match="lacks"):
            load_bundle(tmp_path / "j")

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(DataError, match="not a bundle"):
            load_bundle(tmp_path / "nope")

    def test_quantized_components_smaller_than_raw(self, tmp_path):
        # representative scale: fixed per-record overheads must not dominate
        repo = generate_synthetic(200, (5, 15), 32, 20, 0.12, seed=23).repository
        save_bundle(tmp_path / "s", build_engine(repo, seed=3))
        sizes = component_sizes(tmp_path / "s")
        raw = sizes["repository.f32"]
        quantized = sum(
            v for k, v in sizes.items() if k not in ("repository.f32", "repository.tsv")
        )
        assert quantized < 0.6 * raw


class TestCli:
    def test_synth_build_search(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert main([
            "synth", "--out", str(out), "--n-sets", "40", "--queries", "2",
            "--cols", "3", "6", "--dim", "8", "--topics", "5",
            "--noise", "0.1", "--seed", "4",
        ]) == 0
        capsys.readouterr()
        assert main([
            "build", "--manifest", str(out / "repository.tsv"),
            "--out", str(tmp_path / "bundle"), "--seed", "2",
        ]) == 0
        captured = capsys.readouterr().out
        assert "bytes_raw_vectors" in captured
        assert "build_seconds" in captured
        # single-record query manifest for search
        qdir = tmp_path / "single"
        repo = ingest_repository(out / "queries.tsv")
        first = repo.vectors_of(0)
        from tusearch.repository import VectorSetRepository

        write_repository(VectorSetRepository(first, np.array([0, len(first)])), qdir, stem="q")
        assert main([
            "search", "--bundle", str(tmp_path / "bundle"), "--query", str(qdir / "q.tsv"),
            "-k", "5", "--tau", "0.7", "--explain",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ranked = [l for l in lines if not l.startswith("#")]
        assert len(ranked) == 5
        rank, sid, score, card = ranked[0].split("\t")
        assert rank == "1"
        float(score), int(sid), int(card)
        assert any(l.startswith("# stage=refine") and " events=" in l and " touches=" in l
                   and " first_touches=" in l for l in lines)
        assert any(l.startswith("# stage=filter") and " row_best_scores=" in l for l in lines)

    def test_search_defaults_phi_r_to_3k(self, tmp_path, capsys):
        p = SearchParams(k=7).resolve(1000)
        assert p.phi_r == 21 and p.phi_ref == 35

    def test_usage_error_exit_code(self, sources, tmp_path, capsys):
        manifest, _, single = sources
        assert main([
            "build", "--manifest", str(manifest), "--out", str(tmp_path / "b"), "--seed", "1",
        ]) == 0
        capsys.readouterr()
        code = main([
            "search", "--bundle", str(tmp_path / "b"), "--query", str(single),
            "-k", "10", "--phi-r", "5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" == err[err.index("\n"):]  # single line
        # an unset --phi-r follows a small --phi-ref instead of failing to nest
        assert main([
            "search", "--bundle", str(tmp_path / "b"), "--query", str(single),
            "-k", "10", "--phi-ref", "20",
        ]) == 0

    def test_eval_rejects_bad_tau_before_ground_truth(self, sources, tmp_path, capsys, monkeypatch):
        manifest, queries, _ = sources
        assert main([
            "build", "--manifest", str(manifest), "--out", str(tmp_path / "b"), "--seed", "1",
        ]) == 0
        truth_calls = []
        monkeypatch.setattr(cli, "ground_truth_rankings", lambda *a: truth_calls.append(a))
        for tau in ("nan", "1.5"):
            code = main([
                "eval", "--bundle", str(tmp_path / "b"), "--queries", str(queries),
                "--tau", tau,
            ])
            assert code == 2
        assert truth_calls == []

    def test_build_checks_thresholds_before_training(self, sources, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tusearch.quantizer.train_codebook", untrained)
        for flags in (["--rho-l", "0.9", "--rho-h", "0.3"], ["--rho-l", "nan", "--single-partition"]):
            assert main(["build", "--manifest", str(sources[0]), "--out", str(tmp_path / "b"), *flags]) == 2
            assert capsys.readouterr().err.startswith("error: need 0 < rho_low < rho_high <= 1")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--n-c", "0"]])
    def test_build_checks_settings_before_training(self, sources, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("tusearch.quantizer.train_codebook", untrained)
        assert main(["build", "--manifest", str(sources[0]), "--out", str(tmp_path / "b"), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0][2:].replace('-', '_')} must be int")
        assert not (tmp_path / "b").exists()

    def test_build_onto_existing_file_exits_3(self, sources, tmp_path, capsys):
        manifest, _, _ = sources
        occupied = tmp_path / "occupied"
        occupied.write_text("not a directory")
        assert main(["build", "--manifest", str(manifest), "--out", str(occupied)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_data_error_exit_code(self, tmp_path, capsys):
        code = main(["search", "--bundle", str(tmp_path / "missing"), "--query", "x.tsv"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_eval_perfect_recall_under_exhaustive_config(self, sources, tmp_path, capsys):
        manifest, queries, _ = sources
        assert main([
            "build", "--manifest", str(manifest), "--out", str(tmp_path / "b2"),
            "--seed", "1", "--single-partition",
        ]) == 0
        capsys.readouterr()
        repo = ingest_repository(manifest)
        n = repo.n_sets
        n_c = json.loads((tmp_path / "b2" / "bundle.json").read_text())["config"]["n_c"]
        assert main([
            "eval", "--bundle", str(tmp_path / "b2"), "--queries", str(queries),
            "-k", "5", "--tau", "0.7", "--phi-c", str(n_c),
            "--phi-ref", str(n), "--phi-r", str(n),
        ]) == 0
        out = capsys.readouterr().out
        assert "mean_recall\t1.0000" in out

    def test_inspect_reports_capacity_invariant(self, sources, tmp_path, capsys):
        manifest, _, _ = sources
        assert main([
            "build", "--manifest", str(manifest), "--out", str(tmp_path / "b3"), "--seed", "6",
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", "--bundle", str(tmp_path / "b3")]) == 0
        out = capsys.readouterr().out
        assert "capacity_equals_vectors\tTrue" in out
        assert "dispersion_hist" in out
        assert "n_c\t" in out

    def test_build_and_inspect_report_phases_and_branch_mix(self, sources, tmp_path, capsys):
        manifest, _, _ = sources

        def fields(name, out):
            return [f[1:] for f in (line.split("\t") for line in out.splitlines()) if f[0] == name]

        def branch_mix():
            return {name: int(n) for name, n in fields("partition_branch", capsys.readouterr().out)}

        bundle = tmp_path / "b5"
        assert main(["build", "--manifest", str(manifest), "--out", str(bundle), "--n-c", "4",
                     "--rho-l", "0.3", "--rho-h", "0.7"]) == 0
        out = capsys.readouterr().out
        phases = {phase: float(s) for phase, s in fields("phase_seconds", out)}
        (total,), = fields("build_seconds", out)
        assert list(phases) == ["train", "assign", "postings", "partitions", "save"]
        assert all(0 <= s <= float(total) for s in phases.values())
        # perfbench's layout_counts rule: public dispersion, thresholds from build_config
        engine = load_bundle(bundle)
        lo, hi = engine.build_config["rho_low"], engine.build_config["rho_high"]
        want = {"merge": 0, "plain": 0, "cascade": 0}
        for sid in range(engine.repo.n_sets):
            rho = dispersion(engine.assignment.set_owners(sid))
            want["cascade" if rho <= lo else "merge" if rho >= hi else "plain"] += 1
        assert min(want.values()) > 0 and sum(want.values()) == engine.repo.n_sets
        assert {name: int(n) for name, n in fields("partition_branch", out)} == want
        assert main(["inspect", "--bundle", str(bundle)]) == 0
        assert branch_mix() == want

        single = {"single": engine.repo.n_sets}
        assert main(["build", "--manifest", str(manifest), "--out", str(tmp_path / "b6"), "--single-partition"]) == 0
        assert branch_mix() == single
        assert main(["inspect", "--bundle", str(tmp_path / "b6")]) == 0
        assert branch_mix() == single

    def test_search_imports_the_solver_before_it_searches(self, sources, saved):
        """A fresh ``search`` process has ``scipy.optimize`` loaded when the
        search starts, so ``--explain`` times no import in ``exact_ms``."""
        script = "\n".join([
            "import sys",
            "from tusearch import cli",
            "from tusearch.pipeline import SearchEngine",
            "search, seen = SearchEngine.search, []",
            "def recording(self, *args, **kwargs):",
            "    seen.append('scipy.optimize' in sys.modules)",
            "    return search(self, *args, **kwargs)",
            "SearchEngine.search = recording",
            "code = cli.main(['search', '--bundle', sys.argv[1], '--query', sys.argv[2], '--explain'])",
            "print(code, seen)",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script, str(saved), str(sources[2])],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 [True]"

    def test_eval_rejects_queries_of_another_dimension(self, saved, tmp_path, capsys):
        queries = write_repository(generate_synthetic(2, (3, 5), 6, 4, 0.1, seed=20).repository, tmp_path, stem="q6")
        assert load_bundle(saved).repo.dimension == 12
        assert main(["eval", "--bundle", str(saved), "--queries", str(queries)]) == 3
        err = capsys.readouterr().err
        assert err == "error: dimension mismatch: 6 vs 12\n"

    def test_synth_rejects_negative_queries(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert main(["synth", "--out", str(out), "--n-sets", "20", "--queries", "-3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_eval_reports_latency_and_exact_calls(self, sources, saved, capsys):
        _, queries, _ = sources
        assert main(["eval", "--bundle", str(saved), "--queries", str(queries), "-k", "5"]) == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        assert [line[0] for line in lines[-4:]] == ["mean_recall", "p50_ms", "p95_ms", "mean_score_calls"]
        summary = dict(lines[-4:])
        assert 0 < float(summary["p50_ms"]) <= float(summary["p95_ms"])
        engine = load_bundle(saved)
        tables = load_query_tables(queries)
        truth = ground_truth_rankings(tables, engine.repo, 0.7, 5)
        results = [engine.search(q, SearchParams(k=5)) for q in tables]
        recalls = [recall([sid for sid, _, _ in r.items], [sid for sid, _, _ in t]) for r, t in zip(results, truth)]
        assert summary["mean_recall"] == f"{np.mean(recalls):.4f}"
        calls = [r.diagnostics.total_score_calls for r in results]
        assert summary["mean_score_calls"] == f"{np.mean(calls):.2f}"
