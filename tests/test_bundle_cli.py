"""Bundle persistence and the command-line surface."""

import dataclasses
import hashlib
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

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
from tusearch.errors import DataError
from tusearch.partitions import dispersion
from tusearch.pipeline import SearchParams, build_engine
from tusearch.repository import (
    QueryTable,
    generate_synthetic,
    ingest_repository,
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


def rewrite_component(bundle, name, raw):
    """Replace one component's bytes and record their checksum, so that
    loading gets past verification to the decoder."""
    (bundle / name).write_bytes(raw)
    meta_path = bundle / "bundle.json"
    meta = json.loads(meta_path.read_text())
    if name not in meta["components"]:
        meta["components"].append(name)
    meta["checksums"][name] = hashlib.sha256(raw).hexdigest()
    meta_path.write_text(json.dumps(meta))


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
        for field in (f.name for f in dataclasses.fields(engine.partition_layout)):
            want = getattr(engine.partition_layout, field)
            assert np.array_equal(getattr(loaded.partition_layout, field), want), field
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

    def test_partition_arrays_are_checked_on_load(self, saved, tmp_path):
        engine = load_bundle(saved)
        pindex, n_c = engine.partition_index, engine.codebook.n_c
        duplicated = pindex.members.copy()
        duplicated[1] = duplicated[0]
        short_last = pindex.member_ptr.copy()
        short_last[-1] -= 1
        for match, change in {
            "group_ptr does not span": {"group_ptr": pindex.group_ptr[::-1].copy()},
            "member_ptr does not span": {"member_ptr": short_last},
            "centroid id without a backing row": {"centroid_ids": pindex.centroid_ids + n_c},
            "member index outside its set": {"members": pindex.members + 100},
            "groups do not partition": {"members": duplicated},
        }.items():
            bundle = shutil.copytree(saved, tmp_path / match.replace(" ", "_"))
            damaged = SimpleNamespace(
                partition_index=dataclasses.replace(pindex, **change),
                codebook=engine.codebook,
                assignment=engine.assignment,
            )
            rewrite_component(bundle, "partitions.bin", index_components(damaged)["partitions.bin"])
            with pytest.raises(DataError, match=match):
                load_bundle(bundle)

    def test_legacy_graph_component_is_verified_then_ignored(self, saved, sources, tmp_path):
        # bundles from before the centroid graph was removed may list graph.bin
        bundle = shutil.copytree(saved, tmp_path / "g")
        rewrite_component(bundle, "graph.bin", b"\x01\x00\x00\x00" * 16)
        query = QueryTable(ingest_repository(sources[0]).vectors_of(5))
        params = SearchParams(k=5, tau=0.7, phi_c=8)
        want = load_bundle(saved).search(query, params).items
        assert load_bundle(bundle).search(query, params).items == want
        (bundle / "graph.bin").write_bytes(b"\x02")
        with pytest.raises(DataError, match="checksum mismatch for graph.bin"):
            load_bundle(bundle)

    def test_version_1_bundle_must_be_rebuilt(self, saved, tmp_path, capsys):
        bundle = shutil.copytree(saved, tmp_path / "v1")
        meta_path = bundle / "bundle.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match="format mismatch: found 'tusearch-bundle' v1"):
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
        assert any(l.startswith("# stage=refine") for l in lines)
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

    def test_bench_cli_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "bench.json"
        assert main(["bench", "--write-default-config", str(config_path)]) == 0
        capsys.readouterr()
        small = json.loads(config_path.read_text())
        small.update(
            n_sets=40, n_queries=3, cols_lo=3, cols_hi=5, dimension=8, n_topics=5,
            phi_c_grid=[4], phi_ref_multiples=[2], methods=["base", "enhanced"],
            reps=1, warmup=0, k=4,
        )
        config_path.write_text(json.dumps(small))
        assert main([
            "bench", "--config", str(config_path), "--out", str(tmp_path / "bench_out"),
        ]) == 0
        capsys.readouterr()
        report = (tmp_path / "bench_out" / "report.tsv").read_text().strip().splitlines()
        assert len(report) == 1 + 1 * 1 * 2
        jsonl = (tmp_path / "bench_out" / "report.jsonl").read_text().strip().splitlines()
        assert len(jsonl) == 1 + 2
