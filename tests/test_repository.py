"""Repository layer: ingestion and synthetic generation."""

from pathlib import Path

import numpy as np
import pytest

from tusearch.errors import DataError, UsageError
from tusearch.repository import (
    MANIFEST_MAGIC,
    QueryTable,
    generate_synthetic,
    ingest_repository,
    load_query_table,
    load_query_tables,
    normalize_rows,
    split_repository,
    write_repository,
)


def write_manifest(directory, blocks, dimension, stem="repo"):
    """Write raw (unnormalized) float32 blocks in manifest + payload form."""
    payload = directory / f"{stem}.f32"
    chunks = []
    offsets = []
    pos = 0
    for block in blocks:
        raw = np.asarray(block, dtype="<f4").tobytes()
        chunks.append(raw)
        offsets.append(pos)
        pos += len(raw)
    payload.write_bytes(b"".join(chunks))
    lines = [f"{MANIFEST_MAGIC}\tdimension={dimension}"]
    for sid, block in enumerate(blocks):
        lines.append(f"{sid}\t{len(block)}\t{stem}.f32\t{offsets[sid]}")
    manifest = directory / f"{stem}.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class TestIngest:
    def test_counts_and_norms(self, tmp_path):
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((m, 4)) for m in (2, 3, 4)]
        manifest = write_manifest(tmp_path, blocks, 4)
        repo = ingest_repository(manifest)
        assert repo.n_sets == 3
        assert repo.total_vectors == 9
        assert repo.dimension == 4
        norms = np.linalg.norm(repo.matrix.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_zero_vector_rejected_with_location(self, tmp_path):
        blocks = [np.ones((2, 3)), np.array([[1.0, 0, 0], [0, 0, 0], [0, 1, 0]])]
        manifest = write_manifest(tmp_path, blocks, 3)
        with pytest.raises(DataError, match="zero vector at set 1, index 1"):
            ingest_repository(manifest)

    def test_deterministic_ingest(self, tmp_path):
        rng = np.random.default_rng(6)
        manifest = write_manifest(tmp_path, [rng.standard_normal((3, 5)) for _ in range(4)], 5)
        a = ingest_repository(manifest)
        b = ingest_repository(manifest)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert np.array_equal(a.offsets, b.offsets)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        manifest = write_manifest(tmp_path, [rng.standard_normal((m, 6)) for m in (2, 5, 1)], 6)
        repo = ingest_repository(manifest)
        out = write_repository(repo, tmp_path / "export")
        again = ingest_repository(out)
        assert again.n_sets == repo.n_sets
        assert np.array_equal(again.offsets, repo.offsets)
        assert np.abs(again.matrix - repo.matrix).max() <= 1e-7

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_is_a_data_error(self):
        # float32 bits 0x7f800001: widening them to float64 warns "invalid
        # value encountered in cast" unless that flag is ignored
        bits = np.array([[0x3F800000, 0], [0, 0x7F800001]], dtype="<u4")
        with pytest.raises(DataError, match="non-finite vector at input, index 1"):
            normalize_rows(bits.view("<f4"))

    def test_normalizing_unit_rows_again_changes_nothing(self):
        # At d=8 about one unit float32 row in a hundred moves by an ulp when
        # divided by its own float64 norm once more.
        once = normalize_rows(np.random.default_rng(8).standard_normal((5000, 8)))
        assert np.array_equal(normalize_rows(once), once)

    def test_missing_payload(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{MANIFEST_MAGIC}\tdimension=2\n0\t1\tnope.f32\t0\n")
        with pytest.raises(DataError, match="payload not found"):
            ingest_repository(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest not found"):
            ingest_repository(tmp_path / "absent.tsv")

    def test_empty_set_rejected(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{MANIFEST_MAGIC}\tdimension=2\n0\t0\tp.f32\t0\n")
        with pytest.raises(DataError, match="empty vector set 0"):
            ingest_repository(manifest)

    def test_non_dense_ids_rejected(self, tmp_path):
        blocks = [np.ones((1, 2)), np.ones((1, 2))]
        manifest = write_manifest(tmp_path, blocks, 2)
        lines = manifest.read_text().splitlines()
        lines[2] = lines[2].replace("1\t1", "5\t1", 1)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="dense"):
            ingest_repository(manifest)

    def test_negative_offset_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.ones((2, 3))], 3)
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t-4"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="negative payload offset"):
            ingest_repository(manifest)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.ones((2, 3))], 3)
        manifest.write_bytes(manifest.read_bytes().replace(b"VSETS", b"VS\xffTS"))
        with pytest.raises(DataError, match="not UTF-8"):
            ingest_repository(manifest)

    def test_sets_over_two_payloads_read_once_each(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        blocks = [rng.standard_normal((m, 3)) for m in (2, 3, 4, 3)]
        write_manifest(tmp_path, blocks[:2], 3, stem="a")
        write_manifest(tmp_path, blocks[2:], 3, stem="b")
        manifest = tmp_path / "both.tsv"
        manifest.write_text(
            f"{MANIFEST_MAGIC}\tdimension=3\n"
            "0\t2\ta.f32\t0\n1\t3\ta.f32\t24\n2\t4\tb.f32\t0\n3\t3\tb.f32\t48\n"
        )
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        repo = ingest_repository(manifest)
        assert sorted(reads) == ["a.f32", "b.f32"]
        want = np.vstack([normalize_rows(b.astype("<f4")) for b in blocks])
        assert np.array_equal(repo.matrix, want)
        assert repo.offsets.tolist() == [0, 2, 5, 9, 12]
        for sid, row, value, match in (
            (3, 2, np.nan, "non-finite vector at set 3, index 2"),
            (2, 1, 0.0, "zero vector at set 2, index 1"),
        ):
            bad = [b.copy() for b in blocks[2:]]
            bad[sid - 2][row] = value
            write_manifest(tmp_path, bad, 3, stem="b")
            with pytest.raises(DataError, match=match):
                ingest_repository(manifest)
        (tmp_path / "b.f32").write_bytes((tmp_path / "b.f32").read_bytes()[:-4])
        with pytest.raises(DataError, match="payload too short for set 3"):
            ingest_repository(manifest)

    def test_truncated_payload(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.ones((2, 3))], 3)
        payload = tmp_path / "repo.f32"
        payload.write_bytes(payload.read_bytes()[:-4])
        with pytest.raises(DataError, match="payload too short for set 0"):
            ingest_repository(manifest)


class TestQueryTables:
    def test_single_record_required(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.ones((2, 3)), np.ones((1, 3))], 3)
        with pytest.raises(DataError, match="exactly one record"):
            load_query_table(manifest)

    def test_load_single_and_batch(self, tmp_path):
        rng = np.random.default_rng(8)
        manifest = write_manifest(tmp_path, [rng.standard_normal((4, 3))], 3)
        q = load_query_table(manifest)
        assert isinstance(q, QueryTable)
        assert q.n_vectors == 4 and q.dimension == 3
        batch_manifest = write_manifest(tmp_path, [rng.standard_normal((m, 3)) for m in (2, 3)], 3, stem="qs")
        batch = load_query_tables(batch_manifest)
        assert [q.n_vectors for q in batch] == [2, 3]
        blocks = [rng.standard_normal((m, 3)) for m in (2, 3)]
        blocks[1][2] = 0.0
        with pytest.raises(DataError, match="zero vector at query 1, index 2"):
            load_query_tables(write_manifest(tmp_path, blocks, 3, stem="bad"))

    def test_unit_rows_accepted_within_tolerance(self):
        rows = np.eye(3, dtype=np.float32)
        rows[0, 0] += 1e-7
        assert QueryTable(rows).n_vectors == 3
        assert QueryTable([[0.6, 0.8]]).dimension == 2

    @pytest.mark.parametrize(
        "rows, match",
        [
            # a NaN query used to score every set 0.0
            (np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]]), "non-finite"),
            (np.array([[np.inf, 0.0]]), "non-finite"),
            # norm-5 rows used to score above the cardinality bound
            (5.0 * np.eye(3), "norm 5"),
            (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-5]]), "column 1"),
            (np.zeros((0, 3)), "non-empty 2-d"),
            (np.ones(3) / np.sqrt(3), "non-empty 2-d"),
            (np.zeros((2, 0)), "non-empty 2-d"),
        ],
    )
    def test_bad_rows_rejected(self, rows, match):
        with pytest.raises(DataError, match=match):
            QueryTable(rows)


class TestSynthetic:
    def test_shapes(self):
        data = generate_synthetic(100, (5, 15), 32, 10, 0.1, seed=7)
        repo = data.repository
        assert repo.n_sets == 100
        sizes = repo.sizes()
        assert sizes.min() >= 5 and sizes.max() <= 15
        norms = np.linalg.norm(repo.matrix.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6
        assert len(data.topic_labels) == 100

    def test_zero_noise_vectors_equal_topics(self):
        data = generate_synthetic(20, (3, 6), 16, 5, 0.0, seed=9)
        topic_rows = {t.tobytes() for t in data.topics}
        for sid in range(20):
            for row in data.repository.vectors_of(sid):
                assert row.tobytes() in topic_rows

    def test_seed_determinism(self):
        a = generate_synthetic(30, (4, 9), 8, 4, 0.2, seed=42)
        b = generate_synthetic(30, (4, 9), 8, 4, 0.2, seed=42)
        assert a.repository.matrix.tobytes() == b.repository.matrix.tobytes()
        assert np.array_equal(a.repository.offsets, b.repository.offsets)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sets=0, cols_range=(2, 3), d=4, n_topics=2, noise=0.1, seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=1, n_topics=2, noise=0.1, seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=0, noise=0.1, seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=-0.5, seed=1),
            dict(n_sets=5, cols_range=(3, 2), d=4, n_topics=2, noise=0.1, seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=float("nan"), seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=float("inf"), seed=1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=0.1, seed=-1),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=0.1, seed=1.5),
            dict(n_sets=5, cols_range=(2, 3), d=4, n_topics=2, noise=0.1, seed=True),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(UsageError):
            generate_synthetic(**kwargs)

    def test_split(self):
        data = generate_synthetic(10, (2, 4), 8, 3, 0.1, seed=2)
        first, rest = split_repository(data.repository, 7)
        assert first.n_sets == 7 and rest.n_sets == 3
        assert np.array_equal(
            np.vstack([first.matrix, rest.matrix]), data.repository.matrix
        )
