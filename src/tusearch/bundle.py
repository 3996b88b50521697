"""Index bundle persistence.

A bundle is a directory holding the canonical repository export plus every
index component in little-endian binary form, described by a single
``bundle.json`` carrying the format version, the build configuration, and
a sha256 checksum per component file.  Loading verifies the version first
and every checksum second, before any parsing; a component that then fails
to decode is a data error too.  Nothing in a bundle depends on wall-clock
time, so identical builds are byte-identical.  The decoded partition
arrays pass ``PartitionIndex.validate``, the same check build runs on its
own output, before search reads them as they are.

Format v2 stores three index components, each read with ``np.frombuffer``:

* ``codebook.f32``: the centroid matrix;
* ``assignment.i32``: the owner centroid of every repository vector, in row
  order; the per-centroid postings are rebuilt from it on load;
* ``partitions.bin``: ``rho_low`` and ``rho_high`` as float64, then as
  int32 the lengths of the ``PartitionIndex`` arrays ``group_ptr``,
  ``cascade_ptr``, ``cid_ptr``, ``member_ptr``, ``centroid_ids`` and
  ``members`` and the number of cascade rows, then those arrays as int32
  and the cascade rows as float32.

Components that ``bundle.json`` lists beyond these are verified and then
ignored.  A bundle of another format version is a data error; it must be
rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .partitions import PartitionIndex
from .pipeline import SearchEngine
from .quantizer import ClusterAssignment, Codebook, build_indexes
from .repository import VectorSetRepository, ingest_repository, write_repository

FORMAT_NAME = "tusearch-bundle"
FORMAT_VERSION = 2

_REPO_STEM = "repository"
_CODEBOOK = "codebook.f32"
_ASSIGNMENT = "assignment.i32"
_PARTITIONS = "partitions.bin"
_META = "bundle.json"

_PARTITION_ARRAYS = ("group_ptr", "cascade_ptr", "cid_ptr", "member_ptr", "centroid_ids", "members")
_PARTITION_HEAD = 16 + 4 * (len(_PARTITION_ARRAYS) + 1)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def index_components(engine: SearchEngine) -> dict[str, bytes]:
    """The bytes of every index component, by file name."""
    pindex = engine.partition_index
    arrays = [getattr(pindex, name) for name in _PARTITION_ARRAYS]
    lengths = np.array([len(a) for a in arrays] + [len(pindex.cascade)], dtype="<i4")
    partitions = struct.pack("<dd", pindex.rho_low, pindex.rho_high) + lengths.tobytes()
    partitions += b"".join(a.astype("<i4").tobytes() for a in arrays)
    return {
        _CODEBOOK: engine.codebook.centroids.astype("<f4").tobytes(),
        _ASSIGNMENT: engine.assignment.flat.astype("<i4").tobytes(),
        _PARTITIONS: partitions + pindex.cascade.astype("<f4").tobytes(),
    }


def _read_assignment(raw: bytes, n_c: int, repo: VectorSetRepository) -> ClusterAssignment:
    if len(raw) != 4 * repo.total_vectors:
        raise DataError(f"{_ASSIGNMENT} holds {len(raw)} bytes, not {repo.total_vectors} int32 owners")
    owners = np.frombuffer(raw, dtype="<i4")
    if len(owners) and (owners.min() < 0 or owners.max() >= n_c):
        raise DataError(f"{_ASSIGNMENT} names a centroid outside 0..{n_c - 1}")
    return ClusterAssignment(owners, repo.offsets.copy())


def _read_partitions(raw: bytes, n_c: int, repo: VectorSetRepository) -> PartitionIndex:
    """Decode ``partitions.bin``; ``PartitionIndex.validate`` checks the
    arrays."""
    if len(raw) < _PARTITION_HEAD:
        raise DataError(f"{_PARTITIONS} is truncated: {len(raw)} bytes")
    rho_low, rho_high = struct.unpack_from("<dd", raw)
    *lengths, n_cascade = np.frombuffer(raw, dtype="<i4", count=len(_PARTITION_ARRAYS) + 1, offset=16).tolist()
    n_ints = sum(lengths)
    expect = _PARTITION_HEAD + 4 * (n_ints + n_cascade * repo.dimension)
    if min(lengths + [n_cascade]) < 0 or len(raw) != expect:
        raise DataError(f"{_PARTITIONS} has {len(raw)} bytes, which its array lengths do not explain")
    ints = np.frombuffer(raw, dtype="<i4", count=n_ints, offset=_PARTITION_HEAD)
    arrays = dict(zip(_PARTITION_ARRAYS, np.split(ints, np.cumsum(lengths[:-1]))))
    cascade = np.frombuffer(raw, dtype="<f4", offset=_PARTITION_HEAD + 4 * n_ints)
    pindex = PartitionIndex(
        **arrays, cascade=cascade.reshape(n_cascade, repo.dimension), rho_low=rho_low, rho_high=rho_high
    )
    try:
        pindex.validate(repo.offsets, n_c)
    except DataError as exc:
        raise DataError(f"{_PARTITIONS}: {exc}") from None
    return pindex


def save_bundle(directory, engine: SearchEngine) -> Path:
    """Write every engine component under ``directory``; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_repository(engine.repo, directory, stem=_REPO_STEM)
    components = [f"{_REPO_STEM}.tsv", f"{_REPO_STEM}.f32"]
    for name, raw in index_components(engine).items():
        (directory / name).write_bytes(raw)
        components.append(name)
    config = dict(engine.build_config)
    config.setdefault("n_c", engine.codebook.n_c)
    config.setdefault("seed", engine.codebook.train_seed)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": config,
        "components": components,
        "checksums": {name: _sha256(directory / name) for name in components},
    }
    (directory / _META).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return directory


def _read_meta(directory: Path) -> dict:
    """Parse ``bundle.json``; anything but a current-format object carrying
    config, components and checksums is a data error."""
    meta_path = directory / _META
    if not meta_path.is_file():
        raise DataError(f"not a bundle (missing {_META}): {directory}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise DataError(f"{meta_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path} is not a JSON object")
    if meta.get("format") != FORMAT_NAME or meta.get("version") != FORMAT_VERSION:
        raise DataError(
            f"bundle format mismatch: found {meta.get('format')!r} v{meta.get('version')!r}, "
            f"expected {FORMAT_NAME!r} v{FORMAT_VERSION}"
        )
    for key, kind in (("config", dict), ("components", list), ("checksums", dict)):
        if not isinstance(meta.get(key), kind):
            raise DataError(f"{meta_path} lacks a {kind.__name__} {key!r}")
    return meta


def load_bundle(directory) -> SearchEngine:
    """Verify and load a bundle directory back into a search engine."""
    directory = Path(directory)
    meta = _read_meta(directory)
    for name, expect in meta["checksums"].items():
        path = directory / name
        if not path.is_file():
            raise DataError(f"bundle component missing: {name}")
        got = _sha256(path)
        if got != expect:
            raise DataError(f"bundle checksum mismatch for {name}: {got} != {expect}")
    config = meta["config"]
    n_c, seed = config.get("n_c"), config.get("seed", 0)
    if not all(type(v) is int for v in (n_c, seed)):
        raise DataError(f"bundle config n_c and seed must be integers, got {n_c!r} and {seed!r}")
    repo = ingest_repository(directory / f"{_REPO_STEM}.tsv")
    raw = (directory / _CODEBOOK).read_bytes()
    if len(raw) != 4 * n_c * repo.dimension:
        raise DataError(f"{_CODEBOOK} holds {len(raw)} bytes, not {n_c} x {repo.dimension} float32")
    centroids = np.frombuffer(raw, dtype="<f4").reshape(n_c, repo.dimension)
    codebook = Codebook(centroids, train_seed=seed)
    assignment = _read_assignment((directory / _ASSIGNMENT).read_bytes(), n_c, repo)
    pindex = _read_partitions((directory / _PARTITIONS).read_bytes(), n_c, repo)
    return SearchEngine(repo, codebook, assignment, build_indexes(assignment, n_c), pindex, config)


def component_sizes(directory) -> dict[str, int]:
    """On-disk byte size per bundle component."""
    directory = Path(directory)
    meta = _read_meta(directory)
    return {name: (directory / name).stat().st_size for name in meta["components"]}
