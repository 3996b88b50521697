"""Index bundle persistence.

A bundle is a directory holding the canonical repository export plus every
index component in little-endian binary form, described by a single
``bundle.json`` carrying the format version, ``config`` (the engine's
``build_config``: exactly the five build settings) and ``checksums`` (a
sha256 for each of exactly the five component files: the repository's
manifest and payload and the three index components below).  Save and load
check ``config`` by the rule of build, ``check_build_config``.  Loading
checks that metadata first, then verifies every checksum, before any
parsing; every record of the repository manifest must name
``repository.f32`` as its payload, which ingest checks before it reads
any payload.  A component that then fails to decode is a data error
too.  Nothing in a bundle depends on wall-clock time, so
identical builds are byte-identical.  The decoded partition arrays pass
``PartitionIndex.validate``, the same check build runs on its own output,
before search reads them as they are.

Format v3 stores three index components, each read with ``np.frombuffer``:

* ``codebook.f32``: the centroid matrix;
* ``assignment.i32``: the owner centroid of every repository vector, in row
  order; the per-centroid postings are rebuilt from it on load;
* ``partitions.bin``: as int32 the lengths of the ``PartitionIndex`` arrays
  ``group_ptr``, ``cascade_ptr``, ``cid_ptr``, ``member_ptr``,
  ``centroid_ids`` and ``members`` and the number of cascade rows, then
  those arrays as int32 and the cascade rows as float32.

A ``checksums`` that names any other file, or lacks one of the five, is a
data error, as is a bundle of another format version; it must be rebuilt.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .partitions import PartitionIndex
from .pipeline import SearchEngine, check_build_config
from .quantizer import ClusterAssignment, Codebook, build_indexes
from .repository import VectorSetRepository, ingest_repository, write_repository

FORMAT_NAME = "tusearch-bundle"
FORMAT_VERSION = 3

_REPO_STEM = "repository"
_MANIFEST = f"{_REPO_STEM}.tsv"
_PAYLOAD = f"{_REPO_STEM}.f32"
_CODEBOOK = "codebook.f32"
_ASSIGNMENT = "assignment.i32"
_PARTITIONS = "partitions.bin"
_META = "bundle.json"
_COMPONENTS = (_MANIFEST, _PAYLOAD, _CODEBOOK, _ASSIGNMENT, _PARTITIONS)

_PARTITION_ARRAYS = ("group_ptr", "cascade_ptr", "cid_ptr", "member_ptr", "centroid_ids", "members")
_PARTITION_HEAD = 4 * (len(_PARTITION_ARRAYS) + 1)


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
    partitions = lengths.tobytes() + b"".join(a.astype("<i4").tobytes() for a in arrays)
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
    *lengths, n_cascade = np.frombuffer(raw, dtype="<i4", count=len(_PARTITION_ARRAYS) + 1).tolist()
    n_ints = sum(lengths)
    expect = _PARTITION_HEAD + 4 * (n_ints + n_cascade * repo.dimension)
    if min(lengths + [n_cascade]) < 0 or len(raw) != expect:
        raise DataError(f"{_PARTITIONS} has {len(raw)} bytes, which its array lengths do not explain")
    ints = np.frombuffer(raw, dtype="<i4", count=n_ints, offset=_PARTITION_HEAD)
    arrays = dict(zip(_PARTITION_ARRAYS, np.split(ints, np.cumsum(lengths[:-1]))))
    cascade = np.frombuffer(raw, dtype="<f4", offset=_PARTITION_HEAD + 4 * n_ints)
    pindex = PartitionIndex(**arrays, cascade=cascade.reshape(n_cascade, repo.dimension))
    try:
        pindex.validate(repo.offsets, n_c)
    except DataError as exc:
        raise DataError(f"{_PARTITIONS}: {exc}") from None
    return pindex


def save_bundle(directory, engine: SearchEngine) -> Path:
    """Write every engine component under ``directory``; returns its path.
    The engine's ``build_config`` must pass ``check_build_config``, which
    is checked before any file is written."""
    config = check_build_config(engine.build_config)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_repository(engine.repo, directory, stem=_REPO_STEM)
    for name, raw in index_components(engine).items():
        (directory / name).write_bytes(raw)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": config,
        "checksums": {name: _sha256(directory / name) for name in _COMPONENTS},
    }
    (directory / _META).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return directory


def _read_meta(directory: Path) -> dict:
    """Parse and check ``bundle.json``: a current-format object whose
    checksums name exactly the five components and whose config passes
    ``check_build_config``; anything else is a data error."""
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
    for key in ("config", "checksums"):
        if not isinstance(meta.get(key), dict):
            raise DataError(f"{meta_path} lacks a dict {key!r}")
    missing = [name for name in _COMPONENTS if name not in meta["checksums"]]
    if missing:
        raise DataError(f"bundle checksums lack {', '.join(missing)}")
    unknown = sorted(set(meta["checksums"]) - set(_COMPONENTS))
    if unknown:
        raise DataError(f"bundle checksums name unknown components: {', '.join(map(repr, unknown))}")
    try:
        meta["config"] = check_build_config(meta["config"])
    except UsageError as exc:
        raise DataError(f"bundle config: {exc}") from None
    return meta


def _component(directory: Path, name: str) -> Path:
    """The path of a component; a missing file is a data error."""
    path = directory / name
    if not path.is_file():
        raise DataError(f"bundle component missing: {name}")
    return path


def load_bundle(directory) -> SearchEngine:
    """Verify and load a bundle directory back into a search engine."""
    directory = Path(directory)
    meta = _read_meta(directory)
    for name in _COMPONENTS:
        got, expect = _sha256(_component(directory, name)), meta["checksums"][name]
        if got != expect:
            raise DataError(f"bundle checksum mismatch for {name}: {got} != {expect}")
    config = meta["config"]
    n_c = config["n_c"]
    repo = ingest_repository(directory / _MANIFEST, payload=_PAYLOAD)  # reads no file outside the bundle
    raw = (directory / _CODEBOOK).read_bytes()
    if len(raw) != 4 * n_c * repo.dimension:
        raise DataError(f"{_CODEBOOK} holds {len(raw)} bytes, not {n_c} x {repo.dimension} float32")
    centroids = np.frombuffer(raw, dtype="<f4").reshape(n_c, repo.dimension)
    codebook = Codebook(centroids, train_seed=config["seed"])
    assignment = _read_assignment((directory / _ASSIGNMENT).read_bytes(), n_c, repo)
    pindex = _read_partitions((directory / _PARTITIONS).read_bytes(), n_c, repo)
    return SearchEngine(repo, codebook, assignment, build_indexes(assignment, n_c), pindex, config)


def component_sizes(directory) -> dict[str, int]:
    """On-disk byte size of each of the five bundle components; the
    metadata is checked and the files are not hashed."""
    directory = Path(directory)
    _read_meta(directory)
    return {name: _component(directory, name).stat().st_size for name in _COMPONENTS}
