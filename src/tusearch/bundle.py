"""Index bundle persistence.

A bundle is a directory holding the canonical repository export plus every
index component in little-endian binary form, described by a single
``bundle.json`` carrying the format version, the build configuration, and
a sha256 checksum per component file.  Loading verifies the version first
and every checksum second, before any parsing; a component that then fails
to decode is a data error too.  Nothing in a bundle depends on wall-clock
time, so identical builds are byte-identical.

Bundles written before the centroid graph was removed may list a
``graph.bin`` component: its checksum is verified, and the file is then
ignored.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .partitions import PartitionGroup, PartitionIndex, PartitionSet
from .pipeline import SearchEngine
from .quantizer import Codebook, ClusterAssignment, SetWeightIndex, VectorInvertedIndex
from .repository import VectorSetRepository, ingest_repository, write_repository

FORMAT_NAME = "tusearch-bundle"
FORMAT_VERSION = 1

_REPO_STEM = "repository"
_CODEBOOK = "codebook.f32"
_VECTOR_INDEX = "vector_index.bin"
_WEIGHT_INDEX = "weight_index.bin"
_PARTITIONS = "partitions.bin"
_META = "bundle.json"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _pack_vector_index(iv: VectorInvertedIndex) -> bytes:
    offsets = np.zeros(iv.n_c + 1, dtype="<i8")
    blocks = []
    total = 0
    for c in range(iv.n_c):
        arr = iv.lists.get(c)
        n = 0 if arr is None else len(arr)
        total += n
        offsets[c + 1] = total
        if n:
            blocks.append(arr.astype("<i4").tobytes())
    return offsets.tobytes() + b"".join(blocks)


def _unpack_vector_index(
    raw: bytes, n_c: int, repo: VectorSetRepository
) -> tuple[VectorInvertedIndex, ClusterAssignment]:
    """The centroid -> vectors lists, and the owner of every repository
    vector read back from them; the handles must cover each vector once."""
    head = (n_c + 1) * 8
    if len(raw) < head or (len(raw) - head) % 8:
        raise DataError(f"{_VECTOR_INDEX} has a bad length: {len(raw)} bytes for {n_c} centroids")
    offsets = np.frombuffer(raw[:head], dtype="<i8")
    handles = np.frombuffer(raw[head:], dtype="<i4").reshape(-1, 2)
    if offsets[0] != 0 or offsets[-1] != len(handles) or (np.diff(offsets) < 0).any():
        raise DataError(f"{_VECTOR_INDEX} offsets do not span its handles")
    sets, within = handles[:, 0].astype(np.int64), handles[:, 1].astype(np.int64)
    if ((sets < 0) | (sets >= repo.n_sets)).any():
        raise DataError(f"{_VECTOR_INDEX} names a set outside the repository")
    if ((within < 0) | (within >= repo.sizes()[sets])).any():
        raise DataError(f"{_VECTOR_INDEX} names a vector outside its set")
    rows = repo.offsets[sets] + within
    if len(rows) != repo.total_vectors or (np.bincount(rows, minlength=len(rows)) != 1).any():
        raise DataError(f"{_VECTOR_INDEX} does not hold each repository vector once")
    flat = np.empty(repo.total_vectors, dtype=np.int32)
    lists = {}
    for c in range(n_c):
        lo, hi = offsets[c], offsets[c + 1]
        if hi > lo:
            lists[c] = handles[lo:hi].astype(np.int32)
            flat[rows[lo:hi]] = c
    return VectorInvertedIndex(lists, n_c=n_c), ClusterAssignment(flat, repo.offsets.copy())


def _pack_weight_index(iw: SetWeightIndex, n_sets: int) -> bytes:
    offsets = np.zeros(n_sets + 1, dtype="<i8")
    cids = []
    counts = []
    total = 0
    for sid in range(n_sets):
        entries = sorted(iw.weights.get(sid, {}).items())
        total += len(entries)
        offsets[sid + 1] = total
        cids.extend(c for c, _ in entries)
        counts.extend(n for _, n in entries)
    return (
        offsets.tobytes()
        + np.asarray(cids, dtype="<i4").tobytes()
        + np.asarray(counts, dtype="<i4").tobytes()
    )


def _unpack_weight_index(raw: bytes, n_sets: int) -> SetWeightIndex:
    head = (n_sets + 1) * 8
    if len(raw) < head:
        raise DataError(f"{_WEIGHT_INDEX} has a bad length: {len(raw)} bytes for {n_sets} sets")
    offsets = np.frombuffer(raw[:head], dtype="<i8")
    total = int(offsets[-1])
    if offsets[0] != 0 or (np.diff(offsets) < 0).any() or len(raw) != head + 8 * total:
        raise DataError(f"{_WEIGHT_INDEX} offsets do not span its entries")
    cids = np.frombuffer(raw[head : head + 4 * total], dtype="<i4")
    counts = np.frombuffer(raw[head + 4 * total : head + 8 * total], dtype="<i4")
    weights = {}
    for sid in range(n_sets):
        lo, hi = offsets[sid], offsets[sid + 1]
        weights[sid] = {int(cids[e]): int(counts[e]) for e in range(lo, hi)}
    return SetWeightIndex(weights)


def _pack_partitions(pindex: PartitionIndex, n_sets: int) -> bytes:
    out = [struct.pack("<dd", pindex.rho_low, pindex.rho_high)]
    for sid in range(n_sets):
        pset = pindex.entries[sid]
        cascade = np.ascontiguousarray(pset.cascade_centroids, dtype="<f4")
        out.append(struct.pack("<iii", len(pset.groups), cascade.shape[0], cascade.shape[1]))
        for g in pset.groups:
            out.append(struct.pack("<ii", len(g.centroid_ids), len(g.member_indices)))
            out.append(np.asarray(g.centroid_ids, dtype="<i4").tobytes())
            out.append(g.member_indices.astype("<i4").tobytes())
        out.append(cascade.tobytes())
    return b"".join(out)


def _unpack_partitions(raw: bytes, n_c: int, repo: VectorSetRepository) -> PartitionIndex:
    """Struct and buffer errors from a short payload are left to the caller;
    counts and centroid ids that would decode silently wrong are checked here."""
    pos = 0
    rho_low, rho_high = struct.unpack_from("<dd", raw, pos)
    pos += 16
    entries = {}
    for sid in range(repo.n_sets):
        n_groups, n_casc, d_casc = struct.unpack_from("<iii", raw, pos)
        pos += 12
        if n_groups < 0 or n_casc < 0 or d_casc != repo.dimension:
            raise DataError(f"{_PARTITIONS}: bad header for set {sid}")
        groups = []
        for gid in range(n_groups):
            n_cids, n_members = struct.unpack_from("<ii", raw, pos)
            pos += 8
            if n_cids < 1 or n_members < 0:
                raise DataError(f"{_PARTITIONS}: bad group header in set {sid}")
            cids = tuple(np.frombuffer(raw, dtype="<i4", count=n_cids, offset=pos).tolist())
            pos += 4 * n_cids
            if min(cids) < 0 or max(cids) >= n_c + n_casc:
                raise DataError(f"{_PARTITIONS}: centroid id out of range in set {sid}")
            members = np.frombuffer(raw, dtype="<i4", count=n_members, offset=pos)
            pos += 4 * n_members
            groups.append(PartitionGroup(gid, cids, members.astype(np.int32)))
        cascade = np.frombuffer(raw, dtype="<f4", count=n_casc * d_casc, offset=pos).reshape(n_casc, d_casc)
        pos += 4 * n_casc * d_casc
        entries[sid] = PartitionSet(sid, groups, cascade.astype(np.float32))
    if pos != len(raw):
        raise DataError(f"{_PARTITIONS}: {len(raw) - pos} trailing bytes")
    return PartitionIndex(entries, rho_low, rho_high)


def save_bundle(directory, engine: SearchEngine) -> Path:
    """Write every engine component under ``directory``; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_repository(engine.repo, directory, stem=_REPO_STEM)
    (directory / _CODEBOOK).write_bytes(engine.codebook.centroids.astype("<f4").tobytes())
    (directory / _VECTOR_INDEX).write_bytes(_pack_vector_index(engine.vector_index))
    (directory / _WEIGHT_INDEX).write_bytes(_pack_weight_index(engine.weight_index, engine.repo.n_sets))
    (directory / _PARTITIONS).write_bytes(_pack_partitions(engine.partition_index, engine.repo.n_sets))
    components = [
        f"{_REPO_STEM}.tsv", f"{_REPO_STEM}.f32",
        _CODEBOOK, _VECTOR_INDEX, _WEIGHT_INDEX, _PARTITIONS,
    ]
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
    codebook = Codebook(centroids.astype(np.float32), train_seed=seed)
    iv, assignment = _unpack_vector_index((directory / _VECTOR_INDEX).read_bytes(), n_c, repo)
    iw = _unpack_weight_index((directory / _WEIGHT_INDEX).read_bytes(), repo.n_sets)
    raw = (directory / _PARTITIONS).read_bytes()
    try:
        pindex = _unpack_partitions(raw, n_c, repo)
    except (struct.error, ValueError) as exc:  # a count runs past the end of the payload
        raise DataError(f"{_PARTITIONS} is truncated or malformed: {exc}") from None
    return SearchEngine(repo, codebook, assignment, iv, iw, pindex, config)


def component_sizes(directory) -> dict[str, int]:
    """On-disk byte size per bundle component."""
    directory = Path(directory)
    meta = _read_meta(directory)
    return {name: (directory / name).stat().st_size for name in meta["components"]}
