"""Vector-set repositories: data model, manifest ingestion, synthetic data.

A repository holds one vector set per source table, one vector per column.
Vectors are normalized to unit length exactly once, at ingest time, so every
similarity in the engine is a plain inner product and a threshold in (0, 1]
is meaningful.  Payloads are stored as little-endian float32; all score
accumulation happens in float64.

Manifest format (tab separated)::

    VSETS v1<TAB>dimension=<d>
    <set_id><TAB><num_vectors><TAB><payload_path><TAB><byte_offset>

Payload files are raw little-endian float32, row major, ``num_vectors * d``
values per record starting at ``byte_offset``.  Query tables use the same
format with a single record.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError

MANIFEST_MAGIC = "VSETS v1"
ZERO_NORM = 1e-12
UNIT_TOL = 1e-6
# Rounding a unit float64 row to float32 moves its norm by at most 2**-24,
# half this tolerance.  A row already this close to unit length is kept as
# it is: dividing it again would move it by an ulp, and a saved repository
# would not load back as the same vectors.
UNIT_ROUNDING = float(np.finfo(np.float32).eps)


def normalize_rows(rows: np.ndarray, where: str = "input", offsets=None) -> np.ndarray:
    """Normalize each row to unit length, returning float32.  Rows already
    unit within ``UNIT_ROUNDING`` are only converted, so normalizing twice
    gives the rows of normalizing once.

    Raises DataError for non-finite entries or rows with norm below
    ``ZERO_NORM`` (which cannot be normalized).  ``where`` names the vector
    set in error messages; with ``offsets``, the rows are the sets
    ``offsets[i]:offsets[i + 1]`` and a message names ``{where} {i}`` and
    the index within that set.
    """
    # widening a signalling NaN sets the invalid flag; the NaN it becomes
    # is refused below
    with np.errstate(invalid="ignore"):
        rows64 = np.asarray(rows, dtype=np.float64)
    if rows64.ndim != 2:
        raise DataError(f"expected a 2-d vector block for {where}")

    def at(j: int) -> str:
        if offsets is None:
            return f"{where}, index {j}"
        i = int(np.searchsorted(offsets, j, side="right")) - 1
        return f"{where} {i}, index {j - int(offsets[i])}"

    finite = np.isfinite(rows64).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite vector at {at(int(np.flatnonzero(~finite)[0]))}")
    norms = np.linalg.norm(rows64, axis=1)
    small = norms < ZERO_NORM
    if small.any():
        raise DataError(f"zero vector at {at(int(np.flatnonzero(small)[0]))}")
    norms[np.abs(norms - 1.0) <= UNIT_ROUNDING] = 1.0
    return (rows64 / norms[:, None]).astype(np.float32)


@dataclass(frozen=True)
class QueryTable:
    """The query table's columns as unit vectors.  Construction checks that
    the rows form a non-empty 2-d array of finite, unit-length vectors
    (within ``UNIT_TOL``); anything else is a data error."""

    vectors: np.ndarray  # (m, d) float32, unit rows

    def __post_init__(self):
        rows = np.asarray(self.vectors)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DataError(f"query table must be a non-empty 2-d array, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise DataError("query table has non-finite entries")
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
        off = np.abs(norms - 1.0) > UNIT_TOL
        if off.any():
            j = int(np.flatnonzero(off)[0])
            raise DataError(f"query column {j} has norm {norms[j]:.9g}, not unit length")
        object.__setattr__(self, "vectors", rows)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


class VectorSetRepository:
    """Immutable collection of vector sets sharing one dimension.

    Vectors are stored in one contiguous (total_vectors, d) float32 matrix;
    set ``i`` owns rows ``offsets[i]:offsets[i+1]``.  Set ids are dense in
    ``[0, n_sets)``.  Safe for concurrent reads after construction.
    """

    def __init__(self, matrix: np.ndarray, offsets: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        offsets = np.asarray(offsets, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise DataError("repository matrix must be 2-d with dimension >= 1")
        if offsets.ndim != 1 or offsets[0] != 0 or offsets[-1] != matrix.shape[0]:
            raise DataError("repository offsets must span the vector matrix")
        sizes = np.diff(offsets)
        if (sizes < 1).any():
            sid = int(np.flatnonzero(sizes < 1)[0])
            raise DataError(f"empty vector set {sid}")
        self.matrix = matrix
        self.offsets = offsets

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_sets(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_vectors(self) -> int:
        return self.matrix.shape[0]

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def size_of(self, set_id: int) -> int:
        return int(self.offsets[set_id + 1] - self.offsets[set_id])

    def vectors_of(self, set_id: int) -> np.ndarray:
        if not 0 <= set_id < self.n_sets:
            raise DataError(f"unknown set_id {set_id} (repository has {self.n_sets} sets)")
        return self.matrix[self.offsets[set_id] : self.offsets[set_id + 1]]

    def __len__(self) -> int:
        return self.n_sets


def _parse_manifest(manifest_path):
    """The dimension, the records by set id with payload names as written,
    and the directory those names are relative to."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    try:
        lines = manifest_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest is not UTF-8 text: {manifest_path}: {exc}") from None
    if not lines:
        raise DataError(f"empty manifest: {manifest_path}")
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != MANIFEST_MAGIC or not header[1].startswith("dimension="):
        raise DataError(f"bad manifest header: {lines[0]!r}")
    try:
        dimension = int(header[1].split("=", 1)[1])
    except ValueError:
        raise DataError(f"bad manifest dimension: {header[1]!r}") from None
    if dimension < 1:
        raise DataError(f"manifest dimension must be >= 1, got {dimension}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"bad manifest record at line {lineno}: {line!r}")
        try:
            set_id, count, offset = int(parts[0]), int(parts[1]), int(parts[3])
        except ValueError:
            raise DataError(f"bad manifest record at line {lineno}: {line!r}") from None
        if count < 1:
            raise DataError(f"empty vector set {set_id}")
        if offset < 0:
            raise DataError(f"negative payload offset at line {lineno}: {offset}")
        records.append((set_id, count, parts[2], offset))
    if not records:
        raise DataError(f"manifest has no records: {manifest_path}")
    ids = sorted(r[0] for r in records)
    if ids != list(range(len(records))):
        raise DataError("set_ids must be unique and dense in [0, n)")
    records.sort(key=lambda r: r[0])
    return dimension, records, manifest_path.parent


def _read_rows(records, dimension: int, directory: Path) -> np.ndarray:
    """The records' payload rows, stacked in record order; payload names
    are relative to ``directory``, and each payload file is read once."""
    files: dict[str, bytes] = {}
    blocks = []
    for set_id, count, name, offset in records:
        raw = files.get(name)
        if raw is None:
            payload = directory / name
            if not payload.is_file():
                raise DataError(f"payload not found: {payload}")
            raw = files[name] = payload.read_bytes()
        n_bytes = count * dimension * 4
        if offset + n_bytes > len(raw):
            raise DataError(
                f"payload too short for set {set_id}: need {n_bytes} bytes at offset {offset} in {directory / name}"
            )
        blocks.append(np.frombuffer(raw, dtype="<f4", count=count * dimension, offset=offset))
    return np.concatenate(blocks).reshape(-1, dimension)


def _offsets(records) -> np.ndarray:
    return np.concatenate([[0], np.cumsum([count for _, count, _, _ in records])])


def ingest_repository(manifest_path, *, payload: str | None = None) -> VectorSetRepository:
    """Load and normalize a repository from a manifest.

    Deterministic given identical input bytes; every vector comes out with
    unit norm (within float32 representation).  With ``payload`` given,
    every record must name that payload file, which is checked before any
    payload is read.
    """
    dimension, records, directory = _parse_manifest(manifest_path)
    for _, _, name, _ in records:
        if payload is not None and name != payload:
            raise DataError(f"{Path(manifest_path).name} names payload {name!r}, not {payload}")
    offsets = _offsets(records)
    rows = normalize_rows(_read_rows(records, dimension, directory), where="set", offsets=offsets)
    return VectorSetRepository(rows, offsets)


def load_query_table(manifest_path) -> QueryTable:
    """Load a single-record manifest as a query table."""
    dimension, records, directory = _parse_manifest(manifest_path)
    if len(records) != 1:
        raise DataError(f"query manifest must contain exactly one record, got {len(records)}")
    return QueryTable(normalize_rows(_read_rows(records, dimension, directory), where="query"))


def load_query_tables(manifest_path) -> list[QueryTable]:
    """Load a multi-record manifest as a list of query tables (one per record)."""
    dimension, records, directory = _parse_manifest(manifest_path)
    offsets = _offsets(records)
    rows = normalize_rows(_read_rows(records, dimension, directory), where="query", offsets=offsets)
    return [QueryTable(rows[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


def write_repository(repo: VectorSetRepository, directory, stem: str = "repository") -> Path:
    """Write a repository in manifest + payload form; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload_name = f"{stem}.f32"
    (directory / payload_name).write_bytes(repo.matrix.astype("<f4").tobytes())
    lines = [f"{MANIFEST_MAGIC}\tdimension={repo.dimension}"]
    for sid in range(repo.n_sets):
        start = int(repo.offsets[sid])
        count = repo.size_of(sid)
        lines.append(f"{sid}\t{count}\t{payload_name}\t{start * repo.dimension * 4}")
    manifest = directory / f"{stem}.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@dataclass(frozen=True)
class SyntheticData:
    """A generated repository plus the topic diagnostics behind it."""

    repository: VectorSetRepository
    topic_labels: list[np.ndarray]  # per set, topic id of each column
    topics: np.ndarray  # (n_topics, d) float32 unit rows as they appear in sets


def generate_synthetic(
    n_sets: int,
    cols_range: tuple[int, int],
    d: int,
    n_topics: int,
    noise: float,
    seed: int,
) -> SyntheticData:
    """Generate a clustered repository: each column is a noisy copy of one of
    ``n_topics`` unit topic directions.  Reproducible from ``seed``."""
    lo, hi = int(cols_range[0]), int(cols_range[1])
    # NaN fails both comparisons of the noise test
    seed_ok = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0
    if n_sets < 1 or d < 2 or n_topics < 1 or not 0 <= noise < np.inf or lo < 1 or hi < lo or not seed_ok:
        raise UsageError(
            "invalid synthetic parameters: need n_sets>=1, d>=2, n_topics>=1, "
            "finite noise>=0, 1<=cols_lo<=cols_hi, integer seed>=0"
        )
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_topics, d))
    topics64 = raw / np.linalg.norm(raw, axis=1)[:, None]
    blocks = []
    labels = []
    offsets = [0]
    for _ in range(n_sets):
        m = int(rng.integers(lo, hi + 1))
        tids = rng.integers(0, n_topics, size=m)
        vecs = topics64[tids]
        if noise > 0:
            vecs = vecs + noise * rng.standard_normal((m, d))
        blocks.append(normalize_rows(vecs, where="synthetic"))
        labels.append(tids.astype(np.int32))
        offsets.append(offsets[-1] + m)
    repo = VectorSetRepository(np.vstack(blocks), np.asarray(offsets))
    return SyntheticData(repo, labels, normalize_rows(topics64, where="topics"))


def split_repository(repo: VectorSetRepository, n_first: int):
    """Split a repository into its first ``n_first`` sets and the rest."""
    if not 0 < n_first < repo.n_sets:
        raise UsageError(f"split point {n_first} out of range for {repo.n_sets} sets")
    cut = int(repo.offsets[n_first])
    first = VectorSetRepository(repo.matrix[:cut], repo.offsets[: n_first + 1])
    rest = VectorSetRepository(repo.matrix[cut:], repo.offsets[n_first:] - cut)
    return first, rest
