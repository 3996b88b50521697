"""Property test of the bundle loader: damaged component bytes, with their
checksums rewritten to match, end in a ``TuSearchError`` and never in
another exception."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tusearch.bundle import load_bundle, save_bundle
from tusearch.errors import TuSearchError
from tusearch.pipeline import SearchParams, build_engine
from tusearch.repository import QueryTable, generate_synthetic


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small bundle's file bytes, a query, and a work directory."""
    repo = generate_synthetic(24, (2, 6), 8, 6, 0.1, seed=31).repository
    src = save_bundle(tmp_path_factory.mktemp("src") / "b", build_engine(repo, n_c=9, seed=1))
    files = {path.name: path.read_bytes() for path in src.iterdir()}
    return files, QueryTable(repo.vectors_of(3)), tmp_path_factory.mktemp("work")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_components_raise_only_tusearch_errors(pristine, data):
    files, query, work = pristine
    meta = json.loads(files["bundle.json"])
    name = data.draw(st.sampled_from(sorted(meta["checksums"])), label="component")
    raw = bytearray(files[name])
    if data.draw(st.booleans(), label="flip"):
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
    else:
        del raw[data.draw(st.integers(0, len(raw) - 1), label="keep") :]
    for fname, content in files.items():
        (work / fname).write_bytes(content)
    (work / name).write_bytes(bytes(raw))
    meta["checksums"][name] = hashlib.sha256(raw).hexdigest()
    (work / "bundle.json").write_text(json.dumps(meta))
    try:
        engine = load_bundle(work)
    except TuSearchError:
        return
    # a change the decoder cannot tell from valid data must still search
    try:
        engine.search(query, SearchParams(k=3, tau=0.7, phi_c=4))
    except TuSearchError:
        pass
