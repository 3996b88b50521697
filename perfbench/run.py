"""Layer-resolved benchmark of tusearch: build, bundle round trip and search.

Usage (from the repository root)::

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 10 --trace 0

One run generates the workload's tables and queries from ``--seed``, drives
the program through its public API (``ingest_repository`` ->
``build_engine`` -> ``save_bundle`` -> ``load_bundle`` ->
``SearchEngine.search``), checks every answer against the benchmark's own
exact oracle, then sends the queries in a closed loop (one client, one
thread, each query after the previous one returns) for at least
``--seconds`` seconds and 200 queries.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans around every layer's public functions give the per-layer ones, and
spans are written to ``.perfbench_out/<workload>/spans.jsonl``.
"""

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads, so BLAS does not compete with the
# single query thread for the machine's cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator, rescale  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "recall_at_10": "fraction",
    "setup_s": "s",
    "load_s": "s",
    "index_bytes": "bytes",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "repository.ingest_s": "s",
    "quantizer.train_s": "s",
    "quantizer.train_iters": "count",
    "quantizer.assign_s": "s",
    "quantizer.index_s": "s",
    "partitions.build_s": "s",
    "partitions.merge_sets": "count",
    "partitions.plain_sets": "count",
    "partitions.cascade_sets": "count",
    "partitions.groups": "count",
    "centroid_ann.top_s": "s",
    "centroid_ann.calls": "count",
    "refinement.refine_s": "s",
    "refinement.events": "count",
    "refinement.accepted": "count",
    "refinement.accept_ratio": "fraction",
    "mwmto.sims_s": "s",
    "mwmto.sims_calls": "count",
    "mwmto.bounds_s": "s",
    "mwmto.bounds_calls": "count",
    "mwmto.exact_s": "s",
    "mwmto.exact_calls": "count",
    "matching.exact_s": "s",
    "matching.exact_calls": "count",
    "pipeline.refine_s": "s",
    "pipeline.filter_s": "s",
    "pipeline.score_s": "s",
    "pipeline.score_other_s": "s",
    "pruning.filter_useful_ratio": "fraction",
    "pruning.score_useful_ratio": "fraction",
    "pruning.depq_ops": "count",
    "bundle.save_s": "s",
    "bundle.load_repository_s": "s",
    "bundle.load_index_s": "s",
    "bundle.codebook_bytes": "bytes",
    "bundle.vector_index_bytes": "bytes",
    "bundle.weight_index_bytes": "bytes",
    "bundle.partitions_bytes": "bytes",
    "trace.overhead_ms": "ms",
}

# (module, function, span name).  Each function is wrapped where its caller
# looks it up, so the span sits on the boundary between two layers.
HOOKS = [
    ("tusearch.quantizer", "train_codebook", "quantizer.train"),
    ("tusearch.quantizer", "assign_all", "quantizer.assign"),
    ("tusearch.quantizer", "build_indexes", "quantizer.index"),
    ("tusearch.partitions", "build_partition_index", "partitions.build"),
    ("tusearch.bundle", "ingest_repository", "bundle.load_repository"),
    ("tusearch.pipeline", "top_centroids", "centroid_ann.top"),
    ("tusearch.pipeline", "refine", "refinement.refine"),
    ("tusearch.pipeline", "run_pruner", "pruning.run"),
    ("tusearch.pipeline", "partition_sims", "mwmto.sims"),
    ("tusearch.pipeline", "bounds_for_mwmto", "mwmto.bounds"),
    ("tusearch.pipeline", "mwmto_exact", "mwmto.exact"),
    ("tusearch.matching", "unionability", "matching.exact"),
]

# Spans a traced run must record: a layer that is never entered reads 0.
# Every search enters each of the query-side ones.
BUILD_SPANS = ("quantizer.train", "quantizer.assign", "quantizer.index", "partitions.build",
               "bundle.load_repository")
SEARCH_SPANS = ("centroid_ann.top", "refinement.refine", "pruning.run", "mwmto.sims",
                "matching.exact")

K, TAU, PHI_C = 10, 0.7, 32
BUILD_SEED = 0  # fixed, so a workload seed changes the inputs and not the build's own draws
MIN_SAMPLES = 200  # p95 then has at least ten samples beyond it
LOAD_UNITS = 10  # calibration units timed on each side of a bundle load
RELOAD_EVERY_S = 2.0  # the closed loop reloads the bundle this often
SLICE_QUERIES = 6  # queries of the exactness-limit check
PRUNER_QUERIES = 8  # queries answered again by the bf and base pruners
REFINE_TRACE_QUERIES = 10  # evenly spaced queries drained with a RefinementTrace
SCORE_TOL = 1e-9
# A loaded engine's vectors can differ from the built engine's by one float32
# ulp (load_bundle normalizes the repository export again), which moves
# scores in the ninth digit; answers of the two must agree to this.
RELOAD_TOL = 1e-6
OUT_DIR = ROOT / ".perfbench_out"

BUNDLE_FILES = {
    "bundle.codebook_bytes": "codebook.f32",
    "bundle.vector_index_bytes": "vector_index.bin",
    "bundle.weight_index_bytes": "weight_index.bin",
    "bundle.partitions_bytes": "partitions.bin",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def same_answer(a, b) -> bool:
    """Same (id, cardinality) in the same order, scores within RELOAD_TOL."""
    return len(a) == len(b) and all(
        x[0] == y[0] and x[2] == y[2] and abs(x[1] - y[1]) <= RELOAD_TOL for x, y in zip(a, b)
    )


def lossier(a, b) -> bool:
    """Answer ``a`` has fewer results than ``b``, or a lower score at some
    rank beyond SCORE_TOL: what lossy pruning would show."""
    return len(a) < len(b) or any(x[1] < y[1] - SCORE_TOL for x, y in zip(a, b))


def import_program():
    """Import tusearch from this checkout's ``src``; exit 2 when it is absent."""
    try:
        import tusearch
        import tusearch.bundle
        import tusearch.partitions
        import tusearch.refinement
    except ImportError as exc:
        log(f"perfbench: cannot import tusearch from {ROOT / 'src'}: {exc}")
        sys.exit(2)
    if ROOT / "src" not in Path(tusearch.__file__).resolve().parents:
        log(f"perfbench: tusearch imported from {tusearch.__file__}, not from this checkout")
        sys.exit(2)
    return tusearch


class Run:
    """One workload run: set-up, checks, closed loop and metrics."""

    def __init__(self, ts, shape: workloads.Shape, seed: int, seconds: float, trace: bool):
        self.ts = ts
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.hooked = False
        self.cal = Calibrator()
        self.failures: list[str] = []
        self.params = ts.SearchParams(k=K, tau=TAU, phi_c=PHI_C, pruner="enhanced")
        self.work = OUT_DIR / shape.name
        self.bundle_dir = self.work / "bundle"
        self.engine = None
        self.load_scaled: list[float] = []
        self.load_raw: list[float] = []
        self.load_splits: list[tuple[float, float]] = []  # traced loads: (total, repository part)

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            log(f"perfbench: check failed: {msg}")
        self.failures.append(msg)

    def hook(self, on: bool) -> None:
        """Install or remove the layer spans (traced runs only)."""
        if self.tracer is None or on == self.hooked:
            return
        if on:
            for module, attr, name in HOOKS:
                if not self.tracer.hook(module, attr, name):
                    self.fail(f"no function {module}.{attr} to trace as {name}")
        else:
            self.tracer.unhook_all()
        self.hooked = on

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn; returns (result, seconds), inside a span when tracing."""
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = self.tracer.span(name, fn, *args, **kwargs)
        return out, time.perf_counter() - t0

    # -- phases ---------------------------------------------------------------

    def setup(self, import_s: float):
        """The work of ``tusearch build``: ingest, build, save.  Timed cold,
        once per process, and added to the program's import time."""
        ts = self.ts
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = workloads.generate(self.shape, self.seed)
        manifest = workloads.write_manifest(self.inputs.tables, self.work / "input")
        repo, self.ingest_s = self.timed("repository.ingest", ts.ingest_repository, manifest)
        engine, build_s = self.timed(
            "build_engine", ts.build_engine, repo, n_c=self.shape.n_c, seed=BUILD_SEED
        )
        _, self.save_s = self.timed("bundle.save", ts.bundle.save_bundle, self.bundle_dir, engine)
        self.setup_s = import_s + self.ingest_s + build_s + self.save_s
        return engine

    def layout_counts(self, engine) -> dict:
        """Partition branch mix by the public ``dispersion`` rule."""
        from tusearch.partitions import dispersion

        lo = engine.build_config.get("rho_low", 0.2)
        hi = engine.build_config.get("rho_high", 0.8)
        mix = {"merge": 0, "plain": 0, "cascade": 0}
        groups = 0
        for sid in range(engine.repo.n_sets):
            rho = dispersion(engine.assignment.set_owners(sid))
            mix["cascade" if rho <= lo else "merge" if rho >= hi else "plain"] += 1
            groups += len(engine.partition_index.of(sid).groups)
        return {
            "partitions.merge_sets": mix["merge"],
            "partitions.plain_sets": mix["plain"],
            "partitions.cascade_sets": mix["cascade"],
            "partitions.groups": groups,
            "quantizer.train_iters": len(engine.codebook.inertia_history),
        }

    def load(self):
        """One bundle load between two calibration blocks."""
        self.engine = None
        gc.collect()
        first = len(self.tracer.names) if self.tracer else 0
        before = self.cal.units(LOAD_UNITS)
        engine, dt = self.timed("bundle.load", self.ts.bundle.load_bundle, self.bundle_dir)
        self.load_scaled.append(rescale(dt, before, self.cal.units(LOAD_UNITS)))
        self.load_raw.append(dt)
        if self.hooked:
            names = self.tracer.names
            part = sum(self.tracer.duration(s) for s in range(first, len(names))
                       if names[s] == "bundle.load_repository")
            self.load_splits.append((dt, part))
        self.engine = engine

    def check_answers(self) -> None:
        """The checks that need the exact oracle, on the answers the loaded
        engine gave in the first round of the closed loop."""
        ts = self.ts
        engine = self.engine
        repo = engine.repo
        stored = np.vstack(self.inputs.tables)
        if repo.matrix.shape != stored.shape or not np.allclose(repo.matrix, stored, atol=1e-6):
            self.fail("ingested vectors differ from the generated tables")
        want = min(K, repo.n_sets)
        matrix64 = repo.matrix.astype(np.float64)
        recalls = []
        for qi, q in enumerate(self.inputs.queries):
            exact = oracle.QueryOracle(q, matrix64, repo.offsets, TAU)
            truth = exact.top_k(want)
            items = self.expected[qi]
            if items is None:
                continue
            ids = [sid for sid, _, _ in items]
            recalls.append(len(set(ids) & {sid for sid, _, _ in truth}) / want)
            if len(ids) != want or len(set(ids)) != len(ids):
                self.fail(f"query {qi}: {len(ids)} results, {len(set(ids))} distinct, want {want}")
            scores = [score for _, score, _ in items]
            if scores != sorted(scores, reverse=True):
                self.fail(f"query {qi}: results not sorted by score")
            for sid, score, card in items:
                if not card * TAU - SCORE_TOL <= score <= card + SCORE_TOL:
                    self.fail(f"query {qi} set {sid}: score {score} outside [{card}*tau, {card}]")
                best_card, best_weight = exact.score(sid)
                if (card, score) > (best_card, best_weight + SCORE_TOL):
                    self.fail(
                        f"query {qi} set {sid}: ({card}, {score}) beats the exact "
                        f"({best_card}, {best_weight})"
                    )
            for pruner in ("bf", "base") if qi < PRUNER_QUERIES else ():
                other = engine.search(
                    ts.QueryTable(q), ts.SearchParams(k=K, tau=TAU, phi_c=PHI_C, pruner=pruner)
                ).items
                if lossier(items, other):
                    self.fail(f"query {qi}: enhanced pruning gives {items}, "
                              f"{pruner} gives the better {other}")
                elif [s for s, _, _ in other] != ids or any(
                    abs(a[1] - b[1]) > SCORE_TOL for a, b in zip(other, items)
                ):
                    # bf and base can miss a better set on a few seeds (see
                    # the README); that fails some runs and not others, so
                    # it is reported and not counted.
                    log(f"perfbench: pruners disagree: query {qi}: {pruner} gives {other}, "
                        f"enhanced gave {items}")
        self.recall = float(np.mean(recalls))

    def check_exactness_limit(self) -> None:
        """On a prefix of the repository, with partitioning off and every pool
        at its maximum, the pipeline's top-k scores equal the oracle's."""
        ts = self.ts
        repo = self.engine.repo
        n = min(self.shape.slice_sets, repo.n_sets)
        cut = int(repo.offsets[n])
        part = ts.VectorSetRepository(repo.matrix[:cut], repo.offsets[: n + 1])
        engine = ts.build_engine(part, n_c=self.shape.n_c, seed=BUILD_SEED, single_partition=True)
        params = ts.SearchParams(
            k=K, tau=TAU, phi_c=engine.codebook.n_c, phi_ref=n, phi_r=n, pruner="enhanced"
        )
        matrix64 = part.matrix.astype(np.float64)
        for qi, q in enumerate(self.inputs.queries[:SLICE_QUERIES]):
            exact = oracle.QueryOracle(q, matrix64, part.offsets, TAU)
            truth = [w for _, w, _ in exact.top_k(min(K, n))]
            got = [s for _, s, _ in engine.search(ts.QueryTable(q), params).items]
            if len(got) != len(truth) or any(abs(a - b) > SCORE_TOL for a, b in zip(got, truth)):
                self.fail(f"query {qi}: exactness limit scores {got} != oracle {truth}")

    def refine_counts(self) -> dict:
        """Stage-1 drain counts from the program's own ``RefinementTrace``,
        which records every set touch in Python, hence the sample of queries."""
        from tusearch.refinement import RefinementTrace

        engine = self.engine
        queries = self.inputs.queries
        sample = queries[:: max(1, len(queries) // REFINE_TRACE_QUERIES)]
        events = accepted = touches = 0
        for q in sample:
            trace = RefinementTrace()
            engine.refine(self.ts.QueryTable(q), self.params, trace=trace)
            events += len(trace.events)
            accepted += len(trace.accepted)
            touches += sum(len(engine.postings[cid][0]) for _, cid, _ in trace.events)
        nq = len(sample)
        return {
            "refinement.events": events / nq,
            "refinement.accepted": accepted / nq,
            "refinement.accept_ratio": accepted / max(1, touches),
        }

    def closed_loop(self):
        """Whole rounds over the query set until both the time and the sample
        floor are reached.  The first round's answers must equal the built
        engine's.  The bundle is loaded again every RELOAD_EVERY_S, between
        two queries, so load times are sampled across the whole run, and
        every answer must equal the first round's.  A calibration unit runs
        between consecutive queries; each query's wall time is rescaled by
        the mean of the units on either side of it.  In a traced run, rounds
        alternate untraced and traced so the tracing overhead is measured
        under the same conditions."""
        queries = [self.ts.QueryTable(q) for q in self.inputs.queries]
        self.expected = []
        plain, traced, diags, roots = [], [], [], []
        raw, units = [], []
        self.attempted = self.failed = 0
        start = last_load = time.perf_counter()
        rounds = 0
        while True:
            tracing = self.tracer is not None and rounds % 2 == 1
            self.hook(tracing)
            unit_before = self.cal.unit()
            for qi, query in enumerate(queries):
                if time.perf_counter() - last_load >= RELOAD_EVERY_S:
                    self.load()
                    last_load = time.perf_counter()
                    unit_before = self.cal.unit()
                self.attempted += 1
                root = self.tracer.open("search") if tracing else -1
                t0 = time.perf_counter()
                try:
                    result = self.engine.search(query, self.params)
                except Exception as exc:  # one failed query must not end the run
                    self.failed += 1
                    self.fail(f"query {qi}: search raised {exc!r}")
                    if not rounds:
                        self.expected.append(None)
                    continue
                finally:
                    wall = time.perf_counter() - t0
                    if tracing:
                        self.tracer.close(root)
                unit_after = self.cal.unit()
                (traced if tracing else plain).append(rescale(wall, unit_before, unit_after))
                raw.append(wall)
                units.append(unit_after)
                unit_before = unit_after
                if tracing:
                    roots.append(root)
                    diags.append(result.diagnostics)
                if not rounds:
                    self.expected.append(result.items)
                    if not same_answer(result.items, self.memory_items[qi]):
                        self.failed += 1
                        self.fail(f"query {qi}: loaded engine gives {result.items}, "
                                  f"the built one gave {self.memory_items[qi]}")
                elif result.items != self.expected[qi]:
                    self.failed += 1
                    self.fail(f"query {qi}: answer changed between repetitions or loads")
                if sum(result.diagnostics.stage_seconds.values()) > wall:
                    self.fail(f"query {qi}: stage seconds exceed the measured wall time")
            rounds += 1
            if time.perf_counter() - start >= self.seconds and self.attempted >= MIN_SAMPLES:
                break
        self.hook(False)
        log(f"perfbench: {self.shape.name} {len(raw)} queries in {rounds} rounds, raw p50 "
            f"{1e3 * statistics.median(raw):.3f} ms, calibration unit median "
            f"{1e3 * statistics.median(units):.4f} ms; {len(self.load_raw)} loads, raw median "
            f"{statistics.median(self.load_raw):.4f} s")
        return plain, traced, diags, roots

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, lat: list[float]) -> dict:
        index_bytes = sum(
            nbytes for name, nbytes in self.ts.bundle.component_sizes(self.bundle_dir).items()
            if not name.startswith("repository.")
        )
        ms = np.asarray(lat) * 1e3
        return {
            "query_p50_ms": float(np.percentile(ms, 50)),
            "query_p95_ms": float(np.percentile(ms, 95)),
            "recall_at_10": self.recall,
            "setup_s": self.setup_s,
            "load_s": statistics.median(self.load_scaled),
            "index_bytes": float(index_bytes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    @staticmethod
    def descendants(kids, root):
        stack = list(kids[root])
        while stack:
            sid = stack.pop()
            yield sid
            stack.extend(kids[sid])

    def per_layer(self, plain, traced, diags, roots, layout, refine_counts) -> dict:
        tr = self.tracer
        own = tr.self_times()
        kids = tr.children()
        n = len(roots)
        total_self: dict[str, float] = {}
        calls: dict[str, int] = {}
        for root in roots:
            for sid in self.descendants(kids, root):
                name = tr.names[sid]
                total_self[name] = total_self.get(name, 0.0) + own[sid]
                calls[name] = calls.get(name, 0) + 1

        # Independent timers: each stage's wrapped call fits inside the
        # program's own time for that stage.  Stage order: refine, filter, score.
        union_in_score = []
        for root, diag in zip(roots, diags):
            stages = [s for s in kids[root] if tr.names[s] in ("refinement.refine", "pruning.run")]
            if [tr.names[s] for s in stages] != ["refinement.refine", "pruning.run", "pruning.run"]:
                self.fail(f"a traced search has stage spans {[tr.names[s] for s in stages]}")
                continue
            for sid, stage in zip(stages, ("refine", "filter", "score")):
                if tr.duration(sid) > diag.stage_seconds.get(stage, 0.0):
                    self.fail(f"wrapped {tr.names[sid]} outlasts the program's {stage} stage")
            union_in_score.append(sum(
                tr.duration(s) for s in kids[stages[2]] if tr.names[s] == "matching.exact"
            ))

        recorded = set(tr.names)
        for name in BUILD_SPANS:
            if name not in recorded:
                self.fail(f"the traced run recorded no {name} span")
        for root in roots:
            missing = set(SEARCH_SPANS) - {tr.names[s] for s in self.descendants(kids, root)}
            if missing:
                self.fail(f"a traced search recorded no {sorted(missing)} span")
                break

        build: dict[str, float] = {}
        for sid, name in enumerate(tr.names):
            if name in ("quantizer.train", "quantizer.assign", "quantizer.index", "partitions.build"):
                build[name] = build.get(name, 0.0) + tr.duration(sid)

        def per_query(name):
            return total_self.get(name, 0.0) / n

        def calls_per_query(name):
            return calls.get(name, 0) / n

        def mean_stage(stage):
            return float(np.mean([d.stage_seconds.get(stage, 0.0) for d in diags]))

        out = {
            "repository.ingest_s": self.ingest_s,
            "quantizer.train_s": build.get("quantizer.train", 0.0),
            "quantizer.assign_s": build.get("quantizer.assign", 0.0),
            "quantizer.index_s": build.get("quantizer.index", 0.0),
            "partitions.build_s": build.get("partitions.build", 0.0),
            "centroid_ann.top_s": per_query("centroid_ann.top"),
            "centroid_ann.calls": calls_per_query("centroid_ann.top"),
            "refinement.refine_s": per_query("refinement.refine"),
            "mwmto.sims_s": per_query("mwmto.sims"),
            "mwmto.sims_calls": calls_per_query("mwmto.sims"),
            "mwmto.bounds_s": per_query("mwmto.bounds"),
            "mwmto.bounds_calls": calls_per_query("mwmto.bounds"),
            "mwmto.exact_s": per_query("mwmto.exact"),
            "mwmto.exact_calls": calls_per_query("mwmto.exact"),
            "matching.exact_s": per_query("matching.exact"),
            "matching.exact_calls": calls_per_query("matching.exact"),
            "pipeline.refine_s": mean_stage("refine"),
            "pipeline.filter_s": mean_stage("filter"),
            "pipeline.score_s": mean_stage("score"),
            "pipeline.score_other_s": mean_stage("score") - float(np.mean(union_in_score or [0.0])),
            "pruning.filter_useful_ratio":
                sum(d.filter_candidates for d in diags) / max(1, sum(d.filter_score_calls for d in diags)),
            "pruning.score_useful_ratio":
                sum(d.result_count for d in diags) / max(1, sum(d.scoring_score_calls for d in diags)),
            "pruning.depq_ops": float(np.mean([d.depq_ops for d in diags])),
            "bundle.save_s": self.save_s,
            "bundle.load_repository_s": statistics.median(p for _, p in self.load_splits),
            "bundle.load_index_s": statistics.median(t - p for t, p in self.load_splits),
            "trace.overhead_ms": 1e3 * (statistics.median(traced) - statistics.median(plain)),
        }
        for metric, fname in BUNDLE_FILES.items():
            path = self.bundle_dir / fname
            out[metric] = float(path.stat().st_size) if path.is_file() else 0.0
        out.update(layout)
        out.update(refine_counts)
        return out

    def execute(self, import_s: float) -> dict:
        mark = time.perf_counter()

        def phase(name):
            nonlocal mark
            now = time.perf_counter()
            log(f"perfbench: {self.shape.name} {name} {now - mark:.2f} s")
            mark = now

        self.hook(True)
        engine = self.setup(import_s)
        self.hook(False)
        phase("setup")
        layout = self.layout_counts(engine) if self.tracer else None
        self.memory_items = [engine.search(self.ts.QueryTable(q), self.params).items
                             for q in self.inputs.queries]
        del engine
        self.hook(True)
        self.load()
        self.hook(False)
        phase("answers from the built engine, first load")
        self.check_exactness_limit()
        phase("exactness-limit check")
        counts = self.refine_counts() if self.tracer else None
        plain, traced, diags, roots = self.closed_loop()
        phase("closed loop")
        self.check_answers()
        phase("oracle and pruner checks")
        if self.tracer is None:
            metrics = self.end_to_end(plain)
            units = END_TO_END
        else:
            metrics = self.per_layer(plain, traced, diags, roots, layout, counts)
            units = PER_LAYER
            self.tracer.write(self.work / "spans.jsonl")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ts = import_program()
    import_s = time.perf_counter() - T_PROCESS
    run = Run(ts, workloads.SHAPES[args.workload], args.seed, args.seconds, bool(args.trace))
    result = run.execute(import_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
