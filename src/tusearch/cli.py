"""Command-line front end.

Subcommands: ``synth`` (write a synthetic repository + query batch),
``build`` (train and persist an index bundle), ``search`` (query a
bundle), ``eval`` (recall against the exact top-k of a bound-ordered
scan, computed afresh on every run, with search latency and exact-score
calls), and ``inspect`` (bundle statistics).  All stochastic components
take their randomness from ``--seed``, so every command is deterministic
given its flags.

Exit codes: 0 success, 2 usage error, 3 data or file-system error, 4 internal
invariant violation.  Errors print one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bundle as bundle_io
from .errors import TuSearchError, UsageError
from .evaluation import ground_truth_rankings, recall
from .partitions import BRANCHES, branch_of
from .pipeline import SearchParams, build_engine
from .pruning import PRUNERS
from .repository import (
    MANIFEST_MAGIC,
    generate_synthetic,
    ingest_repository,
    load_query_table,
    load_query_tables,
    split_repository,
    write_repository,
)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-k", type=int, default=10, help="result size (default 10)")
    p.add_argument("--tau", type=float, default=0.7,
                   help="similarity threshold in (0, 1]; always set explicitly in configs (default 0.7)")
    p.add_argument("--phi-c", type=int, default=32, help="centroid probe size (default 32)")
    p.add_argument("--phi-ref", type=int, default=None, help="refinement pool size (default max(5k, --phi-r))")
    p.add_argument("--phi-r", type=int, default=None, help="filter pool size (default min(3k, --phi-ref))")
    p.add_argument("--pruner", choices=list(PRUNERS), default="enhanced")


def _params(args) -> SearchParams:
    return SearchParams(
        k=args.k, tau=args.tau, phi_c=args.phi_c,
        phi_ref=args.phi_ref, phi_r=args.phi_r,
        pruner=args.pruner,
    )


def cmd_synth(args) -> int:
    if args.queries < 0:
        raise UsageError(f"--queries must be >= 0, got {args.queries}")
    out = Path(args.out)
    data = generate_synthetic(
        args.n_sets + args.queries,
        (args.cols[0], args.cols[1]),
        args.dim, args.topics, args.noise, args.seed,
    )
    if args.queries > 0:
        repo, qrepo = split_repository(data.repository, args.n_sets)
    else:
        repo, qrepo = data.repository, None
    manifest = write_repository(repo, out, stem="repository")
    print(f"repository\t{manifest}\tsets={repo.n_sets}\tvectors={repo.total_vectors}\tdim={repo.dimension}")
    if qrepo is not None:
        qmanifest = write_repository(qrepo, out, stem="queries")
        print(f"queries\t{qmanifest}\tsets={qrepo.n_sets}")
    labels = {str(i): data.topic_labels[i].tolist() for i in range(len(data.topic_labels))}
    (out / "topic_labels.json").write_text(json.dumps(labels, sort_keys=True), encoding="utf-8")
    return 0


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    repo = ingest_repository(args.manifest)
    engine = build_engine(
        repo,
        n_c=args.n_c,
        rho_low=args.rho_l,
        rho_high=args.rho_h,
        seed=args.seed,
        single_partition=args.single_partition,
    )
    t_save = time.perf_counter()
    out = bundle_io.save_bundle(args.out, engine)
    t_end = time.perf_counter()
    elapsed = t_end - t0
    phases = {**engine.phase_seconds, "save": t_end - t_save}
    sizes = bundle_io.component_sizes(out)
    for name, nbytes in sorted(sizes.items()):
        print(f"component\t{name}\t{nbytes}")
    raw = sizes["repository.f32"]
    quantized = sum(v for k, v in sizes.items() if k not in ("repository.f32", "repository.tsv"))
    print(f"bytes_raw_vectors\t{raw}")
    print(f"bytes_index_components\t{quantized}")
    _print_branch_mix(engine)
    for phase, seconds in phases.items():
        print(f"phase_seconds\t{phase}\t{seconds:.3f}")
    print(f"build_seconds\t{elapsed:.3f}")
    print(f"bundle\t{out}")
    return 0


def _print_branch_mix(engine) -> None:
    """Sets per partition branch by the dispersion rule, or one ``single``
    line for a single-partition build, with the settings of
    ``build_config``.  A set's distinct owning centroids are its posting
    slots."""
    n_sets, config = engine.repo.n_sets, engine.build_config
    if config["single_partition"]:
        print(f"partition_branch\tsingle\t{n_sets}")
        return
    distinct = np.bincount(engine.postings.sets, minlength=n_sets)
    branch = branch_of(distinct, engine.repo.sizes(), config["rho_low"], config["rho_high"])
    for name, count in zip(BRANCHES, np.bincount(branch, minlength=len(BRANCHES))):
        print(f"partition_branch\t{name}\t{count}")


def cmd_search(args) -> int:
    engine = bundle_io.load_bundle(args.bundle)
    query = load_query_table(args.query)
    # the first assignment solve would import this, and --explain would
    # report the import in a stage's exact_ms
    import scipy.optimize  # noqa: F401

    result = engine.search(query, _params(args))
    for rank, (sid, score, card) in enumerate(result.items, start=1):
        print(f"{rank}\t{sid}\t{score:.6f}\t{card}")
    if args.explain:
        for line in result.diagnostics.lines():
            print(f"# {line}")
    return 0


def cmd_eval(args) -> int:
    engine = bundle_io.load_bundle(args.bundle)
    queries = load_query_tables(args.queries)
    params = _params(args)
    params.resolve(engine.repo.n_sets)  # reject bad parameters before the oracle runs
    truth = ground_truth_rankings(queries, engine.repo, params.tau, params.k)
    recalls, seconds, score_calls = [], [], []
    for qi, query in enumerate(queries):
        t0 = time.perf_counter()
        result = engine.search(query, params)
        seconds.append(time.perf_counter() - t0)
        score_calls.append(result.diagnostics.total_score_calls)
        truth_ids = [sid for sid, _, _ in truth[qi]]
        r = recall([sid for sid, _, _ in result.items], truth_ids)
        recalls.append(r)
        print(f"query\t{qi}\trecall\t{r:.4f}")
    print(f"mean_recall\t{float(np.mean(recalls)):.4f}")
    p50, p95 = np.percentile(seconds, [50, 95]) * 1e3
    print(f"p50_ms\t{p50:.3f}")
    print(f"p95_ms\t{p95:.3f}")
    print(f"mean_score_calls\t{float(np.mean(score_calls)):.2f}")
    return 0


def cmd_inspect(args) -> int:
    engine = bundle_io.load_bundle(args.bundle)
    repo = engine.repo
    print(f"format\t{bundle_io.FORMAT_NAME} v{bundle_io.FORMAT_VERSION}")
    print(f"sets\t{repo.n_sets}")
    print(f"vectors\t{repo.total_vectors}")
    print(f"dimension\t{repo.dimension}")
    print(f"n_c\t{engine.codebook.n_c}")
    for key in ("rho_low", "rho_high", "seed", "single_partition"):
        print(f"config\t{key}\t{engine.build_config[key]}")
    # a set's distinct owning centroids are its posting slots
    slots = engine.postings.sets
    rhos = np.bincount(slots, minlength=repo.n_sets) / repo.sizes()
    hist, edges = np.histogram(rhos, bins=10, range=(0.0, 1.0))
    for i, count in enumerate(hist):
        print(f"dispersion_hist\t{edges[i]:.1f}-{edges[i + 1]:.1f}\t{int(count)}")
    _print_branch_mix(engine)
    pindex = engine.partition_index
    for count, n in zip(*np.unique(np.diff(pindex.group_ptr), return_counts=True)):
        print(f"partition_count_hist\t{count}\t{n}")
    print(f"postings_entries\t{len(slots)}")
    print(f"postings_sparsity\t{len(slots) / (repo.n_sets * engine.codebook.n_c):.6f}")
    capacity_total = int(pindex.member_ptr[-1])
    print(f"capacity_total\t{capacity_total}")
    print(f"capacity_equals_vectors\t{capacity_total == repo.total_vectors}")
    sizes = bundle_io.component_sizes(args.bundle)
    for name, nbytes in sorted(sizes.items()):
        print(f"component\t{name}\t{nbytes}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tusearch",
        description="Top-k table union search over column-embedding vector sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic repository and query batch")
    p.add_argument("--out", required=True)
    p.add_argument("--n-sets", type=int, default=2000)
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--cols", type=int, nargs=2, default=[5, 15], metavar=("LO", "HI"))
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--topics", type=int, default=40)
    p.add_argument("--noise", type=float, default=0.12)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build an index bundle from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-c", type=int, default=None, help="codebook size (default ceil(sqrt(N)))")
    p.add_argument("--rho-l", type=float, default=0.2, help="lower dispersion threshold")
    p.add_argument("--rho-h", type=float, default=0.8, help="upper dispersion threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-partition", action="store_true",
                   help="one partition per set in the stage-2 filter")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="run one query against a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--query", required=True, help=f"single-record {MANIFEST_MAGIC} manifest")
    _add_search_flags(p)
    p.add_argument("--explain", action="store_true", help="append stage diagnostics")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="recall and latency of bundle search against the exact oracle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--queries", required=True, help="manifest with one record per query table")
    _add_search_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print bundle statistics")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TuSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
