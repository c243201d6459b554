"""Command-line interface.

``repro-spatial`` (or ``python -m repro``) exposes the library's main
flows: inspecting datasets, building and rendering partitionings,
evaluating techniques, and regenerating the paper's figures and tables::

    repro-spatial datasets
    repro-spatial show --dataset charminar
    repro-spatial partition --dataset charminar --technique Min-Skew \
        --buckets 50
    repro-spatial evaluate --dataset nj_road --n 40000 --qsize 0.05
    repro-spatial fig8 --dataset nj_road --n 40000
    repro-spatial table1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .data import dataset_names, make_dataset
from .errors import ReproError
from .eval import ALL_TECHNIQUES, ExperimentRunner, experiments, report, \
    timed_build
from .geometry import RectSet
from .grid import DensityGrid
from .viz import render_dataset, render_partition
from .workload import range_queries


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="charminar", choices=dataset_names(),
        help="input dataset (default: charminar)",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="dataset size (default: paper scale for the dataset)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="dataset RNG seed (default: the dataset's fixed seed)",
    )
    parser.add_argument(
        "--dataset-file", default=None, metavar="PATH",
        help="load rectangles from a .npy/.csv file instead of "
             "generating --dataset",
    )


def _load_data(args: argparse.Namespace) -> RectSet:
    """The command's input: a file when given, a generator otherwise."""
    if getattr(args, "dataset_file", None):
        from .data import load_rects

        return load_rects(args.dataset_file)
    return make_dataset(args.dataset, args.n, args.seed)


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name in dataset_names():
        print(name)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    data = _load_data(args)
    print(f"# {args.dataset}: {len(data)} rectangles, MBR {data.mbr()}")
    print(render_dataset(data))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    data = _load_data(args)
    built = timed_build(
        args.technique, data, args.buckets, n_regions=args.regions
    )
    estimator = built.estimator
    print(
        f"# {args.technique} on {args.dataset}: "
        f"{args.buckets} buckets, built in {built.build_seconds:.2f}s"
    )
    buckets = getattr(estimator, "buckets", None)
    if buckets is None:
        if args.save_histogram:
            raise ReproError(
                f"technique {args.technique!r} has no bucket "
                "histogram to save",
                hint="use a bucket-based technique such as Min-Skew",
            )
        print("(technique has no bucket layout to draw)")
        return 0
    if args.save_histogram:
        from .storage.persist import save_buckets

        save_buckets(args.save_histogram, buckets)
        print(f"# saved {len(buckets)} buckets to {args.save_histogram}")
    print(render_partition(buckets, data.mbr()))
    grid = DensityGrid.from_rects(data, 64, 64)
    from .core import grouping_skew_on_boxes

    skew = grouping_skew_on_boxes(grid, [b.bbox for b in buckets])
    print(f"# spatial skew on a 64x64 grid: {skew:.1f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    estimator = None
    if args.histogram:
        # Load before the (possibly expensive) dataset build so a bad
        # path fails fast.
        from .estimators import BucketEstimator
        from .storage.persist import load_buckets

        estimator = BucketEstimator(
            load_buckets(args.histogram), name="histogram"
        )
    data = _load_data(args)
    runner = ExperimentRunner(data)
    queries = range_queries(data, args.qsize, args.queries, seed=42)
    print(
        f"# {args.dataset} n={len(data)} qsize={args.qsize} "
        f"queries={args.queries} buckets={args.buckets}"
    )
    if estimator is not None:
        errors = runner.evaluate(estimator, queries)
        print(
            f"{'histogram':11s} "
            f"ARE={errors.average_relative_error:7.3f} "
            f"({estimator.n_buckets} buckets from {args.histogram})"
        )
        return 0
    techniques = [args.technique] if args.technique else ALL_TECHNIQUES
    for technique in techniques:
        errors, build_s = runner.evaluate_technique(
            technique, queries, args.buckets, n_regions=args.regions
        )
        print(
            f"{technique:11s} ARE={errors.average_relative_error:7.3f} "
            f"build={build_s:7.2f}s"
        )
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    data = _load_data(args)
    records = experiments.error_vs_qsize(
        data, n_buckets=args.buckets, n_queries=args.queries,
        rtree_method=args.rtree_method,
    )
    print(report.format_series(
        records, x_key="qsize",
        title=f"Figure 8: error vs QSize ({args.dataset}, "
              f"{args.buckets} buckets)",
    ))
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    data = _load_data(args)
    records = experiments.error_vs_buckets(
        data, n_queries=args.queries, rtree_method=args.rtree_method,
    )
    for qsize in (0.05, 0.25):
        subset = [r for r in records if r["qsize"] == qsize]
        print(report.format_series(
            subset, x_key="n_buckets",
            title=f"Figure 9: error vs buckets "
                  f"({args.dataset}, QSize={qsize:.0%})",
        ))
        print()
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    data = _load_data(args)
    records = experiments.error_vs_regions(
        data, n_queries=args.queries, n_buckets=args.buckets,
    )
    print(report.format_series(
        records, series_key="qsize", x_key="n_regions",
        title=f"Figure 10: Min-Skew error vs regions ({args.dataset})",
    ))
    return 0


def _cmd_fig11(args: argparse.Namespace) -> int:
    data = _load_data(args)
    records = experiments.progressive_refinement(
        data, n_queries=args.queries, n_buckets=args.buckets,
        n_regions=args.regions,
    )
    print(report.format_table(
        records,
        ["refinements", "error", "build_seconds"],
    ))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .core import tune_min_skew

    data = _load_data(args)
    result = tune_min_skew(
        data, args.buckets, n_queries=args.queries, truth=args.truth
    )
    print(f"# tuned Min-Skew for {args.dataset} "
          f"(buckets={args.buckets}, truth={args.truth})")
    print(f"{'regions':>8s} {'refinements':>12s} {'error':>8s} "
          f"{'build':>7s}")
    for c in result.candidates:
        marker = " <-- chosen" if (
            c.n_regions == result.n_regions
            and c.refinements == result.refinements
        ) else ""
        print(f"{c.n_regions:>8d} {c.refinements:>12d} "
              f"{c.error:>8.3f} {c.build_seconds:>6.2f}s{marker}")
    return 0


def _positive(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: what a bench summary line shows: (block, label, field, format); the
#: block is the cell's top level when empty, and absent fields are
#: skipped, so one table serves every engine kind
_SUMMARY = (
    ("", "build", "build_seconds", "{:7.2f}s"),
    ("", "estimate", "estimate_seconds", "{:6.3f}s"),
    ("accuracy", "ARE", "average_relative_error", "{:7.3f}"),
    ("", "scalar", "scalar_seconds", "{:6.3f}s"),
    ("", "speedup", "speedup", "{:6.1f}x"),
    ("live", "ops", "ops", "{}"),
    ("live", "refreshes", "refreshes", "{}"),
    ("live", "epoch", "final_epoch", "{}"),
    ("tuned", "ops", "ops", "{}"),
    ("tuned", "passes", "tuning_passes", "{}"),
    ("tuned", "pairs", "tuning_pairs", "{}"),
    ("tuned", "buckets", "n_buckets_tuned", "{}"),
    ("tuned", "static-ARE", "are_static", "{:.3f}"),
    ("tuned", "vs-static", "improvement", "{:+.3f}"),
    ("sharded", "shards", "n_shards", "{}"),
    ("sharded", "fanout", "avg_shards_per_query", "{:.2f}/q"),
    ("sharded", "mutations", "mutations", "{}"),
    ("sharded", "epoch-bumps", "shard_epoch_bumps", "{}"),
    ("server", "qps", "batched_qps", "{:8.0f}"),
    ("server", "p50", "p50_ms", "{:.1f}ms"),
    ("server", "p99", "p99_ms", "{:.1f}ms"),
    ("server", "batch", "avg_batch", "{:.1f}"),
    ("server", "vs-single", "speedup", "{:.2f}x"),
)


def _format_cell(tech: dict, failed: List[str]) -> str:
    """One technique's summary line, failed gates appended."""
    parts = [f"{tech['technique']:11s}"]
    for block, label, key, fmt in _SUMMARY:
        fields = tech.get(block, {}) if block else tech
        if key in fields:
            parts.append(f"{label}={fmt.format(fields[key])}")
    if failed:
        parts.append("FAILED " + ",".join(failed))
    return " ".join(parts)


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro-spatial bench``: run a preset, write ``BENCH_<name>.json``.

    Exits 1 when any consistency gate the artifact records is false
    (see :func:`repro.obs.bench.gate_failures`); timings never decide
    the exit code.
    """
    from .obs.bench import PRESETS, gate_failures, write_bench

    config = PRESETS[args.preset]
    changes = {
        field: getattr(args, field)
        for field in (
            "name", "n_buckets", "n_regions", "n_queries", "engine",
            "workers", "n_shards", "shard_workers", "concurrency",
            "server_max_batch", "server_window", "live_ops",
        )
        if getattr(args, field) is not None
    }
    if args.datasets:
        sizes = dict(config.datasets)
        datasets = []
        for spec in args.datasets.split(","):
            name, _, size = spec.partition(":")
            if name not in dataset_names():
                raise SystemExit(
                    f"unknown dataset {name!r}; known: {dataset_names()}"
                )
            try:
                datasets.append(
                    (name, int(size) if size else sizes.get(name, 6_000))
                )
            except ValueError:
                raise SystemExit(
                    f"invalid dataset size {size!r} in {spec!r}; "
                    "expected name:size, e.g. charminar:6000"
                ) from None
        changes["datasets"] = tuple(datasets)
    if changes:
        config = config.replace(**changes)
    if config.engine in ("live", "sharded", "server", "tuned"):
        from .eval import BUCKET_TECHNIQUES
        kept = tuple(t for t in config.techniques
                     if t in BUCKET_TECHNIQUES)
        if not kept:
            raise SystemExit(
                f"engine={config.engine!r} needs at least one "
                f"bucket-based technique; choose from "
                f"{BUCKET_TECHNIQUES}"
            )
        if kept != config.techniques:
            config = config.replace(techniques=kept)

    doc, path = write_bench(
        config,
        out_dir=args.out,
        checkpoint_dir=args.checkpoint_dir,
        deterministic=args.deterministic,
    )
    overhead = doc["overhead"]
    print(f"# bench {config.name}: {doc['total_seconds']:.1f}s total")
    print(
        f"# obs overhead/call disabled: "
        f"counter {overhead['disabled_counter_ns']:.0f}ns, "
        f"timer {overhead['disabled_timer_ns']:.0f}ns"
    )
    failures = []
    for ds in doc["datasets"]:
        print(f"## {ds['dataset']} n={ds['n']} "
              f"truth={ds['truth_seconds']:.2f}s")
        for tech in ds["techniques"]:
            failed = gate_failures(tech)
            failures += [f"{ds['dataset']}/{tech['technique']}: {gate}"
                         for gate in failed]
            print(_format_cell(tech, failed))
    print(f"wrote {path}")
    if failures:
        print("consistency gate failed: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro-spatial serve``: the micro-batching TCP front door.

    Builds the estimator (or the sharded scatter-gather tier with
    ``--shards``), binds the asyncio server, prints the bound address,
    and serves until interrupted.  The sharded tier accepts
    ``insert``/``delete`` ops over the wire; a directly served
    estimator is read-only and answers mutations with a typed error.
    """
    import asyncio

    from .serving import FrontDoor

    data = _load_data(args)
    closer = None
    if args.shards > 0:
        from .eval import BUCKET_TECHNIQUES, build_partitioner
        from .serving import ShardedHistogram, ShardRouter

        if args.technique not in BUCKET_TECHNIQUES:
            raise SystemExit(
                f"--shards needs a bucket-based technique; choose "
                f"from {BUCKET_TECHNIQUES}"
            )
        sharded = ShardedHistogram.build(
            data,
            n_shards=args.shards,
            n_buckets=args.buckets,
            partitioner_factory=lambda quota: build_partitioner(
                args.technique, quota, n_regions=args.regions
            ),
            n_regions=args.regions,
        )
        router = ShardRouter(sharded, workers=args.shard_workers)
        backend = router
        closer = router.close
        detail = f"{args.shards}-shard tier"
    else:
        from .eval import build_estimator

        backend = build_estimator(
            args.technique, data, args.buckets,
            n_regions=args.regions,
        )
        detail = "direct estimator (read-only)"

    door = FrontDoor(
        backend,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_steps=args.wait_steps,
        max_pending=args.max_pending,
    )

    async def run() -> None:
        await door.start()
        print(
            f"# front door on {door.host}:{door.port} — "
            f"{args.technique} over {len(data)} rects, {detail}, "
            f"max_batch={args.max_batch}, "
            f"max_wait_steps={args.wait_steps}",
            flush=True,
        )
        await door.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        if closer is not None:
            closer()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: SIGKILL sharded-tier workers mid-stream.

    Exit 0 iff every query batch survived AND the recovered tier
    answers bit-identically to the union reference — the
    fault-tolerance acceptance gate.
    """
    import json as _json

    from .resilience.chaos import (
        WorkerKillConfig,
        format_worker_kill_report,
        run_worker_kill_chaos,
    )

    config = WorkerKillConfig(
        dataset=args.dataset,
        n=args.n,
        n_shards=args.shards,
        n_buckets=args.buckets,
        n_regions=args.regions,
        workers=args.shard_workers,
        n_batches=max(1, args.queries // 25),
        batch_size=25,
        qsize=args.qsize,
        plan_seed=args.plan_seed,
        kill_rate=args.fault_rate,
        through_server=args.through_server,
    )
    report_ = run_worker_kill_chaos(config)
    if args.format == "json":
        print(_json.dumps(report_.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_worker_kill_report(report_))
    return 0 if report_.passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        DEFAULT_CONFIG,
        PROJECT_RULES,
        RULES,
        apply_baseline,
        lint_paths,
        lint_project,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from .errors import ValidationError

    if args.list_rules:
        for code, rule in sorted(RULES.items()):
            print(f"{code}  {rule.summary}")
        for code, project_rule in sorted(PROJECT_RULES.items()):
            print(f"{code}  [project]  {project_rule.summary}")
        return 0

    known = set(RULES) | set(PROJECT_RULES)
    config = DEFAULT_CONFIG
    if args.rules is not None:
        wanted = frozenset(
            part.strip().upper()
            for part in args.rules.split(",") if part.strip()
        )
        if not wanted:
            raise ValidationError(
                f"--rules {args.rules!r} selects no rules",
                hint="pass comma-separated codes, e.g. "
                     "--rules DET001,EPOCH001",
            )
        unknown = wanted - known
        if unknown:
            raise ValidationError(
                f"unknown rule(s): {', '.join(sorted(unknown))}",
                hint=f"known rules: {', '.join(sorted(known))}",
            )
        project_only = wanted & set(PROJECT_RULES)
        if project_only and not args.project:
            raise ValidationError(
                f"rule(s) {', '.join(sorted(project_only))} need the "
                f"whole-program pass",
                hint="add --project",
            )
        config = config.replace(select=wanted)

    paths = args.paths or ["src"]
    if args.project:
        result = lint_project(paths, config)
    else:
        result = lint_paths(paths, config)

    if args.write_baseline:
        count = write_baseline(result, args.write_baseline)
        print(f"wrote {count} fingerprint"
              f"{'s' if count != 1 else ''} to {args.write_baseline}")
        return 0
    if args.baseline:
        result = apply_baseline(result, load_baseline(args.baseline))

    if args.sarif:
        Path(args.sarif).write_text(
            render_sarif(result) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    datasets = {
        f"{args.small // 1000}K": make_dataset(
            args.dataset, args.small, args.seed
        ),
        f"{args.large // 1000}K": make_dataset(
            args.dataset, args.large, args.seed
        ),
    }
    records = experiments.construction_times(
        datasets, rtree_method=args.rtree_method
    )
    print(report.format_table(
        records,
        ["technique", "dataset", "n_buckets", "build_seconds"],
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-spatial",
        description="Min-Skew spatial selectivity estimation "
                    "(SIGMOD 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available datasets") \
        .set_defaults(func=_cmd_datasets)

    p = sub.add_parser("show", help="render a dataset as ASCII density")
    _add_dataset_args(p)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("partition", help="build and draw a partitioning")
    _add_dataset_args(p)
    p.add_argument("--technique", default="Min-Skew",
                   choices=list(ALL_TECHNIQUES))
    p.add_argument("--buckets", type=int, default=50)
    p.add_argument("--regions", type=int, default=10_000)
    p.add_argument(
        "--save-histogram", default=None, metavar="PATH",
        help="persist the bucket histogram as a checksummed artifact",
    )
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("evaluate", help="estimate a workload, print ARE")
    _add_dataset_args(p)
    p.add_argument("--technique", default=None,
                   choices=list(ALL_TECHNIQUES))
    p.add_argument("--buckets", type=int, default=100)
    p.add_argument("--regions", type=int, default=10_000)
    p.add_argument("--qsize", type=float, default=0.05)
    p.add_argument("--queries", type=int, default=2_000)
    p.add_argument(
        "--histogram", default=None, metavar="PATH",
        help="evaluate a histogram saved with "
             "'partition --save-histogram' instead of building one",
    )
    p.set_defaults(func=_cmd_evaluate)

    for name, func, extra in (
        ("fig8", _cmd_fig8, {"buckets": 100}),
        ("fig9", _cmd_fig9, {}),
        ("fig10", _cmd_fig10, {"buckets": 100}),
        ("fig11", _cmd_fig11, {"buckets": 100, "regions": 30_000}),
    ):
        p = sub.add_parser(name, help=f"reproduce paper {name}")
        _add_dataset_args(p)
        p.add_argument("--queries", type=int, default=2_000)
        p.add_argument("--rtree-method", default="insert",
                       choices=("insert", "str"))
        if "buckets" in extra:
            p.add_argument("--buckets", type=int,
                           default=extra["buckets"])
        if "regions" in extra:
            p.add_argument("--regions", type=int,
                           default=extra["regions"])
        p.set_defaults(func=func)

    p = sub.add_parser(
        "tune",
        help="auto-select Min-Skew regions/refinements (the paper's "
             "open problem)",
    )
    _add_dataset_args(p)
    p.add_argument("--buckets", type=int, default=100)
    p.add_argument("--queries", type=int, default=400)
    p.add_argument("--truth", default="exact",
                   choices=("exact", "sample"))
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "bench",
        help="run a benchmark preset and write BENCH_<name>.json; "
             "exits 1 when any consistency gate in it fails",
    )
    mode = p.add_mutually_exclusive_group()
    for preset, text in (
        ("quick", "reduced workload, <60s (the default)"),
        ("full", "paper-scale workload (expect several minutes)"),
        ("serving", "serving-tier workload: 10k queries through the "
                    "sharded scatter-gather router, differentially "
                    "gated bit-for-bit against the single-engine union "
                    "reference, plus a routed mutation stream"),
        ("live", "live-maintenance workload: an interleaved "
                 "query/insert/delete stream against maintained "
                 "histograms served directly, gated bit-for-bit "
                 "against a freshly built estimator"),
        ("server", "front-door workload: pipelined client processes "
                   "through the micro-batching TCP server vs a "
                   "max_batch=1 baseline, p50/p99 latency and qps"),
        ("tuning", "self-tuning workload: a drifting live stream "
                   "served by a feedback-tuned histogram vs an "
                   "equal-budget static control, with the ARE "
                   "differential and the bit-for-bit rebuild gate"),
    ):
        mode.add_argument(f"--{preset}", dest="preset",
                          action="store_const", const=preset, help=text)
    p.add_argument("--name", default=None,
                   help="artifact name (BENCH_<name>.json)")
    p.add_argument(
        "--engine", default=None,
        choices=("scalar", "batch", "sharded", "server", "tuned"),
        help="estimation path: plain per-technique batch call, the "
             "batch kernel with a measured speedup vs the scalar "
             "loop, the sharded scatter-gather "
             "router gated against the single-engine reference, "
             "the micro-batching TCP front door measuring p50/p99 "
             "latency and the speedup over single-query-per-call "
             "dispatch, or the query-feedback self-tuning cell with "
             "its ARE-vs-static differential",
    )
    p.add_argument(
        "--concurrency", type=_positive, default=None, metavar="C",
        help="load-generator client processes for engine=server "
             "(default: 4)",
    )
    p.add_argument(
        "--max-batch", type=_positive, metavar="B",
        dest="server_max_batch",
        help="micro-batch size cap for engine=server (default: 64)",
    )
    p.add_argument(
        "--window", type=_positive, metavar="W", dest="server_window",
        help="per-client pipelining window for engine=server "
             "(default: 64)",
    )
    p.add_argument(
        "--workers", type=_positive, default=None, metavar="N",
        help="worker processes for the per-technique bench cells "
             "(default: 1, in-process)",
    )
    p.add_argument(
        "--shards", type=_positive, metavar="K", dest="n_shards",
        help="shard count of the scatter-gather tier "
             "(engine=sharded; default: 4)",
    )
    p.add_argument(
        "--shard-workers", type=_positive, default=None, metavar="N",
        help="router worker processes for the sharded tier "
             "(default: 1, inline)",
    )
    p.add_argument(
        "--ops", type=_positive, metavar="N", dest="live_ops",
        help="length of the interleaved query/insert/delete stream "
             "(engine=live, tuned or sharded)",
    )
    p.add_argument("--out", default=".",
                   help="output directory (default: current directory)")
    p.add_argument("--buckets", type=int, dest="n_buckets")
    p.add_argument("--regions", type=int, dest="n_regions")
    p.add_argument("--queries", type=int, dest="n_queries")
    p.add_argument(
        "--datasets", default=None,
        help="comma-separated name:size pairs, e.g. charminar:2000",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist per-cell checkpoints; an interrupted run "
             "resumes from the last completed cell",
    )
    p.add_argument(
        "--deterministic", action="store_true",
        help="zero all wall-clock fields so the artifact depends only "
             "on config and seeds (resume becomes byte-identical)",
    )
    p.set_defaults(func=_cmd_bench, preset="quick")

    p = sub.add_parser(
        "serve",
        help="run the micro-batching TCP front door: single-rect "
             "JSON frames in, coalesced engine batches underneath",
    )
    _add_dataset_args(p)
    p.add_argument("--technique", default="Min-Skew",
                   choices=list(ALL_TECHNIQUES))
    p.add_argument("--buckets", type=int, default=50)
    p.add_argument("--regions", type=int, default=10_000)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: 0, pick a free port and "
                        "print it)")
    p.add_argument(
        "--shards", type=int, default=0, metavar="K",
        help="serve through the K-shard scatter-gather tier (accepts "
             "insert/delete ops); 0 = the estimator directly, "
             "read-only (default: 0)",
    )
    p.add_argument("--shard-workers", type=int, default=1, metavar="N",
                   help="router worker processes for --shards "
                        "(default: 1, inline)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch size cap (default: 64)")
    p.add_argument("--wait-steps", type=int, default=4,
                   help="logical-wait trigger in event-loop passes "
                        "(default: 4; 0 disables)")
    p.add_argument("--max-pending", type=int, default=2048,
                   help="admission bound on queued operations "
                        "(default: 2048)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="SIGKILL sharded-tier worker processes mid-stream under "
             "a seeded fault plan; assert 100%% request survival "
             "plus bit-identical post-recovery answers",
    )
    p.add_argument("--dataset", default="charminar",
                   choices=dataset_names())
    p.add_argument("--n", type=int, default=1_200,
                   help="dataset size (default: 1200)")
    p.add_argument("--buckets", type=int, default=40)
    p.add_argument("--regions", type=int, default=512)
    p.add_argument("--queries", type=int, default=300)
    p.add_argument("--qsize", type=float, default=0.05)
    p.add_argument("--fault-rate", type=float, default=0.2,
                   help="per-worker kill probability between batches "
                        "(default: 0.2)")
    p.add_argument("--plan-seed", type=int, default=7,
                   help="fault plan RNG seed (default: 7)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard count (default: 4)")
    p.add_argument("--shard-workers", type=int, default=2,
                   help="worker processes (default: 2)")
    p.add_argument("--through-server", action="store_true",
                   help="serve every batch through the micro-batching "
                        "front door over TCP, killing workers while "
                        "client requests are in flight; a client "
                        "hanging past its deadline fails the run")
    p.add_argument("--format", default="text",
                   choices=("text", "json"))
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "lint",
        help="run the repository's AST invariant linter "
             "(per-file DET/NPY/MUT/OBS/API rules; --project adds "
             "the cross-module EPOCH/PICKLE/SEED/ORDER/RES/SUP "
             "pass)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
        help="report format (json follows the pinned report schema; "
             "sarif emits SARIF 2.1.0)",
    )
    p.add_argument(
        "--rules", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    p.add_argument(
        "--project", action="store_true",
        help="run the whole-program pass: loads every module, builds "
             "the call graph, and adds the cross-module rules",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="drop findings fingerprinted in this committed baseline",
    )
    p.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="snapshot current findings as a baseline and exit 0",
    )
    p.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("table1", help="reproduce paper Table 1")
    p.add_argument("--dataset", default="nj_road",
                   choices=dataset_names())
    p.add_argument("--small", type=int, default=50_000)
    p.add_argument("--large", type=int, default=400_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rtree-method", default="insert",
                   choices=("insert", "str"))
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Subcommand failures (bad input, missing files, broken invariants)
    exit non-zero with a one-line message on stderr — a traceback is a
    bug in the CLI, not an error report for the user.
    """
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BrokenPipeError:
        # Downstream consumer (``| head``) closed the pipe; not an error.
        return 0
    except ReproError as exc:
        kind = type(exc).__name__
        line = f"repro-spatial: error: {kind}: {exc}"
        if exc.hint:
            line += f" (hint: {exc.hint})"
        print(line, file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - format check in tests
        kind = type(exc).__name__
        print(f"repro-spatial: error: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
