"""Command-line dataset tooling: ``repro-dataset``.

Examples::

    repro-dataset build --communes 1600 --seed 7 --out week.npz
    repro-dataset build --session --subscribers 2000 --out panel.npz
    repro-dataset build --session --shards 8 --retries 3 \\
        --on-exhausted quarantine --spill-dir parts --out panel.npz
    repro-dataset build --session --shards 8 --spill-dir parts --resume \\
        --out panel.npz
    repro-dataset info week.npz

Exit codes follow the shared contract in :mod:`repro._exit`: ``0``
success with full coverage, ``1`` success but degraded (quarantined
shards or dropped records — the dataset was written and its
``coverage.*`` meta says what is missing), ``2`` usage/validation
error or unreadable input, ``3`` internal failure (for ``build``:
retry exhaustion under the ``fail`` policy).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro._exit import EXIT_INTERNAL, EXIT_USAGE
from repro._units import KIB, format_bytes
from repro.dataset.store import MobileTrafficDataset
from repro.geo.urbanization import UrbanizationClass
from repro.report.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dataset",
        description="Build and inspect synthetic nationwide mobile traffic datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="synthesize a dataset and save it")
    build.add_argument("--communes", type=int, default=1_600)
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--out", required=True, metavar="PATH")
    build.add_argument(
        "--session",
        action="store_true",
        help="run the session-level pipeline instead of the volume model",
    )
    build.add_argument(
        "--subscribers",
        type=int,
        default=2_000,
        help="panel size for --session runs",
    )
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --session runs",
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        help="subscriber shards for --session runs (defaults to --workers); "
        "results depend on the seed only, never on --shards or --workers",
    )
    build.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per shard for --session runs (default 3)",
    )
    build.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard watchdog for pooled --session runs "
        "(default 120; 0 disables)",
    )
    build.add_argument(
        "--on-exhausted",
        choices=("fail", "quarantine"),
        default=None,
        help="after retry exhaustion: fail the build (default) or "
        "quarantine the shard and degrade coverage",
    )
    build.add_argument(
        "--resume",
        action="store_true",
        help="load the shard partials already in --spill-dir instead of "
        "re-running their shards; requires --spill-dir",
    )
    build.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="KIND:SHARD[:ATTEMPT[:STAGE]]",
        help="inject a deterministic fault (testing/CI only); repeatable",
    )
    build.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="RECORDS",
        help="records per streamed probe chunk for --session runs "
        "(a positive count, default 8192); never changes dataset content",
    )
    build.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="write every accepted shard partial here once, so a "
        "--session build can --resume and merge from disk",
    )
    build.add_argument(
        "--spill-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="stored shard partials kept loaded for the merge "
        "(default 0: none; the rest load one at a time); "
        "requires --spill-dir",
    )

    info = sub.add_parser("info", help="summarize a saved dataset")
    info.add_argument("path", metavar="PATH")

    maps = sub.add_parser(
        "maps", help="export per-subscriber activity maps as PGM images"
    )
    maps.add_argument("path", metavar="PATH")
    maps.add_argument(
        "--services",
        nargs="+",
        default=["Twitter", "Netflix"],
        help="head services to map",
    )
    maps.add_argument("--grid", type=int, default=64)
    maps.add_argument("--out-dir", default="maps", metavar="DIR")
    return parser


def _resilience_options(args: argparse.Namespace):
    """Translate build flags into (retry_policy, fault_plan); raises
    ``ValueError`` on anything inconsistent so ``_build`` can turn it
    into a usage exit (2)."""
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

    session_only = {
        "--retries": args.retries,
        "--shard-timeout": args.shard_timeout,
        "--on-exhausted": args.on_exhausted,
        "--fault": args.fault,
        "--chunk-size": args.chunk_size,
        "--spill-dir": args.spill_dir,
        "--spill-budget-mb": args.spill_budget_mb,
    }
    if not args.session:
        used = sorted(k for k, v in session_only.items() if v is not None)
        if args.resume:
            used.append("--resume")
        if used:
            raise ValueError(
                f"{', '.join(used)} require(s) --session builds"
            )
        return None, None
    if args.resume and args.spill_dir is None:
        raise ValueError("--resume requires --spill-dir")
    policy = None
    if (
        args.retries is not None
        or args.shard_timeout is not None
        or args.on_exhausted is not None
    ):
        defaults = RetryPolicy()
        timeout_s: Optional[float] = defaults.timeout_s
        if args.shard_timeout is not None:
            timeout_s = None if args.shard_timeout == 0 else args.shard_timeout
        policy = RetryPolicy(
            max_attempts=(
                defaults.max_attempts if args.retries is None else args.retries
            ),
            timeout_s=timeout_s,
            on_exhausted=args.on_exhausted or defaults.on_exhausted,
        )
    fault_plan = FaultPlan.parse(args.fault) if args.fault else None
    return policy, fault_plan


def _build(args: argparse.Namespace) -> int:
    from repro.dataset.builder import (
        build_session_level_dataset,
        build_volume_level_dataset,
    )
    from repro.geo.country import CountryConfig
    from repro.resilience.supervisor import ShardExecutionError

    try:
        retry_policy, fault_plan = _resilience_options(args)
        config = CountryConfig(n_communes=args.communes)
        if args.session:
            kwargs = {}
            if args.chunk_size is not None:
                kwargs["chunk_size"] = args.chunk_size
            if args.spill_budget_mb is not None:
                kwargs["spill_budget_bytes"] = int(
                    args.spill_budget_mb * KIB * KIB
                )
            artifacts = build_session_level_dataset(
                n_subscribers=args.subscribers,
                country_config=config,
                n_workers=args.workers,
                n_shards=args.shards,
                seed=args.seed,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                resume=args.resume,
                spill_dir=args.spill_dir,
                **kwargs,
            )
        else:
            artifacts = build_volume_level_dataset(
                country_config=config, seed=args.seed
            )
    except ValueError as exc:
        print(f"repro-dataset build: {exc}", file=sys.stderr)
        return 2
    except ShardExecutionError as exc:
        print(f"repro-dataset build: {exc}", file=sys.stderr)
        return 3
    path = artifacts.dataset.save(args.out)
    print(f"dataset written to {path}")
    coverage = artifacts.extras.get("coverage")
    if coverage is not None and coverage.degraded:
        quarantined = ",".join(str(i) for i in coverage.quarantined) or "none"
        print(
            f"coverage degraded: fraction={coverage.fraction:.4f} "
            f"quarantined_shards={quarantined} "
            f"records_dropped={coverage.records_dropped}",
            file=sys.stderr,
        )
        return 1
    return 0


def _info(args: argparse.Namespace) -> int:
    dataset = MobileTrafficDataset.load(args.path)
    rows = [
        ("communes", dataset.n_communes),
        ("head services", dataset.n_head),
        ("catalog services", len(dataset.all_service_names)),
        ("time bins", f"{dataset.n_bins} ({dataset.axis.bins_per_hour}/hour)"),
        ("total weekly volume", format_bytes(dataset.total_volume())),
        ("uplink share", f"{dataset.national_ul.sum() / dataset.total_volume():.1%}"),
        ("subscribers observed", f"{dataset.users.sum():,.0f}"),
        ("DPI classified fraction", f"{dataset.classified_fraction:.1%}"),
    ]
    for cls in UrbanizationClass:
        count = int(dataset.class_mask(cls).sum())
        rows.append((f"{cls.label} communes", count))
    print(format_table(("property", "value"), rows, title=str(args.path)))

    volumes = dataset.dl.sum(axis=(0, 2)) + dataset.ul.sum(axis=(0, 2))
    order = np.argsort(volumes)[::-1][:5]
    rows = [
        (dataset.head_names[j], format_bytes(float(volumes[j])))
        for j in order
    ]
    print()
    print(format_table(("top service", "weekly volume"), rows))
    return 0


def _maps(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.spatial_analysis import activity_grid
    from repro.report.image import write_pgm

    dataset = MobileTrafficDataset.load(args.path)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for service in args.services:
        grid = activity_grid(dataset, service, "dl", grid_size=args.grid)
        path = write_pgm(
            grid, out_dir / f"{service.lower().replace(' ', '_')}.pgm"
        )
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _build(args)
        if args.command == "info":
            return _info(args)
        if args.command == "maps":
            return _maps(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro-dataset: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # unexpected: the tool itself broke
        print(f"repro-dataset: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"unknown command {args.command!r}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
