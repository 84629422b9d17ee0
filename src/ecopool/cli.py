"""Command line front end.

Exit codes: 0 on success, 2 on usage or config errors, 1 on runtime
failures.  The default output root is ./runs, overridable with the
ECOPOOL_OUT environment variable; --out takes precedence over both.
Output files carry no wall-clock values; the per-experiment run.log
sidecar is the only place timestamps appear.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from .ecosystem import Strategy, read_manifest
from .gridworld import GridConfig, generate_level, level_to_json, render_ascii, reset
from .harness import (
    ExperimentConfig,
    check_strategies,
    compare_suite,
    export_metrics,
    load_config,
    load_metrics,
    run_suite,
)

_STRATEGY_NAMES = [s.value for s in Strategy]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecopool",
        description="Grow a pool of gridworld specialists over generated levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one strategy over a level range")
    _add_experiment_flags(run_p)
    run_p.add_argument("--strategy", choices=_STRATEGY_NAMES, help="agent init strategy")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="run several strategies over the same level schedule"
    )
    _add_experiment_flags(cmp_p)
    cmp_p.add_argument(
        "--strategy",
        choices=_STRATEGY_NAMES,
        action="append",
        dest="strategies",
        help="strategy to include (give at least twice)",
    )
    cmp_p.set_defaults(func=cmd_compare)

    show_p = sub.add_parser("show-env", help="render one generated level")
    show_p.add_argument("seed", type=int, help="level seed")
    show_p.add_argument("--config", help="config file supplying the grid shape")
    show_p.add_argument("--json", action="store_true", help="emit only the level JSON")
    show_p.set_defaults(func=cmd_show_env)

    insp_p = sub.add_parser("inspect-pool", help="summarize a pool checkpoint")
    insp_p.add_argument("checkpoint", help="checkpoint directory (or pool.json)")
    insp_p.add_argument("--json", action="store_true", help="emit the raw manifest")
    insp_p.set_defaults(func=cmd_inspect_pool)

    exp_p = sub.add_parser("export", help="re-emit run metrics in another format")
    exp_p.add_argument("run_dir", help="run directory containing metrics.csv")
    exp_p.add_argument("--format", choices=("csv", "json"), default="json")
    exp_p.add_argument("--out", help="output file (default: stdout)")
    exp_p.set_defaults(func=cmd_export)

    return parser


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config file (JSON)")
    parser.add_argument("--envs", type=int, help="override n_train_envs")
    parser.add_argument("--runs", type=int, help="override n_runs")
    parser.add_argument("--eval-every", type=int, help="override eval cadence")
    parser.add_argument("--budget", type=int, help="override training budget")
    parser.add_argument("--jobs", type=int, default=1, help="parallel run workers")
    parser.add_argument("--out", help="output directory")


def _resolve_config(args, strategy: Strategy | None) -> ExperimentConfig:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.config:
        cfg = load_config(args.config)
    elif strategy is not None:
        cfg = ExperimentConfig(strategy=strategy)
    else:
        raise ValueError("either --config or --strategy is required")
    overrides = {
        "strategy": strategy,
        "n_train_envs": args.envs,
        "n_runs": args.runs,
        "eval_every": args.eval_every,
        "budget": args.budget,
    }
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _resolve_out(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("ECOPOOL_OUT", "runs")) / default_name


@contextmanager
def _experiment_dir(cfg: ExperimentConfig, out_dir: Path):
    """Write config.json, and log the package to the run.log sidecar (the
    one output where timestamps are allowed) while the block runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(asdict(cfg), indent=2) + "\n")
    handler = logging.FileHandler(out_dir / "run.log")
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    pkg_logger = logging.getLogger("ecopool")
    pkg_logger.setLevel(logging.INFO)
    pkg_logger.addHandler(handler)
    try:
        yield
    finally:
        pkg_logger.removeHandler(handler)
        handler.close()


def cmd_run(args) -> int:
    strategy = Strategy(args.strategy) if args.strategy else None
    cfg = _resolve_config(args, strategy)
    out = _resolve_out(args, f"run-{cfg.strategy.value}")
    with _experiment_dir(cfg, out):
        runs = run_suite(cfg, out, jobs=args.jobs)
    for run_seed, records in enumerate(runs):
        final = records[-1]
        print(
            f"run {run_seed}: zeta={final.zeta:.4f} pool={final.pool_size} "
            f"steps={final.cum_steps} failures={final.failures}"
        )
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    strategies = [Strategy(s) for s in args.strategies or []]
    check_strategies(strategies)
    cfg = _resolve_config(args, strategies[0])
    name = "compare-" + "-".join(s.value for s in strategies)
    out = _resolve_out(args, name)
    with _experiment_dir(cfg, out):
        aggregates = compare_suite(cfg, strategies, out, jobs=args.jobs)
    for strategy in strategies:
        final = aggregates[strategy][-1]
        print(
            f"{strategy.value}: zeta={final.zeta_mean:.4f} "
            f"pool={final.pool_size_mean:.1f} steps={final.cum_steps_mean:.0f}"
        )
    print(f"wrote {out}")
    return 0


def cmd_show_env(args) -> int:
    grid = load_config(args.config).grid if args.config else GridConfig()
    level = generate_level(args.seed, grid)
    if not args.json:
        print(render_ascii(reset(level)[0]))
    print(json.dumps(level_to_json(level), indent=2))
    return 0


def cmd_inspect_pool(args) -> int:
    manifest = read_manifest(args.checkpoint)
    if args.json:
        print(json.dumps(manifest.to_json(), indent=2))
        return 0
    grid = manifest.grid
    print(f"strategy:  {manifest.strategy.value}")
    print(f"threshold: {manifest.threshold}")
    print(f"grid:      {grid.width}x{grid.height}, {grid.max_steps} steps")
    print(f"agents:    {len(manifest.agents)}")
    print(f"main:      {'no' if manifest.main_widths is None else 'yes'}")
    for agent in manifest.agents:
        shown = ", ".join(str(s) for s in agent.solved[:8])
        if len(agent.solved) > 8:
            shown += ", ..."
        print(
            f"  agent {agent.id}: {len(agent.solved)} solved [{shown}] "
            f"(born on {agent.birth_env})"
        )
    return 0


def cmd_export(args) -> int:
    metrics_path = Path(args.run_dir) / "metrics.csv"
    if not metrics_path.exists():
        raise ValueError(f"no metrics at {metrics_path}")
    export_metrics(load_metrics(metrics_path), args.format, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
