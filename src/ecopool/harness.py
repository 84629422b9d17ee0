"""Experiment protocol: level streams, periodic evaluation, metrics.

One experiment presents a fixed range of procedurally generated levels to
an eco-system and, every `eval_every` environments, measures the
adaptability index on a disjoint held-out range.  Multiple runs repeat
this with different pool RNG seeds over the same level schedule;
aggregation reports per-checkpoint means and standard errors.

Everything a run writes is a pure function of (config, run seed) under
the two dispatchers that set last bits for the CPU: OpenBLAS's kernel,
and numpy's SIMD dispatch level (`X86_V3`/`X86_V4`).  No timestamps or
host values appear in metrics, audit logs, checkpoints, or charts.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import multiprocessing
import re
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .ecosystem import (
    DEFAULT_BUDGET,
    DEFAULT_THRESHOLD,
    EnvOutcome,
    Pool,
    Strategy,
    check_threshold,
    ecosystem_learn,
    from_json,
    make_pool,
    read_json,
    save_pool,
)
from .gridworld import GridConfig, Level, generate_level
from .ppo import PpoConfig, critic_helper, test_agent

logger = logging.getLogger(__name__)

METRICS = ("zeta", "pool_size", "cum_steps", "cum_tests", "failures")
METRICS_COLUMNS = ("envs_seen",) + METRICS
COMPARE_METRICS = ("zeta", "pool_size", "cum_steps")  # compare.csv's per-strategy means
# What `export_metrics` writes for a counter and for zeta (a finite float).
_CELL_SYNTAX = {int: r"[0-9]+", float: r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Key tree of the experiment config file.  The `run` and `compare`
    flags override the strategy, the counts and the budget; the output
    directory is not a key (`--out` or ECOPOOL_OUT set it).

    An instance is valid: building one, `dataclasses.replace` included,
    runs `validate`, so a bad config is refused before any output exists.
    """

    strategy: Strategy
    n_train_envs: int = 500
    eval_every: int = 50
    n_eval_envs: int = 20
    train_seed_base: int = 0
    eval_seed_base: int = 1_000_000
    n_runs: int = 5
    threshold: float = DEFAULT_THRESHOLD
    budget: int = DEFAULT_BUDGET
    optimize_pool: bool = True
    grid: GridConfig = field(default_factory=GridConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for key in ("n_train_envs", "eval_every", "n_eval_envs", "n_runs", "budget"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.n_train_envs % self.eval_every != 0:
            raise ValueError(
                f"eval_every ({self.eval_every}) must divide "
                f"n_train_envs ({self.n_train_envs})"
            )
        check_threshold(self.threshold)
        if self.train_seed_base < 0 or self.eval_seed_base < 0:
            raise ValueError("seed bases must be non-negative")
        train, evals = self.train_seeds(), self.eval_seeds()
        if max(train.start, evals.start) < min(train.stop, evals.stop):
            raise ValueError(
                f"train and eval seed ranges overlap "
                f"([{train.start}, {train.stop}) vs [{evals.start}, {evals.stop}))"
            )

    def train_seeds(self) -> range:
        return range(self.train_seed_base, self.train_seed_base + self.n_train_envs)

    def eval_seeds(self) -> range:
        return range(self.eval_seed_base, self.eval_seed_base + self.n_eval_envs)


def config_from_json(data: dict) -> ExperimentConfig:
    """Strict parse: an unknown, missing or mistyped key is an error naming it."""
    return from_json(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    return config_from_json(read_json(path, "config"))


@dataclass(frozen=True)
class MetricsRecord:
    """One checkpoint row; cumulative counters never decrease within a run."""

    envs_seen: int
    zeta: float
    pool_size: int
    cum_steps: int
    cum_tests: int
    failures: int


@dataclass(frozen=True)
class AggregateRecord:
    envs_seen: int
    zeta_mean: float
    zeta_stderr: float
    pool_size_mean: float
    pool_size_stderr: float
    cum_steps_mean: float
    cum_steps_stderr: float
    cum_tests_mean: float
    cum_tests_stderr: float
    failures_mean: float
    failures_stderr: float


AGGREGATE_COLUMNS = ("envs_seen",) + tuple(
    f"{metric}_{stat}" for metric in METRICS for stat in ("mean", "stderr")
)


@dataclass
class RunResult:
    records: list[MetricsRecord]
    pool: Pool
    audit: list[dict]  # every outcome's events, in order, as audit.jsonl holds them
    outcomes: list[EnvOutcome]


def adaptability_index(pool: Pool, eval_levels: list[Level]) -> float:
    """Mean over held-out levels of the pool's per-level reward.

    Per level the eco-system's reward is the maximum over its agents'
    greedy test episodes: it solves environments through its best
    member.  Evaluation is read-only: nothing in the pool changes, and
    the calls are not charged to the pool's test counter.  An empty pool
    scores 0 on every level.
    """
    if not eval_levels:
        raise ValueError("eval_levels must be non-empty")
    total = 0.0
    for level in eval_levels:
        if not pool.agents:
            continue
        total += max(test_agent(agent.params, level) for agent in pool.agents)
    return total / len(eval_levels)


def run_to_dir(cfg: ExperimentConfig, run_seed: int, run_dir) -> RunResult:
    """One full experiment run, deterministic in (cfg, run_seed), written
    to `run_dir` as it goes.

    metrics.csv gains each checkpoint row and audit.jsonl each level's
    outcome events as they appear, each flushed at once, so an aborted run
    leaves every completed checkpoint behind; the pool checkpoint is saved
    on successful completion.  A checkpoint's `cum_steps` and `failures`
    are summed from the outcomes so far.  The run holds one
    `critic_helper` block, opened before its output files, for all of its
    training.
    """
    out = Path(run_dir)
    out.mkdir(parents=True, exist_ok=True)
    with critic_helper(), open(out / "metrics.csv", "w", newline="") as metrics_fh, open(
        out / "audit.jsonl", "w"
    ) as audit_fh:
        writer = csv.writer(metrics_fh)
        writer.writerow(METRICS_COLUMNS)
        metrics_fh.flush()
        pool = make_pool(
            cfg.strategy, threshold=cfg.threshold, grid=cfg.grid, seed=run_seed
        )
        eval_levels = [generate_level(s, cfg.grid) for s in cfg.eval_seeds()]
        outcomes: list[EnvOutcome] = []
        records: list[MetricsRecord] = []
        for i, seed in enumerate(cfg.train_seeds()):
            pool, outcome = ecosystem_learn(
                pool,
                generate_level(seed, cfg.grid),
                cfg.ppo,
                budget=cfg.budget,
                optimize=cfg.optimize_pool,
            )
            outcomes.append(outcome)
            for event in outcome.events:
                audit_fh.write(json.dumps(event) + "\n")
            audit_fh.flush()
            if (i + 1) % cfg.eval_every == 0:
                record = MetricsRecord(
                    envs_seen=i + 1,
                    zeta=adaptability_index(pool, eval_levels),
                    pool_size=len(pool.agents),
                    cum_steps=sum(o.training_steps_used for o in outcomes),
                    cum_tests=pool.tests_total,
                    failures=sum(o.failed for o in outcomes),
                )
                records.append(record)
                writer.writerow([getattr(record, c) for c in METRICS_COLUMNS])
                metrics_fh.flush()
                logger.info(
                    "run %d: %d envs seen, zeta=%.3f, pool=%d, steps=%d",
                    run_seed,
                    record.envs_seen,
                    record.zeta,
                    record.pool_size,
                    record.cum_steps,
                )
    save_pool(pool, out / "pool")
    return RunResult(records, pool, [e for o in outcomes for e in o.events], outcomes)


def aggregate_runs(runs: list[list[MetricsRecord]]) -> list[AggregateRecord]:
    """Per-checkpoint mean and standard error (sample stddev / sqrt(n))."""
    if not runs:
        raise ValueError("no runs to aggregate")
    checkpoints = [r.envs_seen for r in runs[0]]
    for run in runs[1:]:
        if [r.envs_seen for r in run] != checkpoints:
            raise ValueError("runs disagree on envs_seen checkpoints")

    n = len(runs)
    out = []
    for idx, envs_seen in enumerate(checkpoints):
        kwargs: dict = {"envs_seen": envs_seen}
        for metric in METRICS:
            values = np.array(
                [getattr(run[idx], metric) for run in runs], dtype=np.float64
            )
            if np.all(values == values[0]):
                # identical runs must aggregate to exactly (value, 0)
                kwargs[f"{metric}_mean"] = float(values[0])
                kwargs[f"{metric}_stderr"] = 0.0
            else:
                kwargs[f"{metric}_mean"] = float(values.mean())
                kwargs[f"{metric}_stderr"] = float(values.std(ddof=1) / np.sqrt(n))
        out.append(AggregateRecord(**kwargs))
    return out


def _dump_rows(fh, columns, rows, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        json.dump([dict(zip(columns, row)) for row in rows], fh, indent=2)
        fh.write("\n")


def _write_rows(path, columns, rows, fmt: str) -> None:
    """`rows` under a header of `columns` to `path`, or to stdout if None."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if path is None:
        return _dump_rows(sys.stdout, columns, rows, fmt)
    try:
        with open(path, "w", newline="") as fh:
            _dump_rows(fh, columns, rows, fmt)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def export_metrics(records: list[MetricsRecord], fmt: str, path=None) -> None:
    """One row per checkpoint, to `path` or to stdout; CSV uses '.'
    decimals and no separators."""
    rows = [[getattr(r, c) for c in METRICS_COLUMNS] for r in records]
    _write_rows(path, METRICS_COLUMNS, rows, fmt)


def export_aggregate(records: list[AggregateRecord], path) -> None:
    """One CSV row per checkpoint, to `path`."""
    rows = [[getattr(r, c) for c in AGGREGATE_COLUMNS] for r in records]
    _write_rows(path, AGGREGATE_COLUMNS, rows, "csv")


def load_metrics(path) -> list[MetricsRecord]:
    """Inverse of `export_metrics(records, "csv", path)`, the one format
    the program reads back (a JSON export is output only).  Each column is
    converted by its `MetricsRecord` annotation, from only what the
    program writes: a counter as plain decimal digits, zeta as a finite
    float in `repr` form.  ValueError names the columns a file lacks, or
    the line and column of a value that is missing or not in that form."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        entries = [(reader.line_num, entry) for entry in reader]
    missing = [c for c in METRICS_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path} lacks metrics column {', '.join(missing)}")
    kinds = typing.get_type_hints(MetricsRecord)

    def cell(line: int, entry: dict, column: str):
        text, kind = entry[column], kinds[column]
        try:
            if re.fullmatch(_CELL_SYNTAX[kind], text) and math.isfinite(value := kind(text)):
                return value
        except (TypeError, ValueError, OverflowError):  # None, or too many digits
            pass
        problem = f"metrics column {column} holds {text!r}"
        raise ValueError(f"{path} line {line}: {problem}")

    return [
        MetricsRecord(**{c: cell(line, entry, c) for c in METRICS_COLUMNS})
        for line, entry in entries
    ]


def _suite_worker(args) -> list[MetricsRecord]:
    cfg, run_seed, run_dir = args
    return run_to_dir(cfg, run_seed, run_dir).records


def _suite_tasks(cfg: ExperimentConfig, out: Path) -> list[tuple]:
    return [
        (cfg, run_seed, out / f"run_{run_seed:02d}") for run_seed in range(cfg.n_runs)
    ]


def _run_tasks(tasks: list[tuple], jobs: int) -> list[list[MetricsRecord]]:
    """Records of each (cfg, run seed, run dir) task, in task order.

    With `jobs` > 1, where fork exists, the tasks share one pool of
    forked worker processes, which inherit this process's state: its
    log handlers, and any wrapper installed before the call; they train
    inline.  Otherwise they run one after another in this process, each
    in the `critic_helper` block of its `run_to_dir`.  Runs are
    independent (each owns its pool) and the split update is exact, so
    results are identical either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and len(tasks) > 1 and "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            return list(pool.map(_suite_worker, tasks))
    return [_suite_worker(task) for task in tasks]


def run_suite(
    cfg: ExperimentConfig, out_dir, jobs: int = 1
) -> list[list[MetricsRecord]]:
    """All n_runs runs of one strategy, plus the aggregate file.  `jobs`
    > 1 fans the runs out over forked processes (see `_run_tasks`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = _run_tasks(_suite_tasks(cfg, out), jobs)
    export_aggregate(aggregate_runs(runs), out / "aggregate.csv")
    return runs


def check_strategies(strategies: list[Strategy]) -> None:
    if len(strategies) < 2:
        raise ValueError("compare needs at least 2 strategies")
    repeated = sorted({s.value for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ValueError(f"strategy given more than once: {', '.join(repeated)}")


def compare_suite(
    cfg: ExperimentConfig,
    strategies: list[Strategy],
    out_dir,
    jobs: int = 1,
) -> dict[Strategy, list[AggregateRecord]]:
    """The same seed schedule under each strategy, side by side.

    Emits per-strategy suites (runs + aggregate), a combined per-checkpoint
    table, and one chart per metric.  Every (strategy, run seed) pair is one
    task of a single list, so `jobs` > 1 keeps all workers busy across
    strategies; `jobs` == 1 runs each strategy's runs in turn.
    """
    check_strategies(strategies)
    out = Path(out_dir)
    tasks = []
    for strategy in strategies:
        tasks += _suite_tasks(replace(cfg, strategy=strategy), out / strategy.value)
    runs = _run_tasks(tasks, jobs)
    aggregates: dict[Strategy, list[AggregateRecord]] = {}
    for i, strategy in enumerate(strategies):
        suite = runs[i * cfg.n_runs : (i + 1) * cfg.n_runs]
        aggregates[strategy] = aggregate_runs(suite)
        export_aggregate(aggregates[strategy], out / strategy.value / "aggregate.csv")

    pairs = [(s, m) for s in strategies for m in COMPARE_METRICS]
    columns = ["envs_seen"] + [f"{s.value}_{m}" for s, m in pairs]
    rows = [
        [agg.envs_seen] + [getattr(aggregates[s][idx], f"{m}_mean") for s, m in pairs]
        for idx, agg in enumerate(aggregates[strategies[0]])
    ]
    _write_rows(out / "compare.csv", columns, rows, "csv")
    write_metric_charts(
        {s.value: aggregates[s] for s in strategies}, out / "charts"
    )
    return aggregates


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_CHART_W, _CHART_H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 24, 44


def write_metric_charts(by_strategy: dict[str, list[AggregateRecord]], out_dir) -> None:
    """One simple SVG line chart per metric (mean line, stderr whiskers)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for metric in METRICS:
        svg = _metric_chart_svg(metric, by_strategy)
        (out / f"{metric}.svg").write_text(svg)


def _metric_chart_svg(metric: str, by_strategy: dict[str, list[AggregateRecord]]) -> str:
    xs = sorted({r.envs_seen for recs in by_strategy.values() for r in recs})
    lo = min(
        getattr(r, f"{metric}_mean") - getattr(r, f"{metric}_stderr")
        for recs in by_strategy.values()
        for r in recs
    )
    hi = max(
        getattr(r, f"{metric}_mean") + getattr(r, f"{metric}_stderr")
        for recs in by_strategy.values()
        for r in recs
    )
    if hi == lo:
        hi, lo = hi + 1.0, lo - 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x0, x1 = min(xs), max(xs)
    if x0 == x1:
        x0, x1 = x0 - 1, x1 + 1

    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + plot_w * (x - x0) / (x1 - x0)

    def sy(y):
        return _MARGIN_T + plot_h * (1.0 - (y - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" '
        f'height="{_CHART_H}" viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_CHART_H - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_CHART_H - _MARGIN_B}" '
        f'x2="{_CHART_W - _MARGIN_R}" y2="{_CHART_H - _MARGIN_B}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif">{yv:.3g}</text>'
        )
        xv = x0 + frac * (x1 - x0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{_CHART_H - _MARGIN_B + 16}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{xv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_CHART_H - 8}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">environments seen</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{metric}</text>'
    )
    for i, (name, recs) in enumerate(by_strategy.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{sx(r.envs_seen):.1f},{sy(getattr(r, f'{metric}_mean')):.1f}"
            for r in recs
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for r in recs:
            mean = getattr(r, f"{metric}_mean")
            err = getattr(r, f"{metric}_stderr")
            if err > 0:
                parts.append(
                    f'<line x1="{sx(r.envs_seen):.1f}" y1="{sy(mean - err):.1f}" '
                    f'x2="{sx(r.envs_seen):.1f}" y2="{sy(mean + err):.1f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        parts.append(
            f'<text x="{_CHART_W - _MARGIN_R - 8}" y="{_MARGIN_T + 14 + 16 * i}" '
            f'font-size="12" text-anchor="end" font-family="sans-serif" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
