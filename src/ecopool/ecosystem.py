"""Pool of specialist agents grown over a stream of levels.

For each incoming level the pool is scanned for an agent that already
solves it (greedy test reward at or above the threshold).  If none does,
a new agent is created by the pool's initialization strategy, trained
until it solves the level or a budget runs out, then inserted.  An
optional optimization pass lets the new agent absorb environments other
agents solve and removes agents whose solved-set it covers; the pool is
kept sorted by solved-set size so the broadest specialist is scanned
first.

Solved-sets store level seeds, not levels: levels are regenerated on
demand from the pool's grid config, which is exact by determinism.
The pool is single-writer; `ecosystem_learn` owns it for the duration
of one environment.

A checkpoint is pool.json plus one weights file per agent, and one for
a forked pool's main agent, each named by `weights_file`.
"""

from __future__ import annotations

import json
import logging
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .gridworld import GridConfig, Level, generate_level
from .policy import (
    Adam,
    PolicyParams,
    clone_params,
    init_params,
    load_params,
    running_mean_params,
    save_params,
)
from .ppo import PpoConfig, learn_epoch, test_agent

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.8
DEFAULT_BUDGET = 300


class Strategy(str, Enum):
    """How a new agent's weights are initialized."""

    BASIC = "basic"      # fresh random weights
    RANDOM = "random"    # copy of a uniformly chosen pool agent
    BEST = "best"        # copy of the best scorer from the pool scan
    FORKED = "forked"    # copy of the main agent held outside the pool


@dataclass
class Agent:
    """One specialist: its weights and the level seeds credited to it."""

    id: int
    params: PolicyParams
    solved: list[int]
    birth_env: int


@dataclass
class Pool:
    strategy: Strategy
    threshold: float
    grid: GridConfig
    rng: np.random.Generator
    agents: list[Agent] = field(default_factory=list)
    main_agent: PolicyParams | None = None
    forks_absorbed: int = 0  # trained forks averaged into main_agent
    next_id: int = 0
    tests_total: int = 0


def check_threshold(threshold: float) -> None:
    """The one rule for a pass threshold: ValueError unless in (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def make_pool(
    strategy: Strategy,
    threshold: float = DEFAULT_THRESHOLD,
    grid: GridConfig = GridConfig(),
    seed: int = 0,
) -> Pool:
    """Empty pool; under the forked strategy the main agent is born here."""
    check_threshold(threshold)
    rng = np.random.default_rng(seed)
    pool = Pool(strategy=Strategy(strategy), threshold=threshold, grid=grid, rng=rng)
    if pool.strategy is Strategy.FORKED:
        pool.main_agent = init_params(int(rng.integers(2**63)))
    return pool


@dataclass(frozen=True)
class FindResult:
    solver: int | None
    solver_reward: float | None
    best_id: int | None
    best_reward: float | None
    tests_run: int


@dataclass(frozen=True)
class TrainResult:
    agent: Agent
    epochs_used: int
    steps_used: int
    failed: bool
    final_reward: float
    tests_run: int


@dataclass(frozen=True)
class EnvOutcome:
    """Bookkeeping for one environment presented to the eco-system."""

    level_seed: int
    solved_by: int | None
    created_new: bool
    training_steps_used: int
    epochs_used: int
    failed: bool
    tests_run: int
    credit_reward: float | None


def find_best_agent(pool: Pool, level: Level) -> FindResult:
    """Scan the pool in order, one greedy test episode per agent.

    The solver is the first agent whose reward meets the threshold; the
    best is the first agent achieving the maximum reward seen.  All
    strategies stop the scan at the solver except Best, which keeps
    scanning so its copy source reflects the whole pool.
    """
    solver = None
    solver_reward = None
    best_id = None
    best_reward = None
    tests = 0
    for agent in pool.agents:
        reward = test_agent(agent.params, level)
        tests += 1
        if best_reward is None or reward > best_reward:
            best_id, best_reward = agent.id, reward
        if reward >= pool.threshold and solver is None:
            solver, solver_reward = agent.id, reward
            if pool.strategy is not Strategy.BEST:
                break
    return FindResult(
        solver=solver,
        solver_reward=solver_reward,
        best_id=best_id,
        best_reward=best_reward,
        tests_run=tests,
    )


def initialize_agent(
    pool: Pool, best_id: int | None, rng: np.random.Generator
) -> Agent:
    """New agent with weights chosen by the pool's strategy.

    Forked copies the pool's main agent, which `make_pool` and `load_pool`
    always provide.  Random and best with no pool agent to copy from fall
    back to fresh random weights, and the fallback is logged.
    """
    strategy = pool.strategy
    params = None
    if strategy is Strategy.FORKED:
        params = clone_params(pool.main_agent)
    elif strategy is Strategy.RANDOM and pool.agents:
        source = pool.agents[int(rng.integers(len(pool.agents)))]
        params = clone_params(source.params)
    elif strategy is Strategy.BEST and best_id is not None:
        source = next(a for a in pool.agents if a.id == best_id)
        params = clone_params(source.params)
    elif strategy in (Strategy.RANDOM, Strategy.BEST):
        logger.info(
            "strategy %s has no copy source yet, falling back to fresh weights",
            strategy.value,
        )
    if params is None:
        params = init_params(int(rng.integers(2**63)))

    agent = Agent(id=pool.next_id, params=params, solved=[], birth_env=-1)
    pool.next_id += 1
    return agent


def train_until_solved(
    agent: Agent,
    level: Level,
    cfg: PpoConfig,
    budget: int = DEFAULT_BUDGET,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    rng: np.random.Generator,
) -> TrainResult:
    """Alternate learn-epochs and greedy tests until the level is solved.

    An agent that already solves the level consumes no training.  Budget
    exhaustion returns failed=True; the caller decides what to discard.
    Optimizer moments are created fresh here and die with the call.  The
    rollouts draw from `rng` (the pool's, under `ecosystem_learn`).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    params = agent.params
    opt = Adam(params, lr=cfg.lr)
    reward = test_agent(params, level)
    epochs = 0
    while reward < threshold and epochs < budget:
        params, _ = learn_epoch(params, level, cfg, rng, opt=opt)
        reward = test_agent(params, level)
        epochs += 1
    agent.params = params
    return TrainResult(
        agent=agent,
        epochs_used=epochs,
        steps_used=epochs * cfg.rollout_steps,
        failed=reward < threshold,
        final_reward=reward,
        tests_run=epochs + 1,
    )


def sort_pool(pool: Pool) -> Pool:
    """Solved-set size descending, ties by ascending agent id."""
    pool.agents.sort(key=lambda a: (-len(a.solved), a.id))
    return pool


def optimize_pool(pool: Pool, new_agent: Agent, audit: list | None = None) -> Pool:
    """Let the freshly inserted agent absorb and displace others.

    Every level seed credited to another agent is re-tested against the
    new agent; passing seeds transfer (as additional credits).  Agents
    whose entire solved-set the new agent now covers are removed.  The
    pool is re-sorted afterwards.
    """
    if audit is None:
        audit = []
    for other in list(pool.agents):
        if other.id == new_agent.id:
            continue
        for seed in other.solved:
            if seed in new_agent.solved:
                continue
            reward = test_agent(new_agent.params, generate_level(seed, pool.grid))
            pool.tests_total += 1
            if reward >= pool.threshold:
                new_agent.solved.append(seed)
                audit.append(
                    dict(event="absorb", env=seed, agent=new_agent.id, reward=reward)
                )
        if set(other.solved) <= set(new_agent.solved):
            pool.agents.remove(other)
            audit.append(dict(event="remove", agent=other.id, covered_by=new_agent.id))
    return sort_pool(pool)


def ecosystem_learn(
    pool: Pool,
    level: Level,
    cfg: PpoConfig,
    budget: int = DEFAULT_BUDGET,
    optimize: bool = True,
    audit: list | None = None,
) -> tuple[Pool, EnvOutcome]:
    """Present one level to the eco-system.

    Credits an existing solver when the scan finds one; otherwise creates,
    trains, and inserts a new agent (with optimization pass), or records a
    failure if the budget runs out.  Either way one audit event records
    the level ("credit", "solved" or "failed"), ahead of any absorb and
    remove events of the optimization pass.  Under the forked strategy
    the main agent absorbs each successful new agent's trained weights as
    a running mean: after the n-th such fork, main <- main + (trained -
    main) / n, one expression over the flat parameter vector, so the main
    agent is the mean of every trained fork (the first fork is copied
    exactly).  Failed forks are not absorbed.
    """
    if (level.width, level.height, level.max_steps) != (
        pool.grid.width,
        pool.grid.height,
        pool.grid.max_steps,
    ):
        raise ValueError("level geometry does not match the pool's grid config")
    if audit is None:
        audit = []

    tests_before = pool.tests_total
    found = find_best_agent(pool, level)
    pool.tests_total += found.tests_run
    created_new = found.solver is None
    if created_new:
        agent = initialize_agent(pool, found.best_id, pool.rng)
        agent.birth_env = level.seed
        result = train_until_solved(
            agent, level, cfg, budget=budget, threshold=pool.threshold, rng=pool.rng
        )
        pool.tests_total += result.tests_run
        agent, reward, failed = result.agent, result.final_reward, result.failed
        epochs, steps = result.epochs_used, result.steps_used
        event = "failed" if failed else "solved"
    else:
        agent = next(a for a in pool.agents if a.id == found.solver)
        reward, failed, epochs, steps = found.solver_reward, False, 0, 0
        event = "credit"
    audit.append(dict(event=event, env=level.seed, agent=agent.id, reward=reward))

    if not failed:
        if level.seed not in agent.solved:
            agent.solved.append(level.seed)
        if created_new:
            pool.agents.append(agent)
        if created_new and optimize:
            optimize_pool(pool, agent, audit=audit)
        else:
            sort_pool(pool)
        if created_new and pool.strategy is Strategy.FORKED:
            pool.forks_absorbed += 1
            pool.main_agent = running_mean_params(
                pool.main_agent, agent.params, pool.forks_absorbed
            )

    return pool, EnvOutcome(
        level_seed=level.seed,
        solved_by=None if failed else agent.id,
        created_new=created_new,
        training_steps_used=steps,
        epochs_used=epochs,
        failed=failed,
        tests_run=pool.tests_total - tests_before,
        credit_reward=None if failed else reward,
    )


POOL_FILE = "pool.json"
_CHECKPOINT_VERSION = 3


def weights_file(agent_id: int | str | None) -> str:
    """The checkpoint file of agent `agent_id`'s weights; None names the
    main agent's, and "*" gives the glob of every agent's."""
    return "main.npy" if agent_id is None else f"agent_{agent_id}.npy"


@dataclass(frozen=True)
class AgentEntry:
    """One agent in pool.json; its weights are in `weights_file(id)`."""

    id: int
    solved: list[int]
    birth_env: int
    widths: list[list[int]]


@dataclass(frozen=True)
class Manifest:
    """A checkpoint's pool.json: the pool without its weights.  It refuses,
    naming the problem, a value a pool cannot use."""

    strategy: Strategy
    threshold: float
    grid: GridConfig
    next_id: int
    agents: list[AgentEntry]
    main_widths: list[list[int]] | None
    forks_absorbed: int

    def __post_init__(self):
        check_threshold(self.threshold)
        ids = [e.id for e in self.agents]
        top = max(ids, default=-1)
        forked = self.strategy is Strategy.FORKED
        for bad, problem in (
            (self.forks_absorbed < 0, f"forks_absorbed must be >= 0, got {self.forks_absorbed}"),
            (len(set(ids)) < len(ids), f"two agents share an id: {ids}"),
            (self.next_id <= top, f"next_id {self.next_id} is not above agent id {top}"),
            (forked and self.main_widths is None, "has no main agent"),
            (not forked and self.main_widths is not None, "has a main agent but is not forked"),
        ):
            if bad:
                raise ValueError(problem)

    def to_json(self) -> dict:
        return {"version": _CHECKPOINT_VERSION, **asdict(self)}


def read_json(path, what: str):
    """The JSON in file `path`; ValueError, naming `what`, if unreadable."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc


def from_json(cls, data, what: str, path: str = "", partial: bool = True):
    """The JSON object `data` as an instance of dataclass `cls`.

    Each key's type comes from its field's annotation, followed into
    nested dataclasses, `list[...]`, enums and `X | None`; an int passes
    for a float.  A key may be left out only when `partial` is set and its
    field has a default.  ValueError names, as `what` key `path`+key, an
    unknown, missing or mistyped key; the instance may refuse its values.
    """
    if not isinstance(data, dict):
        where = f"{what} key {path[:-1]!r}" if path else what
        raise ValueError(f"{where} must be an object")

    def typed(kind, value, key: str):
        options = typing.get_args(kind)
        if type(None) in options:
            if value is None:
                return None
            (kind,) = (k for k in options if k is not type(None))
        if is_dataclass(kind):
            return from_json(kind, value, what, f"{path}{key}.", partial)
        origin = typing.get_origin(kind) or kind
        if issubclass(origin, Enum):
            try:
                return kind(value)
            except ValueError as exc:
                raise ValueError(f"{what} key {path}{key!r}: {exc}") from None
        ok = (int, float) if kind is float else (origin,)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, ok):
            raise ValueError(f"wrong type for {what} key {path}{key!r}: {value!r}")
        if origin is list:
            return [typed(typing.get_args(kind)[0], v, key) for v in value]
        return value

    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"unknown {what} key {path}{key!r}")
        kwargs[key] = typed(kinds[key], value, key)
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in data and (required or not partial):
            raise ValueError(f"missing {what} key {path}{f.name!r}")
    return cls(**kwargs)


def _manifest_file(path) -> Path:
    """The pool.json of a checkpoint directory, or `path` itself."""
    path = Path(path)
    return path / POOL_FILE if path.is_dir() else path


def read_manifest(path) -> Manifest:
    """The pool.json of a checkpoint directory (or the file itself), checked.

    Every key is required and typed by its field.  ValueError names the
    problem: an unreadable file, a version other than 3 (rerunning a run's
    config.json rewrites an older checkpoint), a missing, unknown or
    mistyped key, or a value `GridConfig` or `Manifest` refuses."""
    path = _manifest_file(path)
    data = read_json(path, "pool checkpoint")
    version = data.pop("version", None) if isinstance(data, dict) else None
    if version != _CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported pool version {version!r} in {path}: this program reads version "
            f"{_CHECKPOINT_VERSION} only; rerun the run's config.json to write it again"
        )
    try:
        return from_json(Manifest, data, POOL_FILE, partial=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad pool checkpoint {path}: {exc}") from exc


def save_pool(pool: Pool, out_dir) -> None:
    """Checkpoint: pool.json plus one `save_params` file per agent (and
    the main agent), named by `weights_file`.  The manifest is built, and
    checks itself, before any file is written.  Saving again into `out_dir`
    then deletes the weights files of agents the pool no longer holds."""

    def widths(params: PolicyParams) -> list[list[int]]:
        return [list(head) for head in params.widths]

    main = pool.main_agent
    agents = [AgentEntry(a.id, list(a.solved), a.birth_env, widths(a.params)) for a in pool.agents]
    manifest = Manifest(
        pool.strategy, pool.threshold, pool.grid, pool.next_id, agents,
        None if main is None else widths(main), pool.forks_absorbed,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    saved = {weights_file(a.id): a.params for a in pool.agents}
    if main is not None:
        saved[weights_file(None)] = main
    for name, params in saved.items():
        save_params(params, out / name)
    (out / POOL_FILE).write_text(json.dumps(manifest.to_json(), indent=2))
    for stale in [*out.glob(weights_file("*")), out / weights_file(None)]:
        if stale.name not in saved:
            stale.unlink(missing_ok=True)


def load_pool(path) -> Pool:
    """Rebuild a pool from `save_pool` output through `read_manifest` and
    `load_params`, naming a bad or missing weights file.  `path` is what
    `read_manifest` takes, and the weights are read next to the manifest.
    The RNG starts from seed 0, not where the saved pool's had got to."""
    manifest_file = _manifest_file(path)
    manifest = read_manifest(manifest_file)

    def params(agent_id: int | None, widths: list[list[int]]) -> PolicyParams:
        file = manifest_file.parent / weights_file(agent_id)
        try:
            return load_params(file, widths)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad weights file {file}: {exc}") from exc

    main = manifest.main_widths
    return Pool(
        manifest.strategy, manifest.threshold, manifest.grid, np.random.default_rng(0),
        agents=[
            Agent(e.id, params(e.id, e.widths), list(e.solved), e.birth_env)
            for e in manifest.agents
        ],
        main_agent=None if main is None else params(None, main),
        forks_absorbed=manifest.forks_absorbed,
        next_id=manifest.next_id,
    )
