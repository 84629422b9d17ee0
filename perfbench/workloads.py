"""The benchmark's workloads: set-up, one round of timed work, and its checks.

A run repeats whole rounds of the same operations until its time is up.
The package is driven only through its public functions; the captures
below wrap two of them in the namespace their callers use, to keep
what they return for the checks.
"""

from __future__ import annotations

import copy
import csv
import functools
import json
import os
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ecopool import ecosystem, gridworld, harness
from ecopool.ecosystem import Strategy

import reference


@dataclass
class Checks:
    """What the output checks found, summed over the rounds checked.

    `problems` are faults no single operation owns; any one of them makes
    the run incorrect.  A failed operation only counts in `failed`.
    """

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    ties: int = 0
    revisit_steps: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def episode(self, agent, level) -> reference.Episode:
        episode = reference.greedy_episode(agent.params.actor, level)
        if episode.first_revisit is not None:
            self.revisit_steps.append(episode.first_revisit)
        if episode.tied:
            self.ties += 1
            print(
                f"reference: agent {agent.id} on level {level.seed} has a tie "
                f"within {reference.TIE_TOL}; not compared",
                file=sys.stderr,
            )
        return episode

    def fail(self, message: str) -> None:
        print(f"failed operation: {message}", file=sys.stderr)

    def problem(self, message: str) -> None:
        print(f"check failed: {message}", file=sys.stderr)
        self.problems.append(message)


def capture_returns(owner, attr: str, keep) -> None:
    """Call `keep(args, result)` after every call of `owner.attr`, for the
    life of the process."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        keep(args, result)
        return result

    setattr(owner, attr, wrapper)


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def same_agents(a: list, b: list) -> bool:
    return [(x.id, x.solved) for x in a] == [(y.id, y.solved) for y in b] and all(
        x.params == y.params for x, y in zip(a, b)
    )


def flat_layers(params) -> list[np.ndarray]:
    return [arr for head in (params.actor, params.critic) for layer in head for arr in layer]


def reference_zeta(checks: Checks, agents: list, levels: list) -> float | None:
    """Mean over levels of the best agent's reference reward; None on a tie."""
    total = 0.0
    tied = False
    for level in levels:
        episodes = [checks.episode(agent, level) for agent in agents]
        tied |= any(e.tied for e in episodes)
        total += max((e.reward for e in episodes), default=0.0)
    return None if tied else total / len(levels)


# ---------------------------------------------------------------- desk-stream

# Training seeds 10-16 of configs/desk.json.  Over its first ten levels at
# run seed 0, seed 4 alone takes basic 191 learn-epochs, two thirds of
# basic's time.  On this slice each strategy trains a new agent on five
# levels and credits two, one optimize pass absorbs a seed, and a round
# takes 12-15 s.
DESK_SLICE = range(10, 17)
DESK_MAX_ROUNDS = 8
STRATEGIES = [Strategy.BASIC, Strategy.FORKED]


@dataclass
class DeskRun:
    strategy: Strategy
    run_dir: Path
    result: harness.RunResult
    trained: list  # TrainResults, in order, as train_until_solved returned them


@dataclass
class DeskRound:
    k: int
    out: Path
    runs: list[DeskRun]
    error: Exception | None


class DeskStream:
    """basic, then forked, over one fixed slice of desk.json's training levels.

    Training cost is chaotic in every seed (see README), so the slice and
    the run seed are fixed and each round repeats the same training; the
    workload seed draws each round's held-out range.
    """

    setups = 5
    max_rounds = DESK_MAX_ROUNDS

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out
        self.runs: list[DeskRun] = []
        self._trained: list = []
        capture_returns(ecosystem, "train_until_solved", lambda a, r: self._trained.append(r))
        capture_returns(harness, "run_to_dir", self._keep_run)

    def _keep_run(self, args, result) -> None:
        cfg, _, run_dir = args
        self.runs.append(DeskRun(cfg.strategy, Path(run_dir), result, self._trained))
        self._trained = []

    def setup(self) -> None:
        cfg = harness.load_config(self.root / "configs" / "desk.json")
        rng = np.random.default_rng(self.seed)
        bases = 1_000_000 + 100 * rng.choice(10**9, DESK_MAX_ROUNDS, replace=False)
        self.cfgs = [
            replace(
                cfg,
                n_train_envs=len(DESK_SLICE),
                eval_every=len(DESK_SLICE),
                train_seed_base=DESK_SLICE.start,
                eval_seed_base=int(base),
                n_runs=1,  # run seed 0
            )
            for base in bases
        ]
        for c in self.cfgs:
            c.validate()
        self.train_levels = {s: gridworld.generate_level(s, cfg.grid) for s in DESK_SLICE}
        self.eval_levels = [
            [gridworld.generate_level(s, cfg.grid) for s in c.eval_seeds()] for c in self.cfgs
        ]

    def round(self, k: int, tag: str) -> DeskRound:
        out = self.out / f"round_{k}{tag}"
        self.runs, self._trained = [], []
        try:
            harness.compare_suite(self.cfgs[k], STRATEGIES, out)
        except Exception as exc:  # every level of the round counts as failed
            return DeskRound(k, out, self.runs, exc)
        return DeskRound(k, out, self.runs, None)

    def operations(self) -> int:
        return len(STRATEGIES) * len(DESK_SLICE)

    def facts(self, rnd: DeskRound) -> dict:
        return {
            "pool_size": sum(len(r.result.pool.agents) for r in rnd.runs),
            "tests_total": sum(r.result.pool.tests_total for r in rnd.runs),
            "save_bytes": sum(dir_bytes(r.run_dir / "pool") for r in rnd.runs),
            "outputs_bytes": dir_bytes(rnd.out),
        }

    def check(self, rnd: DeskRound, checks: Checks) -> None:
        cfg = self.cfgs[rnd.k]
        checks.rounds += 1
        checks.attempted += self.operations()
        if rnd.error is not None or [r.strategy for r in rnd.runs] != STRATEGIES:
            checks.fail(f"round {rnd.k}: compare_suite raised {rnd.error!r}")
            checks.failed += self.operations()
            return
        failed: set[tuple[str, int]] = set()
        problems_before = len(checks.problems)
        schedules = []
        for run in rnd.runs:
            name = run.strategy.value
            where = f"round {rnd.k} {name}"
            audit = [
                json.loads(line)
                for line in (run.run_dir / "audit.jsonl").read_text().splitlines()
            ]
            schedule = [e["env"] for e in audit if e["event"] in ("credit", "solved", "failed")]
            schedules.append(schedule)
            for s in DESK_SLICE:
                if schedule.count(s) != 1:
                    checks.fail(f"{where}: seed {s} ends in {schedule.count(s)} events")
                    failed.add((name, s))
            held_out = set(cfg.eval_seeds())
            if any(e.get("env") in held_out for e in audit):
                checks.problem(f"{where}: a held-out seed appears in the audit")

            with open(run.run_dir / "metrics.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            epochs = sum(o.epochs_used for o in run.result.outcomes)
            if int(last["cum_steps"]) != cfg.ppo.rollout_steps * epochs:
                checks.problem(
                    f"{where}: cum_steps {last['cum_steps']} != "
                    f"{cfg.ppo.rollout_steps} x {epochs} epochs"
                )

            pool = ecosystem.load_pool(run.run_dir / "pool")
            if not same_agents(pool.agents, run.result.pool.agents):
                checks.problem(f"{where}: the saved pool does not reload to equal weights")
            for agent in pool.agents:
                for s in agent.solved:
                    episode = checks.episode(agent, self.train_levels[s])
                    if not episode.tied and episode.reward < cfg.threshold:
                        checks.fail(
                            f"{where}: agent {agent.id} holds seed {s} but the reference "
                            f"reward is {episode.reward}"
                        )
                        failed.add((name, s))
            for a in pool.agents:
                for b in pool.agents:
                    if a is not b and set(a.solved) <= set(b.solved):
                        checks.problem(
                            f"{where}: agent {a.id}'s solved set lies in agent {b.id}'s"
                        )

            expected = reference_zeta(checks, pool.agents, self.eval_levels[rnd.k])
            if expected is not None and not reference.same_reward(float(last["zeta"]), expected):
                checks.problem(f"{where}: zeta {last['zeta']} != reference {expected}")

            if run.strategy is Strategy.FORKED:
                self._check_running_mean(run, checks, where)

        if any(schedule != list(DESK_SLICE) for schedule in schedules):
            checks.problem(f"round {rnd.k}: level schedules {schedules}")
        for path in ["compare.csv", *(f"{s.value}/aggregate.csv" for s in STRATEGIES)] + [
            f"charts/{m}.svg" for m in harness.METRICS
        ]:
            if not (rnd.out / path).is_file():
                checks.problem(f"round {rnd.k}: {path} was not written")
        checks.failed += len(failed)
        if not failed and len(checks.problems) == problems_before:
            shutil.rmtree(rnd.out)  # kept only when something in it failed

    @staticmethod
    def _check_running_mean(run: DeskRun, checks: Checks, where: str) -> None:
        """The main agent is the layer-wise mean of every trained fork."""
        forks = [flat_layers(t.agent.params) for t in run.trained if not t.failed]
        main = flat_layers(run.result.pool.main_agent)
        mean = [np.mean(arrays, axis=0) for arrays in zip(*forks)]
        if not forks or not all(
            np.allclose(m, e, rtol=1e-9, atol=1e-12) for m, e in zip(main, mean)
        ):
            checks.problem(f"{where}: main agent is not the mean of its {len(forks)} forks")

    def finish(self, checks: Checks) -> None:
        pass


# ---------------------------------------------------------------- the scans

TINY_RUN_SEED = 0
# Held-out scan levels come from a range far above every seed the configs use.
SCAN_SEED_BASE = 2_000_000


@dataclass
class ScanRound:
    k: int
    levels: list
    found: list  # FindResult, or the exception find_best_agent raised
    zeta: object  # float, or the exception adaptability_index raised


class Scan:
    """find_best_agent and adaptability_index over fresh held-out levels.

    Set-up grows the pool of configs/tiny.json (basic, run seed 0, its ten
    training levels); nothing is trained after that.
    """

    setups = 2

    def __init__(self, root: Path, seed: int, grid, per_round: int, max_levels: int):
        self.root, self.seed = root, seed
        self.grid, self.per_round, self.max_levels = grid, per_round, max_levels
        self.max_rounds = max_levels // per_round
        self.pool = None
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        cfg = harness.load_config(self.root / "configs" / "tiny.json")
        pool = ecosystem.make_pool(
            cfg.strategy, threshold=cfg.threshold, grid=cfg.grid, seed=TINY_RUN_SEED
        )
        for s in cfg.train_seeds():
            pool, _ = ecosystem.ecosystem_learn(
                pool,
                gridworld.generate_level(s, cfg.grid),
                cfg.ppo,
                budget=cfg.budget,
                optimize=cfg.optimize_pool,
            )
        if self.pool is not None and not same_agents(pool.agents, self.pool.agents):
            self.setup_problems.append("growing the pool twice gave different pools")
        self.pool = pool
        self.before = (copy.deepcopy(pool.agents), pool.tests_total)
        base = SCAN_SEED_BASE + int(np.random.default_rng(self.seed).integers(2**40))
        self.levels = [gridworld.generate_level(base + i, self.grid) for i in range(self.max_levels)]

    def round(self, k: int, tag: str) -> ScanRound:
        levels = self.levels[k * self.per_round : (k + 1) * self.per_round]
        found = []
        for level in levels:
            try:
                found.append(ecosystem.find_best_agent(self.pool, level))
            except Exception as exc:  # a raising scan is one failed operation
                found.append(exc)
        try:
            zeta = harness.adaptability_index(self.pool, levels)
        except Exception as exc:
            zeta = exc
        return ScanRound(k, levels, found, zeta)

    def facts(self, rnd: ScanRound) -> dict:
        return {
            "pool_size": len(self.pool.agents),
            "tests_total": self.pool.tests_total,
            "save_bytes": 0,
            "outputs_bytes": 0,
        }

    def check(self, rnd: ScanRound, checks: Checks) -> None:
        checks.rounds += 1
        checks.attempted += len(rnd.levels)
        agents = self.pool.agents
        threshold = self.pool.threshold
        failed = set()
        total = 0.0
        tied_round = False
        for level, found in zip(rnd.levels, rnd.found):
            where = f"round {rnd.k} level {level.seed}"
            episodes = [checks.episode(agent, level) for agent in agents]
            rewards = [e.reward for e in episodes]
            total += max(rewards, default=0.0)
            tied_round |= any(e.tied for e in episodes)
            if isinstance(found, Exception):
                checks.fail(f"{where}: find_best_agent raised {found!r}")
                failed.add(level.seed)
                continue
            solver = next((i for i, r in enumerate(rewards) if r >= threshold), None)
            scanned = len(agents) if solver is None else solver + 1
            if any(e.tied for e in episodes[:scanned]):
                continue
            best = max(range(scanned), key=lambda i: (rewards[i], -i))
            expected = (
                None if solver is None else agents[solver].id,
                None if solver is None else rewards[solver],
                agents[best].id,
                rewards[best],
                scanned,
            )
            got = (found.solver, found.solver_reward, found.best_id, found.best_reward, found.tests_run)
            shapes_ok = all(
                r is None or reference.is_reward_value(r, level.max_steps)
                for r in (found.solver_reward, found.best_reward)
            )
            if not (
                got[0] == expected[0]
                and reference.same_reward(got[1], expected[1])
                and got[2] == expected[2]
                and reference.same_reward(got[3], expected[3])
                and got[4] == expected[4]
                and shapes_ok
            ):
                checks.fail(f"{where}: find_best_agent gave {got}, reference {expected}")
                failed.add(level.seed)
        if isinstance(rnd.zeta, Exception):
            checks.fail(f"round {rnd.k}: adaptability_index raised {rnd.zeta!r}")
            failed.update(level.seed for level in rnd.levels)
        elif not tied_round and not reference.same_reward(rnd.zeta, total / len(rnd.levels)):
            checks.fail(
                f"round {rnd.k}: adaptability_index {rnd.zeta}, reference {total / len(rnd.levels)}"
            )
            failed.update(level.seed for level in rnd.levels)
        checks.failed += len(failed)

    def finish(self, checks: Checks) -> None:
        for message in self.setup_problems:
            checks.problem(message)
        agents, tests_total = self.before
        if not same_agents(self.pool.agents, agents) or self.pool.tests_total != tests_total:
            checks.problem("the scans changed the pool's weights, credits or tests_total")


def make_workload(name: str, root: Path, seed: int, out: Path):
    if name == "desk-stream":
        return DeskStream(root, seed, out)
    if name == "scan-9x9":
        return Scan(root, seed, gridworld.GridConfig(9, 9, 100), per_round=10, max_levels=500)
    if name == "scan-19x19":
        return Scan(root, seed, gridworld.GridConfig(19, 19, 300), per_round=5, max_levels=250)
    raise ValueError(f"unknown workload {name!r}")
