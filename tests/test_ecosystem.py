"""Pool scanning, initialization strategies, training loop, pruning and
checkpoints."""

import json
import logging
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from ecopool import ecosystem, policy, ppo
from ecopool.ecosystem import (
    Agent,
    EnvOutcome,
    Strategy,
    ecosystem_learn,
    find_best_agent,
    initialize_agent,
    load_pool,
    make_pool,
    optimize_pool,
    save_pool,
    sort_pool,
    train_until_solved,
)
from ecopool.gridworld import GridConfig, generate_level, parse_ascii, render_ascii, reset
from ecopool.policy import PolicyParams, init_params
from ecopool.ppo import PpoConfig

FAST_CFG = PpoConfig(
    rollout_steps=256, minibatch_size=64, update_epochs=6, entropy_coef=0.02
)


def _tiny_params(seed):
    return init_params(seed, obs_dim=4, hidden=(4,))


def _pool_with_agents(strategy, rewards_by_agent, solved=None):
    """Pool of tiny agents plus a scripted reward table keyed on
    (params identity, level seed)."""
    pool = make_pool(strategy, grid=GridConfig())
    table = {}
    for i, per_level in enumerate(rewards_by_agent):
        agent = Agent(
            id=i,
            params=_tiny_params(i),
            solved=list(solved[i]) if solved else [i],
            birth_env=i,
        )
        pool.agents.append(agent)
        pool.next_id = i + 1
        for level_seed, reward in per_level.items():
            table[(id(agent.params), level_seed)] = reward
    return pool, table


def _scripted(table, default=0.0):
    def fake_test_agent(params, level):
        return table.get((id(params), level.seed), default)

    return fake_test_agent


def _assert_sorted(pool):
    keys = [(-len(a.solved), a.id) for a in pool.agents]
    assert keys == sorted(keys)


def _assert_no_dominance(pool):
    for a in pool.agents:
        for b in pool.agents:
            if a.id != b.id:
                assert not set(a.solved) <= set(b.solved), (a.id, b.id)


class TestFindBestAgent:
    def test_empty_pool(self):
        pool = make_pool(Strategy.BASIC)
        result = find_best_agent(pool, generate_level(0))
        assert result.solver is None
        assert result.best_id is None
        assert result.tests_run == 0

    def test_early_exit_at_first_solver(self, monkeypatch):
        level = generate_level(100)
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{100: 0.3}, {100: 0.85}, {100: 0.9}]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        result = find_best_agent(pool, level)
        assert result.solver == 1
        assert result.solver_reward == 0.85
        assert result.tests_run == 2  # third agent never tested

    def test_best_strategy_stops_at_solver(self, monkeypatch):
        # Best reads best_id only when no agent solves, so its scan stops
        # at the solver like every other strategy's.
        level = generate_level(100)
        pool, table = _pool_with_agents(
            Strategy.BEST, [{100: 0.5}, {100: 0.85}, {100: 0.95}]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        result = find_best_agent(pool, level)
        assert result.tests_run == 2  # third agent never tested
        assert result.solver == 1  # first to meet the threshold
        assert result.best_id == 1  # highest reward of those scanned

    def test_first_max_tie_break(self, monkeypatch):
        level = generate_level(100)
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{100: 0.3}, {100: 0.7}, {100: 0.7}]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        result = find_best_agent(pool, level)
        assert result.solver is None
        assert result.best_id == 1
        assert result.best_reward == 0.7
        assert result.tests_run == 3


class TestInitializeAgent:
    def test_basic_fresh_weights(self):
        pool, _ = _pool_with_agents(Strategy.BASIC, [{}, {}])
        agent = initialize_agent(pool, None, pool.rng)
        assert agent.id == 2
        assert all(agent.params != a.params for a in pool.agents)

    def test_random_single_agent_pool(self):
        pool, _ = _pool_with_agents(Strategy.RANDOM, [{}])
        agent = initialize_agent(pool, None, pool.rng)
        assert agent.params == pool.agents[0].params
        agent.params.actor[0][0][0, 0] += 1.0
        assert agent.params != pool.agents[0].params  # clone, not alias

    def test_best_copies_named_agent(self):
        pool, _ = _pool_with_agents(Strategy.BEST, [{}, {}, {}])
        agent = initialize_agent(pool, 1, pool.rng)
        assert agent.params == pool.agents[1].params
        assert agent.params is not pool.agents[1].params

    def test_forked_copies_main_agent(self):
        pool = make_pool(Strategy.FORKED)
        assert pool.main_agent is not None
        agent = initialize_agent(pool, None, pool.rng)
        assert agent.params == pool.main_agent
        assert agent.params is not pool.main_agent

    def test_fallbacks_logged(self, caplog):
        for strategy in (Strategy.RANDOM, Strategy.BEST):
            pool = make_pool(strategy)
            with caplog.at_level(logging.INFO, logger="ecopool.ecosystem"):
                agent = initialize_agent(pool, None, pool.rng)
            assert agent.params is not None
            assert any("falling back" in r.message for r in caplog.records)
            caplog.clear()

    def test_ids_unique_and_increasing(self):
        pool = make_pool(Strategy.BASIC)
        ids = [initialize_agent(pool, None, pool.rng).id for _ in range(4)]
        assert ids == [0, 1, 2, 3]


class TestTrainUntilSolved:
    def test_already_solving_consumes_nothing(self, monkeypatch):
        monkeypatch.setattr(ecosystem, "test_agent", lambda p, l: 0.9)
        agent = Agent(id=0, params=_tiny_params(0), solved=[], birth_env=5)
        result = train_until_solved(
            agent, generate_level(5), FAST_CFG, rng=np.random.default_rng(0)
        )
        assert result.epochs_used == 0
        assert result.steps_used == 0
        assert not result.failed
        assert result.final_reward == 0.9
        assert result.tests_run == 1

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(ecosystem, "test_agent", lambda p, l: 0.0)
        monkeypatch.setattr(
            ecosystem, "learn_epoch", lambda p, l, c, r, opt=None: (p, c.rollout_steps)
        )
        agent = Agent(id=0, params=_tiny_params(0), solved=[], birth_env=5)
        result = train_until_solved(
            agent, generate_level(5), FAST_CFG, budget=3, rng=np.random.default_rng(0)
        )
        assert result.failed
        assert result.epochs_used == 3
        assert result.steps_used == 3 * FAST_CFG.rollout_steps
        assert result.tests_run == 4  # entry test plus one per epoch

    def test_solves_after_some_epochs(self, monkeypatch):
        calls = {"n": 0}

        def staged_test(p, l):
            calls["n"] += 1
            return 0.9 if calls["n"] > 3 else 0.0

        monkeypatch.setattr(ecosystem, "test_agent", staged_test)
        monkeypatch.setattr(
            ecosystem, "learn_epoch", lambda p, l, c, r, opt=None: (p, c.rollout_steps)
        )
        agent = Agent(id=0, params=_tiny_params(0), solved=[], birth_env=5)
        result = train_until_solved(
            agent, generate_level(5), FAST_CFG, budget=10, rng=np.random.default_rng(0)
        )
        assert not result.failed
        assert result.epochs_used == 3
        assert result.steps_used == 3 * FAST_CFG.rollout_steps

    def test_one_epoch_budget_fails_on_hard_level(self):
        agent = Agent(id=0, params=init_params(0), solved=[], birth_env=4)
        result = train_until_solved(
            agent,
            generate_level(4),
            FAST_CFG,
            budget=1,
            rng=np.random.default_rng(0),
        )
        assert result.failed
        assert result.epochs_used == 1

    def test_rejects_zero_budget(self):
        agent = Agent(id=0, params=_tiny_params(0), solved=[], birth_env=0)
        with pytest.raises(ValueError):
            train_until_solved(
                agent, generate_level(0), FAST_CFG, budget=0, rng=np.random.default_rng(0)
            )


# Jobs reach the helper by reference to their gradient function, so the
# stand-in lives at module level.
_CALLER = os.getpid()


def _critic_grad_slow_in_caller(*args):
    # This process's own copy of the critic trails the helper's, so each
    # update takes the helper's reply.
    if os.getpid() == _CALLER:
        time.sleep(0.02)
    return policy._critic_grad(*args)


def _train_seed_6(monkeypatch):
    """train_until_solved on level 6, which a fresh agent solves in 8
    learn-epochs, and the bytes of its weights and Adam moments."""
    opts = []

    def recording_adam(params, lr):
        opts.append(policy.Adam(params, lr=lr))
        return opts[-1]

    monkeypatch.setattr(ecosystem, "Adam", recording_adam)
    agent = Agent(id=0, params=init_params(6), solved=[], birth_env=6)
    result = train_until_solved(
        agent, generate_level(6), FAST_CFG, budget=30, rng=np.random.default_rng(0)
    )
    (opt,) = opts
    return result, (opt._m.tobytes(), opt._v.tobytes(), opt.t)


class TestTrainUntilSolvedOnHelper:
    def test_one_helper_per_call_takes_every_critic(self, monkeypatch, helpers):
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_slow_in_caller)
        result, _ = _train_seed_6(monkeypatch)
        assert not result.failed and result.epochs_used == 8
        assert [h.jobs for h in helpers] == [8]
        assert helpers[0].proc.exitcode == 0
        assert multiprocessing.active_children() == []

    def test_same_bits_as_inline(self, monkeypatch, helpers):
        result, moments = _train_seed_6(monkeypatch)
        assert len(helpers) == 1
        monkeypatch.setattr(ppo, "_usable_cpus", lambda: 1)
        inline, inline_moments = _train_seed_6(monkeypatch)
        assert len(helpers) == 1
        assert result.agent.params.flat.tobytes() == inline.agent.params.flat.tobytes()
        assert result == inline and moments == inline_moments

    def test_agent_that_solves_forks_nothing(self, monkeypatch, helpers):
        result, _ = _train_seed_6(monkeypatch)
        forked = len(helpers)
        again = train_until_solved(
            result.agent, generate_level(6), FAST_CFG, rng=np.random.default_rng(0)
        )
        assert again.epochs_used == 0 and not again.failed
        assert len(helpers) == forked


class TestSortPool:
    def test_by_size_descending(self):
        pool, _ = _pool_with_agents(
            Strategy.BASIC, [{}, {}, {}], solved=[[1], [1, 2, 3], [1, 2]]
        )
        sort_pool(pool)
        assert [len(a.solved) for a in pool.agents] == [3, 2, 1]

    def test_ties_by_ascending_id(self):
        pool, _ = _pool_with_agents(
            Strategy.BASIC, [{}, {}, {}], solved=[[1], [2], [3]]
        )
        pool.agents.reverse()
        sort_pool(pool)
        assert [a.id for a in pool.agents] == [0, 1, 2]

    def test_idempotent(self):
        pool, _ = _pool_with_agents(
            Strategy.BASIC, [{}, {}, {}], solved=[[1], [1, 2], [3]]
        )
        sort_pool(pool)
        order = [a.id for a in pool.agents]
        sort_pool(pool)
        assert [a.id for a in pool.agents] == order


class TestOptimizePool:
    def test_absorbs_and_removes_dominated(self, monkeypatch):
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{}, {}], solved=[[10, 11], [12]]
        )
        new_agent = Agent(id=2, params=_tiny_params(2), solved=[13], birth_env=13)
        pool.agents.append(new_agent)
        pool.next_id = 3
        # New agent passes both of agent 0's levels but not agent 1's.
        table[(id(new_agent.params), 10)] = 0.9
        table[(id(new_agent.params), 11)] = 0.85
        table[(id(new_agent.params), 12)] = 0.2
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))

        audit = []
        optimize_pool(pool, new_agent, audit=audit)
        assert sorted(new_agent.solved) == [10, 11, 13]
        assert [a.id for a in pool.agents] == [2, 1]  # agent 0 removed, sorted
        assert pool.tests_total == 3
        events = [(e["event"], e.get("env")) for e in audit]
        assert ("absorb", 10) in events and ("absorb", 11) in events
        assert ("remove", None) in events
        _assert_no_dominance(pool)
        _assert_sorted(pool)

    def test_no_absorption_leaves_pool_intact(self, monkeypatch):
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{}, {}], solved=[[10], [11]]
        )
        new_agent = Agent(id=2, params=_tiny_params(2), solved=[12], birth_env=12)
        pool.agents.append(new_agent)
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        optimize_pool(pool, new_agent, audit=None)
        assert {a.id for a in pool.agents} == {0, 1, 2}
        assert new_agent.solved == [12]

    def test_equal_sets_keep_only_new_agent(self, monkeypatch):
        pool, table = _pool_with_agents(Strategy.BASIC, [{}], solved=[[10]])
        new_agent = Agent(id=1, params=_tiny_params(1), solved=[], birth_env=10)
        new_agent.solved.append(10)
        pool.agents.append(new_agent)
        table[(id(new_agent.params), 10)] = 1.0
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        optimize_pool(pool, new_agent, audit=None)
        assert [a.id for a in pool.agents] == [1]

    def test_skips_already_credited_seeds(self, monkeypatch):
        pool, table = _pool_with_agents(Strategy.BASIC, [{}], solved=[[10]])
        new_agent = Agent(id=1, params=_tiny_params(1), solved=[10, 11], birth_env=11)
        pool.agents.append(new_agent)
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        optimize_pool(pool, new_agent, audit=None)
        assert pool.tests_total == 0  # seed 10 already credited, nothing to test


class TestEcosystemLearn:
    def test_existing_solver_credited(self, monkeypatch):
        level = generate_level(50)
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{50: 0.9}], solved=[[10]]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table))
        pool, outcome = ecosystem_learn(pool, level, FAST_CFG)
        assert outcome.solved_by == 0
        assert not outcome.created_new
        assert outcome.training_steps_used == 0
        assert outcome.epochs_used == 0
        assert outcome.credit_reward == 0.9
        assert outcome.tests_run == 1
        assert 50 in pool.agents[0].solved
        assert [e["event"] for e in outcome.events] == ["credit"]

    def test_first_agent_on_empty_pool(self, monkeypatch):
        monkeypatch.setattr(ecosystem, "test_agent", lambda p, l: 0.9)
        pool = make_pool(Strategy.BASIC)
        pool, outcome = ecosystem_learn(pool, generate_level(7), FAST_CFG)
        assert outcome.created_new
        assert not outcome.failed
        assert len(pool.agents) == 1
        assert pool.agents[0].solved == [7]
        assert pool.agents[0].birth_env == 7

    def test_forked_copy_back(self, monkeypatch):
        monkeypatch.setattr(ecosystem, "test_agent", lambda p, l: 0.9)
        pool = make_pool(Strategy.FORKED)
        main_before = pool.main_agent
        pool, outcome = ecosystem_learn(pool, generate_level(7), FAST_CFG)
        agent = pool.agents[0]
        assert pool.main_agent == agent.params
        assert pool.main_agent is not agent.params  # independent copy
        # Entry test passed immediately, so weights never changed here.
        assert pool.main_agent == main_before

    def test_forked_main_agent_is_running_mean(self, monkeypatch):
        # Levels 1 and 2 train their forks to known weights a1 and a2;
        # level 3's fork never passes its test and fails.
        a1, a2 = _tiny_params(1), _tiny_params(2)
        trained = {1: a1, 2: a2, 3: _tiny_params(3)}
        monkeypatch.setattr(
            ecosystem,
            "learn_epoch",
            lambda p, l, c, r, opt=None: (trained[l.seed], c.rollout_steps),
        )
        monkeypatch.setattr(
            ecosystem,
            "test_agent",
            lambda p, l: 0.9 if l.seed != 3 and p is trained[l.seed] else 0.0,
        )
        pool = make_pool(Strategy.FORKED)
        pool.main_agent = _tiny_params(0)

        pool, _ = ecosystem_learn(pool, generate_level(1), FAST_CFG)
        assert pool.forks_absorbed == 1
        assert pool.main_agent == a1  # the first fork is copied exactly
        assert pool.main_agent is not a1

        pool, _ = ecosystem_learn(pool, generate_level(2), FAST_CFG)
        assert len(pool.agents) == 2
        assert pool.forks_absorbed == 2
        expected = PolicyParams(
            actor=tuple(
                (w1 + (w2 - w1) / 2, b1 + (b2 - b1) / 2)
                for (w1, b1), (w2, b2) in zip(a1.actor, a2.actor)
            ),
            critic=tuple(
                (w1 + (w2 - w1) / 2, b1 + (b2 - b1) / 2)
                for (w1, b1), (w2, b2) in zip(a1.critic, a2.critic)
            ),
        )
        assert pool.main_agent == expected
        assert pool.main_agent != a1 and pool.main_agent != a2

        pool, outcome = ecosystem_learn(pool, generate_level(3), FAST_CFG, budget=2)
        assert outcome.failed
        assert pool.forks_absorbed == 2
        assert pool.main_agent == expected  # a failed fork is not absorbed

        fork = initialize_agent(pool, None, pool.rng)
        assert fork.params == pool.main_agent
        fork.params.actor[0][0][0, 0] += 1.0
        fork.params.critic[-1][1][0] += 1.0
        assert pool.main_agent == expected  # the fork is independent

    def test_failure_leaves_pool_unchanged(self, monkeypatch):
        monkeypatch.setattr(ecosystem, "test_agent", lambda p, l: 0.0)
        monkeypatch.setattr(
            ecosystem, "learn_epoch", lambda p, l, c, r, opt=None: (p, c.rollout_steps)
        )
        pool = make_pool(Strategy.BASIC)
        pool, outcome = ecosystem_learn(pool, generate_level(7), FAST_CFG, budget=2)
        assert outcome.failed
        assert outcome.created_new
        assert outcome.solved_by is None
        assert outcome.epochs_used == 2
        assert len(pool.agents) == 0
        assert [e["event"] for e in outcome.events] == ["failed"]

    def test_without_optimization_pass(self, monkeypatch):
        # The new agent would pass every seed the pool agents hold, so an
        # optimization pass would absorb them and remove both agents.
        level = generate_level(60)
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{60: 0.1}, {60: 0.1}], solved=[[10], [11, 12]]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table, default=0.9))
        pool, outcome = ecosystem_learn(pool, level, FAST_CFG, optimize=False)
        new_agent = next(a for a in pool.agents if a.id == 2)
        assert new_agent.solved == [60]
        assert [e["event"] for e in outcome.events] == ["solved"]
        assert [a.id for a in pool.agents] == [1, 0, 2]  # all kept, re-sorted
        _assert_sorted(pool)
        assert outcome.tests_run == 3  # two scan tests, one entry test
        assert pool.tests_total == 3

    def test_grid_mismatch_rejected(self):
        pool = make_pool(Strategy.BASIC, grid=GridConfig(width=9, height=9))
        level = generate_level(0, GridConfig(width=11, height=11))
        with pytest.raises(ValueError):
            ecosystem_learn(pool, level, FAST_CFG)

    @pytest.mark.parametrize(
        "level",
        [
            generate_level(7, GridConfig(max_steps=50)),
            # The pool would credit seed 7 and later regenerate another map.
            parse_ascii("#####\n#>.G#\n#####", seed=7).level,
            # Even seed 7's own map: a parsed level has no gaps.
            parse_ascii(render_ascii(reset(generate_level(7))[0]), seed=7).level,
        ],
        ids=["other-max-steps", "hand-made", "reparsed"],
    )
    def test_level_not_the_pools_own_rejected(self, level):
        pool = make_pool(Strategy.BASIC)
        with pytest.raises(ValueError, match="level 7 is not the pool's level of that seed"):
            ecosystem_learn(pool, level, FAST_CFG)
        assert pool.agents == [] and pool.tests_total == 0

    def test_events_credit_then_optimization(self, monkeypatch):
        level = generate_level(60)
        pool, table = _pool_with_agents(
            Strategy.BASIC, [{60: 0.1}, {60: 0.1}], solved=[[10], [11, 12]]
        )
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table, default=0.9))
        pool, outcome = ecosystem_learn(pool, level, FAST_CFG)
        assert [(e["event"], e.get("env"), e["agent"]) for e in outcome.events] == [
            ("solved", 60, 2),
            ("absorb", 10, 2),
            ("remove", None, 0),
            ("absorb", 11, 2),
            ("absorb", 12, 2),
            ("remove", None, 1),
        ]

    def test_tests_run_accounts_scan_and_training(self, monkeypatch):
        # One pool agent scoring under threshold, then a new agent whose
        # entry test already passes: 1 scan test + 1 training test.
        level = generate_level(60)
        pool, table = _pool_with_agents(Strategy.BASIC, [{60: 0.1}], solved=[[10]])
        monkeypatch.setattr(ecosystem, "test_agent", _scripted(table, default=0.9))
        pool, outcome = ecosystem_learn(pool, level, FAST_CFG)
        assert outcome.tests_run == 2 + len(pool.agents[0].solved) - 1


class TestIntegration:
    def test_small_basic_run(self):
        pool = make_pool(Strategy.BASIC, seed=1)
        outcomes = []
        for level_seed in range(200, 204):
            level = generate_level(level_seed)
            pool, outcome = ecosystem_learn(pool, level, FAST_CFG, budget=150)
            outcomes.append(outcome)
            _assert_sorted(pool)
            _assert_no_dominance(pool)

        failed = {o.level_seed for o in outcomes if o.failed}
        credited = {s for a in pool.agents for s in a.solved}
        for seed in range(200, 204):
            if seed not in failed:
                assert seed in credited
        for event in (e for o in outcomes for e in o.events):
            if event["event"] in ("solved", "credit", "absorb"):
                assert event["reward"] >= pool.threshold
        assert outcomes[0].created_new
        assert len(pool.agents) >= 1


def _edit_manifest(directory, edit):
    manifest = json.loads((directory / "pool.json").read_text())
    edit(manifest)
    (directory / "pool.json").write_text(json.dumps(manifest))


def _resave(change):
    """A weights-file edit: agent 0's vector, changed, saved back as .npy."""

    def edit(path, manifest):
        array = change(np.load(path))
        with open(path, "wb") as fh:
            np.save(fh, array, allow_pickle=array.dtype == object)

    return edit


def _rewrite(change):
    """A weights-file edit on agent 0's raw bytes."""
    return lambda path, manifest: path.write_bytes(change(path.read_bytes()))


def _with_nonfinite(value):
    def change(flat):
        flat = flat.copy()
        flat[7] = value
        return flat

    return _resave(change)


def _with_widths(widths):
    def edit(path, manifest):
        manifest["agents"][0]["widths"] = widths

    return edit


def _as_npz(path, manifest):
    flat = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, flat)


# Agent 0 of `_pool_with_agents` has the layout ((4, 4, 3), (4, 4, 1)): 60 weights.
BAD_WEIGHTS = [
    pytest.param(_rewrite(lambda b: b'{"version": 1}'), "magic string is not correct", id="json"),
    pytest.param(_as_npz, "magic string is not correct", id="npz"),
    pytest.param(_rewrite(lambda b: b""), "EOF: reading magic string", id="empty"),
    pytest.param(_rewrite(lambda b: b[:-8]), "could only read 59 elements", id="truncated"),
    pytest.param(_rewrite(lambda b: b + b"\0"), "bytes follow the .npy array", id="trailing"),
    pytest.param(
        _resave(lambda a: np.array([a], dtype=object)),
        "Object arrays cannot be loaded when allow_pickle=False",
        id="pickled",
    ),
    pytest.param(
        _resave(lambda a: a.astype(np.float32)), "a 1-D <f4 array, not 1-D float64", id="float32"
    ),
    pytest.param(
        _resave(lambda a: a.astype(">f8")), "a 1-D >f8 array, not 1-D float64", id="big-endian"
    ),
    pytest.param(
        _resave(lambda a: a.reshape(6, 10)), "a 2-D <f8 array, not 1-D float64", id="2-D"
    ),
    pytest.param(
        _resave(lambda a: a[:-1]),
        "holds 59 weights, the layout ((4, 4, 3), (4, 4, 1)) needs 60",
        id="short",
    ),
    pytest.param(
        _with_widths([[4, 4, 3], [4, 5, 1]]),
        "holds 60 weights, the layout ((4, 4, 3), (4, 5, 1)) needs 66",
        id="other-layout",
    ),
    pytest.param(_with_nonfinite(np.nan), "holds a NaN or infinite weight", id="nan"),
    pytest.param(_with_nonfinite(np.inf), "holds a NaN or infinite weight", id="inf"),
    pytest.param(_with_nonfinite(-np.inf), "holds a NaN or infinite weight", id="minus-inf"),
    pytest.param(lambda path, manifest: path.unlink(), "No such file or directory", id="missing"),
]
BAD_LAYOUTS = [
    [[4, 4, 3]],
    [[4, 4, 3], [4, 4, 1], [4, 1]],
    [[4], [4, 4, 1]],
    [[4, 0, 3], [4, 4, 1]],
    [[4, 4, 3], [4, -4, 1]],
]
BAD_WEIGHTS += [
    pytest.param(
        _with_widths(widths),
        f"layout {widths!r} is not two heads of at least two positive ints",
        id=f"layout-{i}",
    )
    for i, widths in enumerate(BAD_LAYOUTS)
]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        # Tiny agents beside a full-size main agent: one layout per file.
        pool, _ = _pool_with_agents(
            Strategy.FORKED, [{}, {}], solved=[[3, 1], [2]]
        )
        pool.agents[0].birth_env = 3
        pool.agents[1].birth_env = 2
        pool.forks_absorbed = 2
        save_pool(pool, tmp_path)
        loaded = load_pool(tmp_path)
        assert loaded.strategy == pool.strategy
        assert loaded.threshold == pool.threshold
        assert loaded.grid == pool.grid
        assert loaded.next_id == pool.next_id
        assert loaded.main_agent == pool.main_agent
        assert loaded.main_agent.flat.tobytes() == pool.main_agent.flat.tobytes()
        assert loaded.forks_absorbed == pool.forks_absorbed
        assert len(loaded.agents) == len(pool.agents)
        for a, b in zip(loaded.agents, pool.agents):
            assert (a.id, a.solved, a.birth_env) == (b.id, b.solved, b.birth_env)
            assert a.params == b.params
            assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_resave_gives_the_same_bytes(self, tmp_path):
        pool, _ = _pool_with_agents(Strategy.FORKED, [{}, {}, {}])
        save_pool(pool, tmp_path / "a")
        save_pool(load_pool(tmp_path / "a"), tmp_path / "b")
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names == ["agent_0.npy", "agent_1.npy", "agent_2.npy", "main.npy", "pool.json"]
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_loads_from_the_manifest_path(self, tmp_path):
        pool, _ = _pool_with_agents(Strategy.FORKED, [{}, {}], solved=[[3, 1], [2]])
        save_pool(pool, tmp_path)
        by_dir, by_file = load_pool(tmp_path), load_pool(tmp_path / "pool.json")
        assert len(by_file.agents) == len(by_dir.agents) == 2
        for a, b in zip(by_file.agents, by_dir.agents):
            assert (a.id, a.solved) == (b.id, b.solved)
            assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert by_file.main_agent.flat.tobytes() == by_dir.main_agent.flat.tobytes()

    def test_resave_leaves_only_the_named_weights_files(self, tmp_path):
        # A checkpoint saved again at each eval point must not keep the
        # weights of agents pruned since the last save.
        pool, _ = _pool_with_agents(Strategy.FORKED, [{}, {}, {}])
        save_pool(pool, tmp_path)
        (tmp_path / "notes.txt").write_text("kept")
        pool.agents.pop(1)
        save_pool(pool, tmp_path)
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["agent_0.npy", "agent_2.npy", "main.npy", "notes.txt", "pool.json"]
        assert [a.id for a in load_pool(tmp_path).agents] == [0, 2]

    @pytest.mark.parametrize("threshold", [5.0, float("nan"), 0.0])
    def test_make_pool_refuses_a_threshold_the_checkpoint_refuses(self, tmp_path, threshold):
        named = re.escape(f"threshold must be in (0, 1], got {threshold}")
        with pytest.raises(ValueError, match=named):
            make_pool(Strategy.BASIC, threshold=threshold)
        pool = make_pool(Strategy.BASIC)
        pool.threshold = threshold
        with pytest.raises(ValueError, match=named):
            save_pool(pool, tmp_path)
        assert not tmp_path.joinpath("pool.json").exists()

    def test_manifest_records_each_layout(self, tmp_path):
        pool = make_pool(Strategy.FORKED)
        pool.agents.append(Agent(0, _tiny_params(0), [1], 1))
        pool.next_id = 1
        save_pool(pool, tmp_path)
        text = (tmp_path / "pool.json").read_text()
        manifest = json.loads(text)
        assert manifest["version"] == 3
        assert manifest["main_widths"] == [[147, 64, 64, 3], [147, 64, 64, 1]]
        assert manifest["agents"][0] == {
            "id": 0, "solved": [1], "birth_env": 1, "widths": [[4, 4, 3], [4, 4, 1]],
        }
        assert ".npy" not in text and "file" not in text

    def test_non_forked_has_no_main_ref(self, tmp_path):
        # A full-size agent beside a tiny one: one layout per file.
        pool, _ = _pool_with_agents(Strategy.BASIC, [{}])
        pool.agents.append(Agent(1, init_params(1), [5], 5))
        pool.next_id = 2
        save_pool(pool, tmp_path)
        loaded = load_pool(tmp_path)
        assert loaded.main_agent is None
        assert not (tmp_path / "main.npy").exists()
        assert len(loaded.agents) == 2
        for a, b in zip(loaded.agents, pool.agents):
            assert a.params.widths == b.params.widths
            assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_forked_without_main_agent_rejected(self, tmp_path):
        save_pool(make_pool(Strategy.FORKED), tmp_path)
        _edit_manifest(tmp_path, lambda m: m.update(main_widths=None))
        with pytest.raises(ValueError, match="has no main agent"):
            load_pool(tmp_path)

    def test_unforked_with_main_agent_rejected(self, tmp_path):
        save_pool(make_pool(Strategy.FORKED), tmp_path)
        _edit_manifest(tmp_path, lambda m: m.update(strategy="basic"))
        with pytest.raises(ValueError, match="has a main agent but is not forked"):
            load_pool(tmp_path)
        pool = make_pool(Strategy.BASIC)
        pool.main_agent = _tiny_params(0)
        with pytest.raises(ValueError, match="has a main agent but is not forked"):
            save_pool(pool, tmp_path / "basic")
        assert not (tmp_path / "basic").exists()

    def test_reads_only_the_files_named_by_agent_id(self, tmp_path, monkeypatch):
        # Weights are found by agent id, whatever else lies beside them.
        pool, _ = _pool_with_agents(Strategy.FORKED, [{}, {}])
        save_pool(pool, tmp_path)
        read = []
        load = ecosystem.load_params
        monkeypatch.setattr(
            ecosystem, "load_params", lambda path, widths: read.append(path) or load(path, widths)
        )
        load_pool(tmp_path)
        assert sorted(f.name for f in read) == ["agent_0.npy", "agent_1.npy", "main.npy"]
        (tmp_path / "agent_1.npy").rename(tmp_path / "agent_01.npy")
        named = re.escape(f"bad weights file {tmp_path / 'agent_1.npy'}")
        with pytest.raises(ValueError, match=named):
            load_pool(tmp_path)

    def test_bad_version_rejected(self, tmp_path):
        pool, _ = _pool_with_agents(Strategy.BASIC, [{}])
        save_pool(pool, tmp_path)
        for version in (1, 2, 99):
            _edit_manifest(tmp_path, lambda m: m.update(version=version))
            named = f"unsupported pool version {version} in {tmp_path / 'pool.json'}"
            with pytest.raises(ValueError, match=re.escape(named) + ".*rerun the run's config.json"):
                load_pool(tmp_path)

    @pytest.mark.parametrize("edit, problem", BAD_WEIGHTS)
    def test_bad_weights_file_named(self, tmp_path, edit, problem):
        pool, _ = _pool_with_agents(Strategy.BASIC, [{}, {}])
        save_pool(pool, tmp_path)
        path = tmp_path / "agent_0.npy"
        _edit_manifest(tmp_path, lambda manifest: edit(path, manifest))
        named = re.escape(f"bad weights file {path}: ") + ".*" + re.escape(problem)
        with pytest.raises(ValueError, match=named):
            load_pool(tmp_path)

    def test_manifest_without_a_key_rejected(self, tmp_path):
        pool, _ = _pool_with_agents(Strategy.FORKED, [{}])
        save_pool(pool, tmp_path)
        saved = json.loads((tmp_path / "pool.json").read_text())
        required = [key for key in saved if key != "version"]
        cases = [(saved, key, "") for key in required]
        cases.append((saved["agents"][0], "id", "agents."))
        cases.append((saved["agents"][0], "widths", "agents."))
        cases += [(saved["grid"], key, "grid.") for key in ("width", "height", "max_steps")]
        for holder, key, path in cases:
            value = holder.pop(key)
            (tmp_path / "pool.json").write_text(json.dumps(saved))
            named = re.escape(f"missing pool.json key {path}{key!r}")
            with pytest.raises(ValueError, match=named):
                load_pool(tmp_path)
            holder[key] = value
