"""Rollout collection, advantage estimation, updates, and evaluation."""

import copy
import errno
import mmap
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ecopool import gridworld
from ecopool.gridworld import (
    DIR_VECTORS,
    Action,
    GridConfig,
    generate_level,
    parse_ascii,
)
from ecopool import policy
from ecopool.policy import LossSpec, Minibatch, grad_loss, init_params
from ecopool import ppo
from ecopool.ppo import (
    PpoConfig,
    Trajectory,
    collect_rollout,
    compute_gae,
    learn_epoch,
    ppo_update,
)
from oracles import (
    full_greedy_episode,
    gae_bruteforce,
    plain_ppo_update,
    plain_rollout,
    random_trajectory,
)
from test_policy import _zero_params

CORRIDOR_GOAL_3 = (
    "#########\n"
    "#>..G...#\n"
    "#########"
)


def _always_params(action: Action):
    params = _zero_params()
    params.actor[-1][1][action] = 25.0  # a large bias dominates the softmax
    return params


def _always_forward_params():
    return _always_params(Action.FORWARD)


@pytest.fixture
def step_calls(monkeypatch):
    """Actions passed to `step` by the code under test, in order."""
    calls = []

    def counting_step(state, action):
        calls.append(action)
        return gridworld.step(state, action)

    monkeypatch.setattr(ppo, "step", counting_step)
    return calls


class TestCollectRollout:
    def test_exact_length(self):
        traj = collect_rollout(
            init_params(0), generate_level(0), 512, np.random.default_rng(0)
        )
        assert len(traj) == 512
        assert traj.obs.shape == (512, 147)

    def test_rewards_in_range(self):
        traj = collect_rollout(
            init_params(1), generate_level(3), 256, np.random.default_rng(1)
        )
        assert np.all(traj.rewards >= 0.0)
        assert np.all(traj.rewards <= 1.0)

    def test_logp_matches_recomputation(self):
        from ecopool.policy import forward

        params = init_params(2)
        traj = collect_rollout(
            params, generate_level(5), 64, np.random.default_rng(2)
        )
        for t in range(len(traj)):
            probs, value = forward(params, traj.obs[t])
            assert traj.logp[t] == np.log(probs[traj.actions[t]])
            assert traj.values[t] == value

    def test_deterministic(self):
        params = init_params(3)
        level = generate_level(7)
        a = collect_rollout(params, level, 128, np.random.default_rng(9))
        b = collect_rollout(params, level, 128, np.random.default_rng(9))
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.bootstrap_value == b.bootstrap_value

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            collect_rollout(init_params(0), generate_level(0), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("size, max_steps", [(9, 100), (19, 300)])
    def test_memo_matches_plain_rollout(self, size, max_steps):
        grid = GridConfig(width=size, height=size, max_steps=max_steps)
        cfg = PpoConfig(rollout_steps=256, update_epochs=2)
        for seed in range(20):
            level = generate_level(seed, grid)
            params = init_params(seed)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                ref_rng = copy.deepcopy(rng)
                got = collect_rollout(params, level, cfg.rollout_steps, rng)
                want = plain_rollout(params, level, cfg.rollout_steps, ref_rng)
                for name in ("obs", "actions", "rewards", "dones", "logp", "values"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert (
                    np.float64(got.bootstrap_value).tobytes()
                    == np.float64(want.bootstrap_value).tobytes()
                )
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                # Move the weights before the next rollout.
                params, _ = learn_epoch(params, level, cfg, rng, policy.Adam(params, lr=cfg.lr))

    def test_forward_once_per_state(self, monkeypatch):
        forwards = 0
        acted_from = set()
        last = []

        def counting_forward(params, x):
            nonlocal forwards
            forwards += 1
            return policy.forward(params, x)

        def recording_step(state, action):
            acted_from.add((state.agent_pos, state.agent_dir))
            last[:] = [gridworld.step(state, action)]
            return last[0]

        monkeypatch.setattr(ppo, "forward", counting_forward)
        monkeypatch.setattr(ppo, "step", recording_step)
        bootstraps_unseen = 0
        for seed in range(10):
            for n_steps in (1, 5, 64, 512):
                forwards = 0
                acted_from.clear()
                collect_rollout(
                    init_params(seed),
                    generate_level(seed),
                    n_steps,
                    np.random.default_rng(seed),
                )
                expected = len(acted_from)
                state, _, _, done = last[0]
                if not done and (state.agent_pos, state.agent_dir) not in acted_from:
                    expected += 1
                    bootstraps_unseen += 1
                assert forwards == expected
        assert bootstraps_unseen > 0


class TestComputeGae:
    def test_lambda_zero_collapses_to_deltas(self):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng)
        gamma = 0.97
        adv, _ = compute_gae(traj, gamma, 0.0, normalize=False)
        next_values = np.append(traj.values[1:], traj.bootstrap_value)
        deltas = (
            traj.rewards
            + gamma * next_values * (1.0 - traj.dones.astype(float))
            - traj.values
        )
        assert np.allclose(adv, deltas, atol=1e-15)

    def test_single_step_episode(self):
        traj = Trajectory(
            obs=np.zeros((1, 1)),
            actions=np.zeros(1, dtype=np.int64),
            rewards=np.array([0.73]),
            dones=np.array([True]),
            logp=np.zeros(1),
            values=np.zeros(1),
            bootstrap_value=0.0,
        )
        adv, ret = compute_gae(traj, 1.0, 0.95, normalize=False)
        assert adv[0] == 0.73
        assert ret[0] == 0.73

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            traj = random_trajectory(rng)
            gamma = float(rng.uniform(0.9, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(traj, gamma, lam, normalize=False)
            expected = gae_bruteforce(
                traj.rewards, traj.values, traj.dones, traj.bootstrap_value, gamma, lam
            )
            assert np.max(np.abs(adv - expected)) < 1e-12
            assert np.allclose(ret, expected + traj.values, atol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        traj = random_trajectory(rng, max_len=32)
        if len(traj) < 4:
            traj = random_trajectory(rng, max_len=32)
        adv, _ = compute_gae(traj, 0.99, 0.95, normalize=True)
        assert abs(float(adv.mean())) < 1e-9
        assert abs(float(adv.std()) - 1.0) < 1e-6

    def test_empty_rejected(self):
        traj = Trajectory(
            obs=np.zeros((0, 1)),
            actions=np.zeros(0, dtype=np.int64),
            rewards=np.zeros(0),
            dones=np.zeros(0, dtype=bool),
            logp=np.zeros(0),
            values=np.zeros(0),
            bootstrap_value=0.0,
        )
        with pytest.raises(ValueError):
            compute_gae(traj, 0.99, 0.95)


class TestPpoUpdate:
    def test_ratio_one_at_collection_params(self):
        params = init_params(4)
        traj = collect_rollout(params, generate_level(2), 64, np.random.default_rng(3))
        adv, ret = compute_gae(traj, 0.99, 0.95)
        batch = Minibatch(
            obs=traj.obs,
            actions=traj.actions,
            old_logp=traj.logp,
            advantages=adv,
            returns=ret,
        )
        # With clipping disabled and ratios exactly 1, the surrogate term
        # reduces to mean(adv); value and entropy terms are switched off.
        loss, _ = grad_loss(
            params, batch, LossSpec(epsilon=1e9, value_coef=0.0, entropy_coef=0.0)
        )
        assert abs(loss - (-float(adv.mean()))) < 1e-12

    def test_bitwise_reproducible(self):
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        params = init_params(5)
        level = generate_level(4)
        traj = collect_rollout(params, level, cfg.rollout_steps, np.random.default_rng(5))
        a = ppo_update(params, traj, cfg, np.random.default_rng(6), policy.Adam(params, lr=cfg.lr))
        b = ppo_update(params, traj, cfg, np.random.default_rng(6), policy.Adam(params, lr=cfg.lr))
        assert a == b
        assert a != params

    def test_short_trajectory_rejected(self):
        cfg = PpoConfig(rollout_steps=128, minibatch_size=64)
        params = init_params(0)
        traj = collect_rollout(params, generate_level(0), 32, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ppo_update(params, traj, cfg, np.random.default_rng(0), policy.Adam(params, lr=cfg.lr))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PpoConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PpoConfig(lam=1.5)
        with pytest.raises(ValueError):
            PpoConfig(rollout_steps=0)
        with pytest.raises(ValueError):
            PpoConfig(lr=-1.0)
        with pytest.raises(ValueError, match="minibatch_size.*rollout_steps"):
            PpoConfig(rollout_steps=256, minibatch_size=512)
        for epsilon in (0.0, -0.2):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                PpoConfig(epsilon=epsilon)
        for coef in ("value_coef", "entropy_coef"):
            with pytest.raises(ValueError, match="loss coefficients must be non-negative"):
                PpoConfig(**{coef: -0.01})


KILLED_CALLER_SCRIPT = """
import time
from ecopool import ppo

with ppo.critic_helper():
    print("none" if ppo._helper is None else ppo._helper.proc.pid, flush=True)
    time.sleep(120)
"""


def _proc_state(pid):
    """The state letter in /proc/<pid>/stat, or None once the pid is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _open_helper():
    """The helper of the open `critic_helper` block; skips the test where
    the block forks none."""
    if ppo._helper is None:
        pytest.skip("no critic helper: it needs fork and 2 usable CPUs")
    return ppo._helper


@pytest.fixture(params=["inline", "helper"])
def placement(request):
    """Each test runs once with both head loops here and once with the
    critic's on the helper."""
    if request.param == "inline":
        assert ppo._helper is None
        yield request.param
    else:
        with ppo.critic_helper():
            _open_helper()
            yield request.param


def _state_bytes(params, opt):
    return params.flat.tobytes(), opt._m.tobytes(), opt._v.tobytes(), opt.t


def _count_sends(monkeypatch, helper):
    """The jobs sent to `helper` from now on."""
    sent, send = [], helper.conn.send

    def counting_send(job):
        sent.append(job)
        send(job)

    monkeypatch.setattr(helper.conn, "send", counting_send)
    return sent


def _critic_job(cfg, seed, grad):
    """The critic job of one update at `cfg` from fresh weights, with
    `grad` as its gradient."""
    params = init_params(seed)
    rng = np.random.default_rng(seed)
    traj = collect_rollout(params, generate_level(seed), cfg.rollout_steps, rng)
    _, returns = compute_gae(traj, cfg.gamma, cfg.lam)
    critic = params.flat[sum(w.size + b.size for w, b in params.actor) :].copy()
    return ppo._HeadJob(
        grad,
        params.widths[1],
        critic,
        np.zeros_like(critic),
        np.zeros_like(critic),
        0,
        cfg.lr,
        cfg.loss_spec(),
        (traj.obs, returns),
        [rng.permutation(len(traj)) for _ in range(cfg.update_epochs)],
        cfg.minibatch_size,
    )


def _no_unread_reply(helper):
    """Whether no reply from `helper` lands in the pipe within 0.2 s beyond
    a helper step."""
    return not helper.conn.poll(0.2 + HELPER_STEP_S)


def _train(update, cfg, seed, pauses, before_update=lambda i: None):
    """(params, opt) bytes after each of len(pauses) learn epochs on one
    Adam, sleeping pauses[i] before the i-th."""
    level, params = generate_level(seed), init_params(seed)
    p, opt = params, policy.Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    trace = []
    for i, pause in enumerate(pauses):
        time.sleep(pause)
        traj = collect_rollout(p, level, cfg.rollout_steps, rng)
        before_update(i)
        p = update(p, traj, cfg, rng, opt)
        trace.append(_state_bytes(p, opt))
    return trace


# Jobs reach the helper pickled, their gradient functions by reference,
# so the stand-ins below live at module level.
_CALLER = os.getpid()


# A critic step on a slow helper; a job at `SLOW_CFG` has 8 of them.
HELPER_STEP_S = 0.1
SLOW_CFG = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)


def _critic_grad_slow_in_helper(*args):
    if os.getpid() != _CALLER:
        time.sleep(HELPER_STEP_S)
    return policy._critic_grad(*args)


def _actor_grad_fails(*args):
    raise RuntimeError("actor failed in the caller")


def _actor_grad_fails_late(*args):
    time.sleep(0.3)  # the helper has died by now
    raise RuntimeError("actor failed in the caller")


def _critic_grad_dies_at_once_in_helper(*args):
    if os.getpid() != _CALLER:
        os._exit(1)
    return policy._critic_grad(*args)


def _critic_grad_fails_in_helper(*args):
    if os.getpid() != _CALLER:
        raise RuntimeError("critic failed in the helper")
    return policy._critic_grad(*args)


def _slow_actor_grad(*args):
    time.sleep(0.05)
    return policy._actor_grad(*args)


def _critic_grad_dies_in_helper(*args):
    # The helper dies mid-job, while this process is a few critic steps in.
    if os.getpid() != _CALLER:
        time.sleep(0.1)
        os._exit(1)
    time.sleep(0.04)
    return policy._critic_grad(*args)


class TestSplitUpdate:
    @pytest.mark.parametrize(
        "grid, steps, minibatch",
        [
            (GridConfig(9, 9, 100), 512, 64),
            (GridConfig(19, 19, 300), 512, 64),
            (GridConfig(9, 9, 100), 100, 32),  # a last minibatch of 4 rows
        ],
    )
    def test_matches_plain_update(self, placement, grid, steps, minibatch):
        cfg = PpoConfig(rollout_steps=steps, minibatch_size=minibatch)
        for seed in range(3):
            level = generate_level(seed, grid)
            params = init_params(seed)
            states = []
            for update in (ppo_update, plain_ppo_update):
                p, opt = params, policy.Adam(params, lr=cfg.lr)
                rng = np.random.default_rng(seed)
                trace = []
                for _ in range(3):  # one Adam across consecutive updates
                    traj = collect_rollout(p, level, cfg.rollout_steps, rng)
                    p = update(p, traj, cfg, rng, opt)
                    trace.append(_state_bytes(p, opt))
                states.append((trace, rng.bit_generator.state))
            assert states[0] == states[1]
            assert states[0][0][-1][3] == 3 * cfg.update_epochs * -(-steps // minibatch)

    def test_slow_helper_is_overtaken(self, monkeypatch):
        # A helper whose core is slow: every update still sends it the
        # critic, this process trains its own copy, and the update stops
        # the helper's job within a step rather than wait for all 8.
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_slow_in_helper)
        want = _train(plain_ppo_update, SLOW_CFG, 3, [0.0] * 4)
        seconds = []

        def timed_update(*args):
            start = time.perf_counter()
            try:
                return ppo_update(*args)
            finally:
                seconds.append(time.perf_counter() - start)

        with ppo.critic_helper():
            helper = _open_helper()
            sent = _count_sends(monkeypatch, helper)
            assert _train(timed_update, SLOW_CFG, 3, [0.0] * 4) == want
            assert ppo._helper is helper and _no_unread_reply(helper)
        assert len(sent) == 4
        assert max(seconds) < 4 * HELPER_STEP_S

    def test_stop_flag_ends_the_job_within_a_step(self):
        with ppo.critic_helper():
            helper = _open_helper()
            helper.send(_critic_job(SLOW_CFG, 3, _critic_grad_slow_in_helper))
            time.sleep(1.5 * HELPER_STEP_S)
            helper.arena[0] = 1
            try:
                assert helper.conn.poll(2 * HELPER_STEP_S)
                assert helper.conn.recv() is None
            finally:
                helper.arena[0] = 0

    def test_update_that_raises_settles_its_job(self, monkeypatch):
        # The caller fails while the helper is mid-job: the update reads
        # the job's reply before it raises, so the next update in the
        # block sends its own job and gets the plain bits.
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_slow_in_helper)
        monkeypatch.setattr(ppo, "_actor_grad", _actor_grad_fails)
        params = init_params(6)
        traj = collect_rollout(params, generate_level(6), SLOW_CFG.rollout_steps, np.random.default_rng(6))
        opt = policy.Adam(params, lr=SLOW_CFG.lr)
        with ppo.critic_helper():
            helper = _open_helper()
            sent = _count_sends(monkeypatch, helper)
            with pytest.raises(RuntimeError, match="actor failed in the caller"):
                ppo_update(params, traj, SLOW_CFG, np.random.default_rng(7), opt)
            assert _no_unread_reply(helper)  # the helper's whole job takes 0.8 s
            monkeypatch.setattr(ppo, "_actor_grad", policy._actor_grad)
            got = ppo_update(params, traj, SLOW_CFG, np.random.default_rng(7), opt)
            assert ppo._helper is helper and len(sent) == 2
        ref_opt = policy.Adam(params, lr=SLOW_CFG.lr)
        want = plain_ppo_update(params, traj, SLOW_CFG, np.random.default_rng(7), ref_opt)
        assert _state_bytes(got, opt) == _state_bytes(want, ref_opt)

    def test_helper_dying_while_the_caller_raises_keeps_its_exception(self, monkeypatch):
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_dies_at_once_in_helper)
        monkeypatch.setattr(ppo, "_actor_grad", _actor_grad_fails_late)
        params = init_params(6)
        traj = collect_rollout(params, generate_level(6), SLOW_CFG.rollout_steps, np.random.default_rng(6))
        with ppo.critic_helper():
            pid = _open_helper().proc.pid
            with pytest.raises(RuntimeError, match="actor failed in the caller"):
                ppo_update(
                    params, traj, SLOW_CFG, np.random.default_rng(7),
                    policy.Adam(params, lr=SLOW_CFG.lr),
                )
            assert ppo._helper is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_jobs_cross_in_the_arena(self, monkeypatch):
        # Only the job's scalars and its arrays' sizes cross the pipe.
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        want = _train(plain_ppo_update, cfg, 3, [0.0] * 2)
        with ppo.critic_helper():
            sent = _count_sends(monkeypatch, _open_helper())
            assert _train(ppo_update, cfg, 3, [0.0] * 2) == want
        assert len(sent) >= 1
        assert all(len(pickle.dumps(job)) < 4096 for job in sent)

    def test_job_larger_than_the_arena_trains_here(self, monkeypatch):
        monkeypatch.setattr(ppo, "_ARENA_BYTES", 4096)
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        want = _train(plain_ppo_update, cfg, 3, [0.0] * 2)
        with ppo.critic_helper():
            sent = _count_sends(monkeypatch, _open_helper())
            assert _train(ppo_update, cfg, 3, [0.0] * 2) == want
            assert _no_unread_reply(ppo._helper)
        assert sent == []

    def test_stop_before_gathering(self):
        # A reply already waiting costs the caller no gather of an epoch.
        class Ungathered:
            def __getitem__(self, rows):
                raise AssertionError("gathered an epoch")

        params = init_params(0)  # no step runs, so no weight is read
        job = ppo._HeadJob(
            policy._critic_grad,
            params.widths[1],
            params.flat.copy(),
            np.zeros(params.flat.size),
            np.zeros(params.flat.size),
            0,
            1e-3,
            LossSpec(epsilon=0.2, value_coef=0.5, entropy_coef=0.01),
            (Ungathered(), Ungathered()),
            [np.arange(8)],
            4,
        )
        assert ppo._train_head(job, stop=lambda: True) is None

    def test_block_closing_on_an_unread_reply_ends_the_helper_cleanly(self):
        # A job sent outside an update, whose reply is still unread when
        # the block closes: the helper must take the reset pipe as its
        # end, not fail on it.
        with ppo.critic_helper():
            helper = _open_helper()
            assert helper.send(_critic_job(SLOW_CFG, 3, policy._critic_grad)) is not None
            assert helper.conn.poll(5)  # the reply lands, unread
        assert helper.proc.exitcode == 0

    @pytest.mark.parametrize("refused", ["mmap", "pipe", "start"])
    def test_helper_that_cannot_start_means_inline(self, monkeypatch, refused):
        # The arena, the pipe or the fork fails, as under a pids limit or
        # out of memory: the block trains inline and closes what it made.
        if ppo._usable_cpus() < 2:
            pytest.skip("no critic helper: it needs fork and 2 usable CPUs")
        made, real_mmap, real_pipe = [], mmap.mmap, multiprocessing.connection.Pipe

        def refuse(*args, **kwargs):
            raise OSError(errno.EAGAIN, "no process to spare")

        def recording_mmap(*args):
            made.append(real_mmap(*args))
            return made[-1]

        def recording_pipe(*args):
            made.extend(real_pipe(*args))
            return made[-2:]

        monkeypatch.setattr(mmap, "mmap", refuse if refused == "mmap" else recording_mmap)
        monkeypatch.setattr(
            multiprocessing.connection, "Pipe", refuse if refused == "pipe" else recording_pipe
        )
        if refused == "start":
            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        want = _train(plain_ppo_update, SLOW_CFG, 3, [0.0] * 2)
        with ppo.critic_helper():
            assert ppo._helper is None
            assert _train(ppo_update, SLOW_CFG, 3, [0.0] * 2) == want
        assert len(made) == {"mmap": 0, "pipe": 1, "start": 3}[refused]
        assert all(thing.closed for thing in made)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["one usable CPU", "a child process"])
    def test_no_helper_outside_a_two_cpu_main_process(self, monkeypatch, where):
        if where == "one usable CPU":
            monkeypatch.setattr(ppo, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        with ppo.critic_helper():
            assert ppo._helper is None
            assert multiprocessing.active_children() == []

    def test_nested_block_shares_the_helper(self, monkeypatch):
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        want = _train(plain_ppo_update, cfg, 3, [0.0])
        with ppo.critic_helper():
            outer = _open_helper()
            with ppo.critic_helper():
                assert ppo._helper is outer
                assert multiprocessing.active_children() == [outer.proc]
            assert ppo._helper is outer and outer.proc.is_alive()
            sent = _count_sends(monkeypatch, outer)
            assert _train(ppo_update, cfg, 3, [0.0]) == want
            assert len(sent) == 1

    def test_killed_helper_is_dropped(self):
        # A helper killed between updates: the next update trains the
        # critic here, and the dead helper is reaped.
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        want = _train(plain_ppo_update, cfg, 4, [0.0] * 4)
        with ppo.critic_helper():
            pid = _open_helper().proc.pid

            def kill_before_third(i):
                if i == 2:
                    os.kill(pid, signal.SIGKILL)

            assert _train(ppo_update, cfg, 4, [0.0] * 4, kill_before_third) == want
            assert ppo._helper is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_helper_dying_mid_update_is_dropped(self, monkeypatch):
        # The critic this process had begun changed its job in place; the
        # critic it trains after the helper died starts afresh.
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_dies_in_helper)
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        want = _train(plain_ppo_update, cfg, 5, [0.0] * 2)
        with ppo.critic_helper():
            pid = _open_helper().proc.pid
            assert _train(ppo_update, cfg, 5, [0.0] * 2) == want
            assert ppo._helper is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_helper_ends_with_a_killed_caller(self):
        # A SIGKILLed caller closes no block; its helper must still end,
        # on EOF from the pipe, rather than be orphaned.
        src = str(Path(ppo.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-c", KILLED_CALLER_SCRIPT],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as caller:
            try:
                select.select([caller.stdout], [], [], 60)
                line = caller.stdout.readline().strip()
            finally:
                caller.kill()
        if line == "none":
            pytest.skip("no critic helper: it needs fork and 2 usable CPUs")
        pid = int(line)
        deadline = time.monotonic() + 5
        while _proc_state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        state = _proc_state(pid)
        if state not in (None, "Z"):
            os.kill(pid, signal.SIGKILL)
        assert state in (None, "Z"), f"helper {pid} outlived its killed caller, state {state}"

    def test_helper_exception_reaches_caller(self, monkeypatch):
        # The actor is slowed so that the helper's reply, its exception,
        # is the one taken.
        monkeypatch.setattr(ppo, "_critic_grad", _critic_grad_fails_in_helper)
        monkeypatch.setattr(ppo, "_actor_grad", _slow_actor_grad)
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        params = init_params(6)
        traj = collect_rollout(params, generate_level(6), cfg.rollout_steps, np.random.default_rng(6))
        opt = policy.Adam(params, lr=cfg.lr)
        with ppo.critic_helper():
            helper = _open_helper()
            with pytest.raises(RuntimeError, match="critic failed in the helper"):
                ppo_update(params, traj, cfg, np.random.default_rng(7), opt)
            assert ppo._helper is helper and _no_unread_reply(helper)
        assert _state_bytes(params, opt) == _state_bytes(params, policy.Adam(params, lr=cfg.lr))

    @pytest.mark.parametrize("head", ["actor", "critic"])
    def test_non_finite_weight_raises(self, placement, head):
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=2)
        level = generate_level(1)
        params = init_params(2)
        traj = collect_rollout(params, level, cfg.rollout_steps, np.random.default_rng(3))
        opt = policy.Adam(params, lr=cfg.lr)
        params = ppo_update(params, traj, cfg, np.random.default_rng(4), opt)
        before = _state_bytes(params, opt)

        broken = policy.clone_params(params)
        getattr(broken, head)[1][0][5, 7] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            ppo_update(broken, traj, cfg, np.random.default_rng(5), opt)
        assert _state_bytes(params, opt) == before  # opt left as it was

        # The next update, with the helper too, gets the bits of the plain loop.
        ref_opt = copy.deepcopy(opt)
        got = ppo_update(params, traj, cfg, np.random.default_rng(6), opt)
        want = plain_ppo_update(params, traj, cfg, np.random.default_rng(6), ref_opt)
        assert _state_bytes(got, opt) == _state_bytes(want, ref_opt)

    def test_non_finite_new_weight_raises(self, placement, monkeypatch):
        # One minibatch step: its loss is finite, and the weights it
        # makes are not.
        cfg = PpoConfig(rollout_steps=32, minibatch_size=32, update_epochs=1)
        params = init_params(2)
        traj = collect_rollout(params, generate_level(1), cfg.rollout_steps, np.random.default_rng(3))
        opt = policy.Adam(params, lr=cfg.lr)
        before = _state_bytes(params, opt)
        monkeypatch.setattr(ppo, "_adam_update", lambda m, v, g, t, lr, out, tmp: np.inf)
        with pytest.raises(FloatingPointError, match="non-finite weights"):
            ppo_update(params, traj, cfg, np.random.default_rng(4), opt)
        assert _state_bytes(params, opt) == before  # opt left as it was


def _hand_trajectory(params, rng, n, zero_columns):
    """n steps of random inputs for a reduced net, with `zero_columns` 0 in
    every row; log-probs and values are the net's own."""
    obs = rng.normal(size=(n, params.widths[0][0]))
    obs[:, list(zero_columns)] = 0.0
    actions = rng.integers(0, 3, size=n)
    outputs = [policy.forward(params, x) for x in obs]
    return Trajectory(
        obs=obs,
        actions=actions,
        rewards=rng.normal(size=n),
        dones=rng.random(n) < 0.1,
        logp=np.array([np.log(probs[a]) for (probs, _), a in zip(outputs, actions)]),
        values=np.array([value for _, value in outputs]),
        bootstrap_value=0.0,
    )


class TestLiveInputs:
    def test_skips_only_inputs_with_no_data_and_no_moments(self, placement, monkeypatch):
        # Input 4 is 0 in both trajectories, so it never trains.  Input 7
        # is 0 only in the second: its first-layer rows then have non-zero
        # moments, so Adam still moves them, and the update must train it.
        # A rule that skipped inputs by the 7x7x3 layout (::3) would drop
        # inputs that carry data.
        cfg = PpoConfig(rollout_steps=64, minibatch_size=16, update_epochs=2)
        params = init_params(3, obs_dim=12, hidden=(8,))
        data_rng = np.random.default_rng(3)
        trajs = [_hand_trajectory(params, data_rng, 64, zero) for zero in ((4,), (4, 7))]
        inputs, train_head = [], ppo._train_head

        def recording_train_head(job, stop=None):
            inputs.append(job.widths[0])
            return train_head(job, stop)

        monkeypatch.setattr(ppo, "_train_head", recording_train_head)
        runs = []
        for update in (ppo_update, plain_ppo_update):
            p, opt = params, policy.Adam(params, lr=cfg.lr)
            rng = np.random.default_rng(4)
            runs.append([])
            for traj in trajs:
                p = update(p, traj, cfg, rng, opt)
                runs[-1].append((p, _state_bytes(p, opt)))
        assert [state for _, state in runs[0]] == [state for _, state in runs[1]]
        assert inputs and set(inputs) == {11}
        (first, _), (second, _) = runs[0]
        for head in ("actor", "critic"):
            w0, w1, w2 = (getattr(p, head)[0][0] for p in (params, first, second))
            assert w2[4].tobytes() == w0[4].tobytes()
            assert not np.array_equal(w2[7], w1[7])


class TestLearnEpoch:
    def test_steps_consumed(self):
        cfg = PpoConfig(rollout_steps=96, minibatch_size=32, update_epochs=2)
        params = init_params(6)
        new_params, steps = learn_epoch(
            params, generate_level(1), cfg, np.random.default_rng(7),
            policy.Adam(params, lr=cfg.lr),
        )
        assert steps == cfg.rollout_steps
        assert new_params != params

    def test_deterministic(self):
        cfg = PpoConfig(rollout_steps=96, minibatch_size=32, update_epochs=2)
        params = init_params(6)
        level = generate_level(1)
        a, _ = learn_epoch(
            params, level, cfg, np.random.default_rng(8), policy.Adam(params, lr=cfg.lr)
        )
        b, _ = learn_epoch(
            params, level, cfg, np.random.default_rng(8), policy.Adam(params, lr=cfg.lr)
        )
        assert a == b


class TestTestAgent:
    def test_scripted_forward_walker(self):
        level = parse_ascii(CORRIDOR_GOAL_3, max_steps=100).level
        params = _always_forward_params()
        reward = ppo.test_agent(params, level)
        assert reward == full_greedy_episode(params, level)
        assert reward == 1.0 - 0.9 * (3 / 100)
        assert abs(reward - 0.973) < 1e-12

    def test_untrained_usually_times_out(self):
        params = init_params(0)
        zeros = sum(
            1 for seed in range(20) if ppo.test_agent(params, generate_level(seed)) == 0.0
        )
        assert zeros >= 11

    def test_deterministic(self):
        params = init_params(1)
        level = generate_level(3)
        assert ppo.test_agent(params, level) == ppo.test_agent(params, level)

    @pytest.mark.parametrize(
        "size, max_steps, n_levels", [(9, 100, 30), (19, 300, 10)]
    )
    def test_matches_full_episode(self, size, max_steps, n_levels):
        grid = GridConfig(width=size, height=size, max_steps=max_steps)
        levels = [generate_level(seed, grid) for seed in range(n_levels)]
        for seed in range(4):
            params = init_params(seed)
            for level in levels:
                expected = full_greedy_episode(params, level)
                assert ppo.test_agent(params, level) == expected

    @pytest.mark.parametrize(
        "size, max_steps, n_levels", [(9, 100, 30), (19, 300, 10)]
    )
    def test_reads_only_the_actor(self, size, max_steps, n_levels):
        grid = GridConfig(width=size, height=size, max_steps=max_steps)
        levels = [generate_level(seed, grid) for seed in range(n_levels)]
        for seed in range(4):
            params = init_params(seed)
            no_critic = policy.clone_params(params)
            for w, b in no_critic.critic:
                w[...] = b[...] = np.nan
            for level in levels:
                assert ppo.test_agent(no_critic, level) == full_greedy_episode(params, level)

    def test_non_finite_actor_raises(self):
        params = init_params(0)
        params.actor[-1][0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite network output"):
            ppo.test_agent(params, generate_level(0))

    def test_forward_walker_stops_at_first_bump(self, step_calls):
        params = _always_forward_params()
        for seed in range(30):
            level = generate_level(seed)
            # Straight ahead into the first wall; the bump is the last step.
            (x, y), (dx, dy) = level.start_pos, DIR_VECTORS[level.start_dir]
            expected_steps = 1
            while (x + dx, y + dy) not in level.walls:
                x, y = x + dx, y + dy
                expected_steps += 1
            step_calls.clear()
            assert ppo.test_agent(params, level) == 0.0
            assert full_greedy_episode(params, level) == 0.0
            assert len(step_calls) == expected_steps

    def test_stops_at_first_repeated_state(self, step_calls):
        # Four left turns bring the agent back to its start pose.
        reward = ppo.test_agent(_always_params(Action.TURN_LEFT), generate_level(0))
        assert reward == 0.0
        assert step_calls == [Action.TURN_LEFT] * 4


@pytest.mark.slow
class TestSmokeTraining:
    def test_trivial_level_learned(self):
        # Goal right next to the start; a short budget must crack it on
        # most seeds.
        text = (
            "#########\n"
            "#>G.....#\n"
            "#########"
        )
        level = parse_ascii(text, max_steps=100).level
        cfg = PpoConfig(rollout_steps=128, minibatch_size=32, update_epochs=4)
        passed = 0
        for seed in range(5):
            params = init_params(seed)
            rng = np.random.default_rng(seed)
            from ecopool.policy import Adam

            opt = Adam(params, lr=cfg.lr)
            for _ in range(50):
                params, _ = learn_epoch(params, level, cfg, rng, opt=opt)
                if ppo.test_agent(params, level) >= 0.8:
                    break
            if ppo.test_agent(params, level) >= 0.8:
                passed += 1
        assert passed >= 4
