"""On-policy training loop: rollouts, advantage estimation, clipped updates.

The two primitives the agent eco-system consumes live here: `learn_epoch`
(one rollout plus one update, the unit of the training-step metric) and
`test_agent` (one greedy evaluation episode).

A greedy episode stops at the first repeated (position, direction) and
returns 0, the reward the full episode would pay: the level is static
and the argmax policy deterministic, so from a repeated state the agent
can only cycle until `max_steps`.  A rollout forwards each state once.

An update trains the actor and the critic, on the inputs that can be
non-zero, in two loops over one minibatch schedule.  The networks share
no weights and Adam is elementwise, so this gets the bits of one joint
loop; inside a `critic_helper` block (one per training loop or run)
the critic's loop runs on a forked helper process, in parallel with
the actor's, where the program may fork one and use a second CPU.

Everything is deterministic given the RNG passed in; training a given
agent on a given level is a pure function of (params, level, config,
rng state).
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import signal
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .gridworld import Action, Level, reset, step
from .policy import (
    Adam,
    LossSpec,
    PolicyParams,
    _actor_grad,
    _adam_update,
    _critic_grad,
    _head_views,
    _loss,
    action_probs,
    draw_action,
    flatten_obs,
    forward,
    grad_loss,  # noqa: F401 - perfbench/layers.py wraps ppo.grad_loss
)


@dataclass(frozen=True)
class PpoConfig:
    """Hyper-parameters; `lam` is the generalized-advantage coefficient."""

    gamma: float = 0.99
    lam: float = 0.95
    epsilon: float = 0.2
    rollout_steps: int = 512
    minibatch_size: int = 64
    update_epochs: int = 10
    lr: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01

    def __post_init__(self):
        for key in ("lr", "epsilon", "value_coef", "entropy_coef"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for field in ("rollout_steps", "minibatch_size", "update_epochs"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.minibatch_size > self.rollout_steps:
            raise ValueError(
                f"minibatch_size ({self.minibatch_size}) must not exceed "
                f"rollout_steps ({self.rollout_steps})"
            )
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.value_coef < 0.0 or self.entropy_coef < 0.0:
            raise ValueError("loss coefficients must be non-negative")

    def loss_spec(self) -> LossSpec:
        return LossSpec(
            epsilon=self.epsilon,
            value_coef=self.value_coef,
            entropy_coef=self.entropy_coef,
        )


@dataclass(frozen=True)
class Trajectory:
    """Parallel per-step arrays plus the value of the state after the
    last stored transition (used to bootstrap a truncated episode)."""

    obs: np.ndarray        # (T, obs_dim) flattened, scaled
    actions: np.ndarray    # (T,) int
    rewards: np.ndarray    # (T,)
    dones: np.ndarray      # (T,) bool
    logp: np.ndarray       # (T,) log-prob at collection time
    values: np.ndarray     # (T,) value estimate at collection time
    bootstrap_value: float

    def __len__(self) -> int:
        return len(self.actions)


def collect_rollout(
    params: PolicyParams, level: Level, n_steps: int, rng: np.random.Generator
) -> Trajectory:
    """Run episodes back-to-back until `n_steps` transitions are stored.

    The network's input, outputs and action CDF are memoized per (position,
    direction): exact, as the weights are fixed for the rollout and the
    view depends only on the pair, so a repeat gives the same bits.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    memo = {}

    def network(state, obs):
        key = (state.agent_pos, state.agent_dir)
        if key not in memo:
            x = flatten_obs(obs)
            probs, value = forward(params, x)
            memo[key] = x, probs, value, np.cumsum(probs).tolist()
        return memo[key]

    state, obs = reset(level)
    obs_buf = np.empty((n_steps, obs.size))
    actions = np.empty(n_steps, dtype=np.int64)
    rewards = np.empty(n_steps)
    dones = np.empty(n_steps, dtype=bool)
    logps = np.empty(n_steps)
    values = np.empty(n_steps)
    for t in range(n_steps):
        x, probs, value, cdf = network(state, obs)
        action = draw_action(cdf, rng)
        state, obs, reward, done = step(state, action)
        obs_buf[t] = x
        actions[t] = int(action)
        rewards[t] = reward
        dones[t] = done
        logps[t] = np.log(probs[action])
        values[t] = value
        if done:
            state, obs = reset(level)

    bootstrap = 0.0 if dones[-1] else network(state, obs)[2]
    return Trajectory(
        obs=obs_buf,
        actions=actions,
        rewards=rewards,
        dones=dones,
        logp=logps,
        values=values,
        bootstrap_value=bootstrap,
    )


def compute_gae(
    traj: Trajectory, gamma: float, lam: float, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    delta_t = r_t + gamma*V(s_{t+1})*(1-done_t) - V(s_t); the advantage is
    the (gamma*lam)-discounted sum of deltas, truncated at episode ends;
    returns_t = advantage_t + V(s_t).  With normalize=True (training
    default) advantages are shifted/scaled to zero mean, unit variance.
    """
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")

    next_values = np.append(traj.values[1:], traj.bootstrap_value)
    nonterminal = 1.0 - traj.dones.astype(np.float64)
    deltas = traj.rewards + gamma * next_values * nonterminal - traj.values

    advantages = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        acc = deltas[t] + gamma * lam * nonterminal[t] * acc
        advantages[t] = acc
    returns = advantages + traj.values

    if normalize:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    return advantages, returns


@dataclass(frozen=True)
class _HeadJob:
    """One head's share of an update, the unit the helper trains.

    `flat`, `m` and `v` are the head's slices of the weights and of
    Adam's moments, cut to the live inputs' first-layer rows as `widths`
    says, owned by the job and updated in place; `t` is the number of
    Adam steps taken before the first minibatch.  `columns` are the
    per-step arrays the head's gradient reads, live observations first.
    """

    grad: Callable  # policy's _actor_grad or _critic_grad
    widths: tuple[int, ...]
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    spec: LossSpec
    columns: tuple[np.ndarray, ...]
    orders: list[np.ndarray]
    minibatch_size: int


def _train_head(job: _HeadJob, stop: Callable[[], bool] | None = None):
    """Every minibatch step of one head, in schedule order.

    An epoch gathers its rows of `columns` once and slices minibatches
    off them; the gradient and Adam's buffers are allocated once.
    Returns (flat, m, v, terms), with each step's loss terms; it stops
    after the first step whose terms are not all finite, as the total
    loss of that step is then non-finite too.  Returns None as soon as
    `stop()` is true before a step, asked before an epoch is gathered.
    """
    flat, m, v, t, size = job.flat, job.m, job.v, job.t, job.minibatch_size
    layers, _ = _head_views(flat, job.widths, 0)
    g, out, tmp = (np.empty_like(flat) for _ in range(3))
    grads, _ = _head_views(g, job.widths, 0)
    terms = []
    for order in job.orders:
        for lo in range(0, len(order), size):
            if stop is not None and stop():
                return None
            if lo == 0:
                columns = [c[order] for c in job.columns]
            terms.append(job.grad(layers, *(c[lo : lo + size] for c in columns), job.spec, grads))
            if not all(map(math.isfinite, terms[-1])):
                return flat, m, v, terms
            t += 1
            flat -= _adam_update(m, v, g, t, job.lr, out, tmp)
    return flat, m, v, terms


# The job arena's bytes, a multiple of 64; pages never written cost nothing.
_ARENA_BYTES = 32 << 20


def _arena_views(arena, sizes):
    """Byte views of `arena` of the given sizes, back to back at 64-byte
    boundaries; None if they do not fit."""
    views, offset, whole = [], 0, memoryview(arena)
    for size in sizes:
        views.append(whole[offset : offset + size])
        offset += -(-size // 64) * 64
    return views if offset <= len(arena) else None


class _Helper:
    """The helper process, its owner's side of the pipe to it, and the
    arena both map.  The owner is the process that forked it: a process
    forked from the owner inherits the object but must not use it."""

    def __init__(self, conn, proc, arena):
        self.conn = conn
        self.proc = proc
        self.arena = arena
        self.owner = os.getpid()
        self.busy = False  # a job was sent and its reply is not read yet

    def close(self) -> None:
        """Close the pipe, which ends the helper, and join it; idempotent."""
        self.conn.close()
        self.proc.join()

    def free(self) -> bool:
        """Whether the helper can take a job now.  Reads and drops the
        reply to a job this process finished first."""
        if self.busy and self.conn.poll():
            self.conn.recv()
            self.busy = False
        return not self.busy

    def send(self, job: _HeadJob) -> _HeadJob | None:
        """Send `job`, its arrays copied into the arena; returns it on the
        arena's views, or None, with nothing sent, if they do not fit."""
        buffers = []
        head = pickle.dumps(job, protocol=5, buffer_callback=buffers.append)
        sizes = [b.raw().nbytes for b in buffers]
        views = _arena_views(self.arena, sizes)
        if views is None:
            return None
        for view, buffer in zip(views, buffers):
            view[:] = buffer.raw()
        self.conn.send((head, sizes))
        self.busy = True
        return pickle.loads(head, buffers=views)


# Set while a `critic_helper` block has a live helper.
_helper: _Helper | None = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(conn, parent_end, arena) -> None:
    """The helper's loop: train each job in place in the arena, reply with
    its loss terms or its exception, and exit when the pipe closes."""
    parent_end.close()  # else the helper would hold its own EOF off
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it
    while True:
        try:
            head, sizes = conn.recv()
        except (EOFError, OSError):  # closed, or reset over an unread reply
            return
        try:
            reply = _train_head(pickle.loads(head, buffers=_arena_views(arena, sizes)))[3]
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            reply = exc
        try:
            conn.send(reply)
        except OSError:  # the block closed before this reply was needed
            return


@contextmanager
def critic_helper():
    """Train the critic half of every `ppo_update` in this block on a
    forked helper process, while the actor half runs here.

    Only a program's main process, where fork exists and 2 or more CPUs
    are usable, forks a helper; elsewhere the block does nothing, and a
    block inside another shares the outer one's helper.  The helper
    inherits a shared arena mapped before the fork: a job's arrays cross
    in it, the helper trains them in place, and the pipe carries the
    rest.  A job too big for it trains here.  If the reply is not there
    when the actor is done (the helper's core is busy or slow), this
    process trains its own copy of the critic and stops as soon as the
    reply comes; both give the same bits, and an update that finds the
    helper still busy trains here.  A dead helper is dropped, and the
    block goes on inline.
    Only the process that opened the block uses its helper: a process
    forked inside the block (a `--jobs` worker) updates inline.  The
    helper exits when the block closes the pipe, and the block joins it.
    """
    global _helper
    if (
        _helper is not None
        or multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
        or _usable_cpus() < 2
    ):
        yield
        return
    arena = mmap.mmap(-1, _ARENA_BYTES)
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, conn, arena), daemon=True)
    proc.start()
    child_end.close()
    _helper = helper = _Helper(conn, proc, arena)
    try:
        yield
    finally:
        _helper = None
        helper.close()


def ppo_update(
    params: PolicyParams,
    traj: Trajectory,
    cfg: PpoConfig,
    rng: np.random.Generator,
    opt: Adam | None = None,
) -> PolicyParams:
    """Clipped-surrogate minibatch updates over one collected trajectory.

    For `update_epochs` passes: shuffle, split into minibatches, and apply
    one optimizer step per minibatch.  `opt` carries moment state across
    calls for the same agent; omitted, a fresh optimizer is used.

    The actor and the critic are separate networks, the loss is a sum of
    an actor and a critic term, and Adam is elementwise: so each head
    runs its own loop over the one minibatch schedule, on its slice of
    the weights and moments, and gets the bits a joint loop would.
    Inside a `critic_helper` block the critic's loop runs on the helper.
    Only live inputs train, gathered and scattered back once: an input 0
    in all of `traj` whose rows have zero moments would step by exactly 0.
    A non-finite loss or new weight raises FloatingPointError and leaves
    `opt` as it was.
    """
    global _helper
    n = len(traj)
    if n < cfg.minibatch_size:
        raise ValueError(
            f"trajectory length {n} is below minibatch_size {cfg.minibatch_size}"
        )
    if opt is None:
        opt = Adam(params, lr=cfg.lr)

    advantages, returns = compute_gae(traj, cfg.gamma, cfg.lam)
    spec = cfg.loss_spec()
    orders = [rng.permutation(n) for _ in range(cfg.update_epochs)]
    split = sum(w.size + b.size for w, b in params.actor)
    moved = PolicyParams.from_flat((opt._m != 0) | (opt._v != 0), params.widths)
    live = traj.obs.any(axis=0) | moved.actor[0][0].any(axis=1) | moved.critic[0][0].any(axis=1)
    keep = PolicyParams.from_flat(np.ones(params.flat.size, dtype=bool), params.widths)
    keep.actor[0][0][~live] = keep.critic[0][0][~live] = False
    keep, obs = keep.flat, traj.obs[:, live]

    def job(grad, head, columns):
        part = slice(0, split) if head == 0 else slice(split, None)
        return _HeadJob(
            grad,
            (obs.shape[1], *params.widths[head][1:]),
            *(vec[part][keep[part]] for vec in (params.flat, opt._m, opt._v)),
            opt.t,
            opt.lr,
            spec,
            columns,
            orders,
            cfg.minibatch_size,
        )

    actor_job = job(_actor_grad, 0, (obs, traj.actions, traj.logp, advantages))

    def critic_job():
        return job(_critic_grad, 1, (obs, returns))

    actor = critic = None
    if _helper is not None and _helper.owner == os.getpid():
        try:
            sent = critic_job() if _helper.free() else None
            placed = sent and _helper.send(sent)
            if placed:
                actor = _train_head(actor_job)
                critic = _train_head(sent, stop=_helper.conn.poll)
                if critic is None:  # the helper's reply came first
                    critic = _helper.conn.recv()
                    _helper.busy = False
                    if not isinstance(critic, Exception):
                        critic = placed.flat, placed.m, placed.v, critic
        except (OSError, EOFError):  # the helper died: its job is trained here
            _helper.close()
            _helper = critic = None  # `sent` may be half trained, in place
        if isinstance(critic, Exception):
            raise critic
    if critic is None:
        critic = _train_head(critic_job())
    if actor is None:
        actor = _train_head(actor_job)

    for actor_terms, critic_terms in zip(actor[3], critic[3]):
        if not math.isfinite(_loss(actor_terms, critic_terms, spec)):
            raise FloatingPointError("non-finite loss (training diverged)")
    flat = params.flat.copy()
    flat[keep] = np.concatenate([actor[0], critic[0]])
    if not np.isfinite(flat).all():
        raise FloatingPointError("non-finite weights (training diverged)")
    opt._m[keep] = np.concatenate([actor[1], critic[1]])
    opt._v[keep] = np.concatenate([actor[2], critic[2]])
    opt.t += len(actor[3])
    return PolicyParams.from_flat(flat, params.widths)


def learn_epoch(
    params: PolicyParams,
    level: Level,
    cfg: PpoConfig,
    rng: np.random.Generator,
    opt: Adam | None = None,
) -> tuple[PolicyParams, int]:
    """One rollout plus one update; steps_consumed is always rollout_steps."""
    traj = collect_rollout(params, level, cfg.rollout_steps, rng)
    new_params = ppo_update(params, traj, cfg, rng, opt=opt)
    return new_params, cfg.rollout_steps


def test_agent(params: PolicyParams, level: Level) -> float:
    """Total reward of one greedy (argmax) episode; no learning, no rng.

    The episode ends early, with reward 0, at the first (position,
    direction) it acts from a second time.  This is exact: the
    observation depends only on that pair, so the argmax action repeats
    too and the agent cycles without reaching the goal until the step
    budget runs out, which pays 0.  Every forward the full episode would
    still make sees an observation already seen, so a non-finite output
    cannot be skipped either.  Only the actor runs, as only its argmax
    is read; `ppo_update` and `load_params` refuse a non-finite
    critic.
    """
    state, obs = reset(level)
    seen = set()
    total = 0.0
    while not state.done:
        key = (state.agent_pos, state.agent_dir)
        if key in seen:
            return 0.0
        seen.add(key)
        probs = action_probs(params, obs)
        state, obs, reward, _ = step(state, Action(int(np.argmax(probs))))
        total += reward
    return total
