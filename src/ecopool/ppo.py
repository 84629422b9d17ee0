"""On-policy training loop: rollouts, advantage estimation, clipped updates.

The two primitives the agent eco-system consumes live here: `learn_epoch`
(one rollout plus one update, the unit of the training-step metric) and
`test_agent` (one greedy evaluation episode).

A greedy episode stops at the first repeated (position, direction) and
returns 0, the reward the full episode would pay: the level is static
and the argmax policy deterministic, so from a repeated state the agent
can only cycle until `max_steps`.  A rollout forwards each state once.

Everything is deterministic given the RNG passed in; training a given
agent on a given level is a pure function of (params, level, config,
rng state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridworld import Action, Level, reset, step
from .policy import (
    Adam,
    LossSpec,
    Minibatch,
    PolicyParams,
    draw_action,
    flatten_obs,
    forward,
    grad_loss,
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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for field in ("rollout_steps", "minibatch_size", "update_epochs"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
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
    """
    n = len(traj)
    if n < cfg.minibatch_size:
        raise ValueError(
            f"trajectory length {n} is below minibatch_size {cfg.minibatch_size}"
        )
    if opt is None:
        opt = Adam(params, lr=cfg.lr)

    advantages, returns = compute_gae(traj, cfg.gamma, cfg.lam)
    spec = cfg.loss_spec()
    for _ in range(cfg.update_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.minibatch_size):
            idx = order[lo : lo + cfg.minibatch_size]
            batch = Minibatch(
                obs=traj.obs[idx],
                actions=traj.actions[idx],
                old_logp=traj.logp[idx],
                advantages=advantages[idx],
                returns=returns[idx],
            )
            _, grads = grad_loss(params, batch, spec)
            params = opt.step(params, grads)
    return params


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
    cannot be skipped either.
    """
    state, obs = reset(level)
    seen = set()
    total = 0.0
    while not state.done:
        key = (state.agent_pos, state.agent_dir)
        if key in seen:
            return 0.0
        seen.add(key)
        probs, _ = forward(params, obs)
        state, obs, reward, _ = step(state, Action(int(np.argmax(probs))))
        total += reward
    return total
