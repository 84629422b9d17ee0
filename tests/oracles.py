"""Independent reference computations shared by the test modules.

These deliberately use slow scalar loops and brute-force sums so they
share no code path with the implementations under test.
"""

import numpy as np

from ecopool.gridworld import Action, Level, reset, step
from ecopool.policy import (
    Adam,
    LossSpec,
    Minibatch,
    PolicyParams,
    flatten_obs,
    forward,
    grad_loss,
    init_params,
)
from ecopool.ppo import PpoConfig, Trajectory, compute_gae


def perturbed(
    params: PolicyParams, head: str, layer: int, which: int, idx, delta: float
) -> PolicyParams:
    """Copy of `params` with one weight or bias entry shifted by delta."""

    def copy_head(layers, name):
        out = []
        for i, (w, b) in enumerate(layers):
            w, b = w.copy(), b.copy()
            if name == head and i == layer:
                if which == 0:
                    w[idx] += delta
                else:
                    b[idx] += delta
            out.append((w, b))
        return tuple(out)

    return PolicyParams(
        actor=copy_head(params.actor, "actor"),
        critic=copy_head(params.critic, "critic"),
    )


def fd_gradients(params: PolicyParams, batch: Minibatch, spec: LossSpec, h=1e-5):
    """Central finite differences of the loss over every parameter entry."""

    def loss_at(p):
        return grad_loss(p, batch, spec)[0]

    heads = {}
    for head in ("actor", "critic"):
        layers = []
        for li, (w, b) in enumerate(getattr(params, head)):
            gw, gb = np.zeros_like(w), np.zeros_like(b)
            for which, (arr, grad) in enumerate(((w, gw), (b, gb))):
                for idx in np.ndindex(*arr.shape):
                    plus = loss_at(perturbed(params, head, li, which, idx, +h))
                    minus = loss_at(perturbed(params, head, li, which, idx, -h))
                    grad[idx] = (plus - minus) / (2 * h)
            layers.append((gw, gb))
        heads[head] = tuple(layers)
    return heads


def max_rel_error(grads, fd) -> float:
    """Worst relative disagreement, with a floor guarding near-zero entries."""
    worst = 0.0
    for head in ("actor", "critic"):
        for (gw, gb), (fw, fb) in zip(getattr(grads, head), fd[head]):
            for a, f in ((gw, fw), (gb, fb)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
                worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def random_grad_case(rng: np.random.Generator, spec: LossSpec):
    """Small random net and batch, resampled away from clip kinks.

    Finite differences are meaningless where min(unclipped, clipped)
    switches branch, so cases with any ratio within 1e-3 of a clip
    boundary, or with near-zero advantages, are redrawn.
    """
    obs_dim = int(rng.integers(4, 10))
    hidden = (int(rng.integers(4, 10)),)
    params = init_params(int(rng.integers(2**31)), obs_dim=obs_dim, hidden=hidden)
    batch_size = 4
    while True:
        obs = rng.normal(size=(batch_size, obs_dim))
        actions = rng.integers(3, size=batch_size)
        new_logp = np.array(
            [np.log(forward(params, obs[i])[0][actions[i]]) for i in range(batch_size)]
        )
        old_logp = new_logp + rng.normal(scale=0.3, size=batch_size)
        advantages = rng.normal(size=batch_size)
        returns = rng.normal(size=batch_size)
        ratio = np.exp(new_logp - old_logp)
        near_kink = (np.abs(ratio - (1 - spec.epsilon)) < 1e-3) | (
            np.abs(ratio - (1 + spec.epsilon)) < 1e-3
        )
        if near_kink.any() or np.any(np.abs(advantages) < 1e-3):
            continue
        return params, Minibatch(
            obs=obs,
            actions=actions,
            old_logp=old_logp,
            advantages=advantages,
            returns=returns,
        )


def gae_bruteforce(rewards, values, dones, bootstrap, gamma, lam):
    """O(T^2) advantage sums: for each t, accumulate (gamma*lam)^k deltas
    until the episode ends."""
    n = len(rewards)
    next_values = np.append(values[1:], bootstrap)
    nonterminal = 1.0 - np.asarray(dones, dtype=np.float64)
    deltas = rewards + gamma * next_values * nonterminal - values
    advantages = np.zeros(n)
    for t in range(n):
        decay = 1.0
        for k in range(t, n):
            advantages[t] += decay * deltas[k]
            if dones[k]:
                break
            decay *= gamma * lam
    return advantages


def random_trajectory(rng: np.random.Generator, max_len=32):
    """Synthetic trajectory arrays with sparse episode ends."""
    from ecopool.ppo import Trajectory

    n = int(rng.integers(1, max_len + 1))
    dones = rng.random(n) < 0.15
    return Trajectory(
        obs=np.zeros((n, 1)),
        actions=np.zeros(n, dtype=np.int64),
        rewards=rng.normal(size=n),
        dones=dones,
        logp=np.zeros(n),
        values=rng.normal(size=n),
        bootstrap_value=float(rng.normal()),
    )


def full_greedy_episode(params: PolicyParams, level: Level) -> float:
    """Total reward of a greedy (argmax) episode played until the level
    reports done: `ppo.test_agent` without its stop at the first repeated
    state."""
    state, obs = reset(level)
    total = 0.0
    while not state.done:
        probs, _ = forward(params, obs)
        state, obs, reward, _ = step(state, Action(int(np.argmax(probs))))
        total += reward
    return total


def searchsorted_action(probs: np.ndarray, rng: np.random.Generator) -> Action:
    """Inverse-CDF draw by `np.searchsorted` on the cumulative sum."""
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    return Action(min(idx, len(probs) - 1))


def plain_rollout(
    params: PolicyParams, level: Level, n_steps: int, rng: np.random.Generator
) -> Trajectory:
    """`ppo.collect_rollout` with one `forward` and one fresh draw per
    step, without its per-state memo."""
    state, obs = reset(level)
    x = flatten_obs(obs)
    obs_buf = np.empty((n_steps, x.shape[0]))
    actions = np.empty(n_steps, dtype=np.int64)
    rewards = np.empty(n_steps)
    dones = np.empty(n_steps, dtype=bool)
    logps = np.empty(n_steps)
    values = np.empty(n_steps)
    for t in range(n_steps):
        probs, value = forward(params, x)
        action = searchsorted_action(probs, rng)
        state, obs, reward, done = step(state, action)
        obs_buf[t] = x
        actions[t] = int(action)
        rewards[t] = reward
        dones[t] = done
        logps[t] = np.log(probs[action])
        values[t] = value
        if done:
            state, obs = reset(level)
        x = flatten_obs(obs)
    bootstrap = 0.0 if dones[-1] else forward(params, x)[1]
    return Trajectory(
        obs=obs_buf,
        actions=actions,
        rewards=rewards,
        dones=dones,
        logp=logps,
        values=values,
        bootstrap_value=bootstrap,
    )


def layerwise_adam(
    params: PolicyParams,
    grad_fn,
    n_steps: int,
    lr: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> list[PolicyParams]:
    """Adam as a loop over layers, each weight, bias and moment its own
    array.  `grad_fn(params)` gives the gradients of each step; returns the
    parameters after every step."""
    def zeros():
        return {
            name: [(np.zeros_like(w), np.zeros_like(b)) for w, b in getattr(params, name)]
            for name in ("actor", "critic")
        }

    m, v = zeros(), zeros()
    history = []
    for t in range(1, n_steps + 1):
        grads = grad_fn(params)
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        heads = {}
        for name in ("actor", "critic"):
            new_layers = []
            for i, ((w, b), (gw, gb)) in enumerate(
                zip(getattr(params, name), getattr(grads, name))
            ):
                mw, mb = m[name][i]
                vw, vb = v[name][i]
                mw = beta1 * mw + (1 - beta1) * gw
                mb = beta1 * mb + (1 - beta1) * gb
                vw = beta2 * vw + (1 - beta2) * gw**2
                vb = beta2 * vb + (1 - beta2) * gb**2
                m[name][i] = (mw, mb)
                v[name][i] = (vw, vb)
                new_w = w - lr * (mw / bc1) / (np.sqrt(vw / bc2) + eps)
                new_b = b - lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps)
                new_layers.append((new_w, new_b))
            heads[name] = tuple(new_layers)
        params = PolicyParams(actor=heads["actor"], critic=heads["critic"])
        history.append(params)
    return history


def plain_ppo_update(
    params: PolicyParams,
    traj: Trajectory,
    cfg: PpoConfig,
    rng: np.random.Generator,
    opt: Adam,
) -> PolicyParams:
    """`ppo.ppo_update` as one joint loop: a permutation drawn per epoch,
    then one `grad_loss` over both heads and one `Adam.step` over the
    whole vector per minibatch."""
    n = len(traj)
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
