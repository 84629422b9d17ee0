"""Actor-critic network with explicit forward pass and manual backprop.

Two separate tanh MLPs: an actor mapping the flattened observation to
action logits and a critic mapping it to a scalar value.  The default
architecture is 147-64-64 with a 3-way actor head and a 1-unit critic
head; smaller nets can be built for tests via `init_params` arguments.

Gradients of the clipped-surrogate loss are derived by hand for this
fixed architecture; there is no autodiff.  All functions are pure:
parameters are never mutated, updates return fresh arrays.

An action distribution is represented as a plain probability vector
(each entry in (0,1), summing to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridworld import Action

OBS_DIM = 7 * 7 * 3
HIDDEN = (64, 64)
N_ACTIONS = 3

# One linear layer: (weights with shape (fan_in, fan_out), bias (fan_out,)).
Layer = tuple[np.ndarray, np.ndarray]


def _stack_equal(a: tuple[Layer, ...], b: tuple[Layer, ...]) -> bool:
    if len(a) != len(b):
        return False
    for (wa, ba), (wb, bb) in zip(a, b):
        if wa.shape != wb.shape or not np.array_equal(wa, wb):
            return False
        if not np.array_equal(ba, bb):
            return False
    return True


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Actor and critic weights; equality is exact value comparison."""

    actor: tuple[Layer, ...]
    critic: tuple[Layer, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyParams):
            return NotImplemented
        return _stack_equal(self.actor, other.actor) and _stack_equal(
            self.critic, other.critic
        )


@dataclass(frozen=True, eq=False)
class Gradients:
    """Partial derivatives of a scalar loss, shape-congruent with PolicyParams."""

    actor: tuple[Layer, ...]
    critic: tuple[Layer, ...]


@dataclass(frozen=True)
class Minibatch:
    """Parallel arrays for one gradient evaluation.

    `obs` holds pre-flattened, pre-scaled observation vectors (B, obs_dim).
    """

    obs: np.ndarray
    actions: np.ndarray
    old_logp: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


@dataclass(frozen=True)
class LossSpec:
    """Coefficients of loss = -L_clip + value_coef*VL - entropy_coef*H."""

    epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01


def _init_mlp(rng: np.random.Generator, sizes: tuple[int, ...]) -> tuple[Layer, ...]:
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return tuple(layers)


def init_params(
    seed: int,
    obs_dim: int = OBS_DIM,
    hidden: tuple[int, ...] = HIDDEN,
    n_actions: int = N_ACTIONS,
) -> PolicyParams:
    """Fresh weights, uniform in +-sqrt(6/(fan_in+fan_out)), biases zero.

    Draw order is fixed (actor layers first, then critic), so the result
    is a pure function of the seed.
    """
    rng = np.random.default_rng(seed)
    actor = _init_mlp(rng, (obs_dim, *hidden, n_actions))
    critic = _init_mlp(rng, (obs_dim, *hidden, 1))
    return PolicyParams(actor=actor, critic=critic)


def flatten_obs(obs: np.ndarray) -> np.ndarray:
    """7x7x3 code grid -> 147-vector; object codes scaled to [0,1] by /3."""
    x = np.asarray(obs, dtype=np.float64)
    x = x.copy()
    x[..., 0] /= 3.0
    return x.reshape(-1)


def _mlp_forward(layers: tuple[Layer, ...], x: np.ndarray) -> list[np.ndarray]:
    """Returns [input, tanh activations..., final linear output]."""
    acts = [x]
    for w, b in layers[:-1]:
        x = np.tanh(x @ w + b)
        acts.append(x)
    w, b = layers[-1]
    acts.append(x @ w + b)
    return acts


def _mlp_backward(
    layers: tuple[Layer, ...], acts: list[np.ndarray], d_out: np.ndarray
) -> tuple[Layer, ...]:
    """Backprop d(loss)/d(final output) through the layer stack."""
    grads: list[Layer] = [None] * len(layers)  # type: ignore[list-item]
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (acts[i].T @ d, d.sum(axis=0))
        if i > 0:
            d = (d @ w.T) * (1.0 - acts[i] ** 2)
    return tuple(grads)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: PolicyParams, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and value estimate for one observation.

    Accepts either a raw 7x7x3 observation or an already-flattened input
    vector (used by reduced-size test nets).  Raises on non-finite
    outputs, the symptom of diverged training.
    """
    x = flatten_obs(obs) if obs.ndim == 3 else np.asarray(obs, dtype=np.float64)
    logits = _mlp_forward(params.actor, x)[-1]
    value = float(_mlp_forward(params.critic, x)[-1][0])
    if not (np.isfinite(logits).all() and math.isfinite(value)):
        raise FloatingPointError("non-finite network output (training diverged)")
    return _softmax(logits), value


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> Action:
    """Inverse-CDF draw from a 3-way distribution; advances `rng`."""
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    return Action(min(idx, len(probs) - 1))


def grad_loss(
    params: PolicyParams, batch: Minibatch, spec: LossSpec
) -> tuple[float, Gradients]:
    """Loss and exact gradients of -L_clip + c_v*VL - c_e*H on one minibatch.

    L_clip = mean(min(r*A, clip(r, 1-eps, 1+eps)*A)) with r = exp(logp - old_logp),
    VL = mean((V - returns)^2), H = mean entropy of the action distribution.
    Backprop runs through the softmax and tanh chains analytically.
    """
    x = batch.obs
    n = x.shape[0]
    rows = np.arange(n)

    acts_a = _mlp_forward(params.actor, x)
    probs = _softmax(acts_a[-1])
    logp_all = np.log(probs)
    new_logp = logp_all[rows, batch.actions]
    ratio = np.exp(new_logp - batch.old_logp)

    adv = batch.advantages
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - spec.epsilon, 1.0 + spec.epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * logp_all).sum(axis=1)

    acts_c = _mlp_forward(params.critic, x)
    values = acts_c[-1][:, 0]
    v_err = values - batch.returns

    loss = (
        -surrogate.mean()
        + spec.value_coef * np.mean(v_err**2)
        - spec.entropy_coef * entropy.mean()
    )
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss (training diverged)")

    # d(-L_clip)/d logp: gradient flows only where the unclipped term is
    # the active minimum (ties included, where both branches agree).
    d_logp = -np.where(unclipped <= clipped, unclipped, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    d_logits = d_logp[:, None] * (onehot - probs)
    # d(-c_e*H)/d logits for a softmax head.
    d_logits += (
        (spec.entropy_coef / n) * probs * (logp_all + entropy[:, None])
    )
    d_value = (2.0 * spec.value_coef / n) * v_err[:, None]

    return float(loss), Gradients(
        actor=_mlp_backward(params.actor, acts_a, d_logits),
        critic=_mlp_backward(params.critic, acts_c, d_value),
    )


def clone_params(src: PolicyParams) -> PolicyParams:
    """Deep, independent copy; mutating either side never affects the other."""
    return PolicyParams(
        actor=tuple((w.copy(), b.copy()) for w, b in src.actor),
        critic=tuple((w.copy(), b.copy()) for w, b in src.critic),
    )


def running_mean_params(
    mean: PolicyParams, sample: PolicyParams, n: int
) -> PolicyParams:
    """Fold the n-th sample into a mean of n-1: mean + (sample - mean) / n.

    Applied layer by layer; n == 1 returns an exact copy of `sample`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return clone_params(sample)

    def fold(m: tuple[Layer, ...], s: tuple[Layer, ...]) -> tuple[Layer, ...]:
        return tuple(
            (mw + (sw - mw) / n, mb + (sb - mb) / n)
            for (mw, mb), (sw, sb) in zip(m, s)
        )

    return PolicyParams(
        actor=fold(mean.actor, sample.actor), critic=fold(mean.critic, sample.critic)
    )


class Adam:
    """Adaptive moment estimation over a PolicyParams structure.

    Holds first/second moment accumulators and the step counter; the
    parameter arrays themselves are never mutated, `step` returns a new
    PolicyParams.  Every new agent gets a fresh instance (moments do not
    travel with copied weights).
    """

    def __init__(
        self,
        params: PolicyParams,
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = _zeros_like_params(params)
        self._v = _zeros_like_params(params)

    def step(self, params: PolicyParams, grads: Gradients) -> PolicyParams:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        heads = {}
        for name in ("actor", "critic"):
            new_layers = []
            for i, ((w, b), (gw, gb)) in enumerate(
                zip(getattr(params, name), getattr(grads, name))
            ):
                mw, mb = self._m[name][i]
                vw, vb = self._v[name][i]
                mw = self.beta1 * mw + (1 - self.beta1) * gw
                mb = self.beta1 * mb + (1 - self.beta1) * gb
                vw = self.beta2 * vw + (1 - self.beta2) * gw**2
                vb = self.beta2 * vb + (1 - self.beta2) * gb**2
                self._m[name][i] = (mw, mb)
                self._v[name][i] = (vw, vb)
                new_w = w - self.lr * (mw / bc1) / (np.sqrt(vw / bc2) + self.eps)
                new_b = b - self.lr * (mb / bc1) / (np.sqrt(vb / bc2) + self.eps)
                new_layers.append((new_w, new_b))
            heads[name] = tuple(new_layers)
        return PolicyParams(actor=heads["actor"], critic=heads["critic"])


def _zeros_like_params(params: PolicyParams) -> dict[str, list[Layer]]:
    return {
        name: [
            (np.zeros_like(w), np.zeros_like(b)) for w, b in getattr(params, name)
        ]
        for name in ("actor", "critic")
    }


def params_to_json(params: PolicyParams) -> dict:
    """Versioned JSON layout: header plus layer-ordered row-major weights."""
    in_dims = [w.shape[0] for w, _ in params.actor]
    return {
        "version": 1,
        "arch": in_dims,
        "heads": {
            "actor": params.actor[-1][0].shape[1],
            "critic": params.critic[-1][0].shape[1],
        },
        "actor": [[w.tolist(), b.tolist()] for w, b in params.actor],
        "critic": [[w.tolist(), b.tolist()] for w, b in params.critic],
    }


def params_from_json(data: dict) -> PolicyParams:
    if data.get("version") != 1:
        raise ValueError(f"unsupported params version {data.get('version')!r}")

    def build(entries) -> tuple[Layer, ...]:
        return tuple(
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in entries
        )

    params = PolicyParams(actor=build(data["actor"]), critic=build(data["critic"]))
    arch = [w.shape[0] for w, _ in params.actor]
    heads = {
        "actor": params.actor[-1][0].shape[1],
        "critic": params.critic[-1][0].shape[1],
    }
    if arch != list(data["arch"]) or heads != dict(data["heads"]):
        raise ValueError("params header disagrees with stored layer shapes")
    return params
