"""Actor-critic network with explicit forward pass and manual backprop.

Two separate tanh MLPs: an actor mapping the flattened observation to
action logits and a critic mapping it to a scalar value.  The default
architecture is 147-64-64 with a 3-way actor head and a 1-unit critic
head; smaller nets can be built for tests via `init_params` arguments.

Gradients of the clipped-surrogate loss are derived by hand for this
fixed architecture; there is no autodiff.  The actor's half of the loss
and its gradient and the critic's half are separate functions, which
`grad_loss` composes and a per-head training loop can call on its own.

All weights of an agent live in one float64 vector, `PolicyParams.flat`;
its `actor` and `critic` layers are (W, b) views into that vector, so a
copy, an equality test or a running mean is one vector operation.  Weights
are built one way: `PolicyParams(flat, widths)` wraps such a vector.
Gradients use the same layout; Adam updates its two moment vectors in it
in place, into work buffers its caller allocates once, and the net's
passes apply bias, tanh and slope in place.  Parameters are never
mutated: training steps return fresh vectors.  On disk an agent is the
same vector: `save_params` writes it as a .npy file and `load_params`
reads it back in a given layout.

An action distribution is represented as a plain probability vector
(each entry in (0,1), summing to 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .gridworld import OBS_SHAPE, Action

OBS_DIM = math.prod(OBS_SHAPE)
HIDDEN = (64, 64)
N_ACTIONS = 3
_ACTIONS = tuple(Action)

# One linear layer: (weights with shape (fan_in, fan_out), bias (fan_out,)).
Layer = tuple[np.ndarray, np.ndarray]


def _head_views(
    flat: np.ndarray, widths: tuple[int, ...], offset: int
) -> tuple[tuple[Layer, ...], int]:
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, flat[offset : offset + fan_out]))
        offset += fan_out
    return tuple(layers), offset


class PolicyParams:
    """Actor and critic weights packed into one vector.

    `PolicyParams(flat, widths)` wraps `flat` (not copied), which holds
    every layer in order (actor then critic, W row-major then b); `widths`
    names the layout as the layer widths of each head, e.g.
    ((147, 64, 64, 3), (147, 64, 64, 1)).  `actor` and `critic` are tuples
    of (W, b) views into `flat`, built once per instance.  Equality is
    exact value comparison.
    """

    __slots__ = ("flat", "widths", "actor", "critic")

    def __init__(self, flat: np.ndarray, widths: tuple[tuple[int, ...], tuple[int, ...]]):
        self.flat = flat
        self.widths = widths
        self.actor, offset = _head_views(flat, widths[0], 0)
        self.critic, _ = _head_views(flat, widths[1], offset)

    def __reduce__(self):
        # Copies and pickles carry the vector once and rebuild the views on
        # it; copying the views as arrays would detach them from `flat`.
        return (PolicyParams, (self.flat, self.widths))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyParams):
            return NotImplemented
        return self.widths == other.widths and np.array_equal(self.flat, other.flat)


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
    widths = ((obs_dim, *hidden, n_actions), (obs_dim, *hidden, 1))
    parts = []
    for head in widths:
        for fan_in, fan_out in zip(head, head[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            parts += [rng.uniform(-limit, limit, size=fan_in * fan_out), np.zeros(fan_out)]
    return PolicyParams(np.concatenate(parts), widths)


def flatten_obs(obs: np.ndarray) -> np.ndarray:
    """7x7x3 code grid -> 147-vector; object codes scaled to [0,1] by /3."""
    x = np.array(obs, dtype=np.float64)
    x[..., 0] /= 3.0
    return x.reshape(-1)


def _mlp_forward(layers: tuple[Layer, ...], x: np.ndarray) -> list[np.ndarray]:
    """Returns [input, tanh activations..., final linear output]."""
    acts = [x]
    for w, b in layers[:-1]:
        x = x @ w
        acts.append(np.tanh(np.add(x, b, out=x), out=x))
    w, b = layers[-1]
    acts.append(x @ w + b)
    return acts


def _mlp_backward(
    layers: tuple[Layer, ...],
    acts: list[np.ndarray],
    d_out: np.ndarray,
    grads: tuple[Layer, ...],
) -> None:
    """Backprop d(loss)/d(final output) through the layer stack into `grads`;
    each tanh activation in `acts` is overwritten by its slope 1 - a**2."""
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].T, d, out=gw)
        d.sum(axis=0, out=gb)
        if i > 0:
            slope = np.subtract(1.0, np.square(acts[i], out=acts[i]), out=acts[i])
            d = np.multiply(d @ layers[i][0].T, slope, out=slope)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def action_probs(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Action probabilities for one observation, from the actor alone.

    Accepts either a raw 7x7x3 observation or an already-flattened input
    vector (used by reduced-size test nets).  Raises on non-finite
    logits, the symptom of diverged training.
    """
    x = flatten_obs(obs) if obs.ndim == 3 else np.asarray(obs, dtype=np.float64)
    logits = _mlp_forward(params.actor, x)[-1]
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite network output (training diverged)")
    return _softmax(logits)


def forward(params: PolicyParams, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """`action_probs` and the critic's value estimate, checked the same way."""
    x = flatten_obs(obs) if obs.ndim == 3 else np.asarray(obs, dtype=np.float64)
    probs = action_probs(params, x)
    value = float(_mlp_forward(params.critic, x)[-1][0])
    if not math.isfinite(value):
        raise FloatingPointError("non-finite network output (training diverged)")
    return probs, value


def draw_action(cdf: list[float], rng: np.random.Generator) -> Action:
    """Inverse-CDF draw from `cdf = np.cumsum(probs).tolist()`, which a
    caller drawing often from one distribution keeps; advances `rng`."""
    return _ACTIONS[min(bisect_right(cdf, rng.random()), len(cdf) - 1)]


def _actor_grad(
    actor: tuple[Layer, ...],
    x: np.ndarray,
    actions: np.ndarray,
    old_logp: np.ndarray,
    adv: np.ndarray,
    spec: LossSpec,
    grads: tuple[Layer, ...],
) -> tuple[float, float]:
    """Actor half of `grad_loss`: (mean clipped surrogate, mean entropy),
    with the gradient of -L_clip - c_e*H written into `grads`."""
    n = x.shape[0]
    rows = np.arange(n)

    acts = _mlp_forward(actor, x)
    probs = _softmax(acts[-1])
    logp_all = np.log(probs)
    new_logp = logp_all[rows, actions]
    ratio = np.exp(new_logp - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - spec.epsilon, 1.0 + spec.epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * logp_all).sum(axis=1)

    # d(-L_clip)/d logp: gradient flows only where the unclipped term is
    # the active minimum (ties included, where both branches agree).
    d_logp = -np.where(unclipped <= clipped, unclipped, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    d_logits = d_logp[:, None] * (onehot - probs)
    # d(-c_e*H)/d logits for a softmax head.
    d_logits += (
        (spec.entropy_coef / n) * probs * (logp_all + entropy[:, None])
    )
    _mlp_backward(actor, acts, d_logits, grads)
    return float(surrogate.mean()), float(entropy.mean())


def _critic_grad(
    critic: tuple[Layer, ...],
    x: np.ndarray,
    returns: np.ndarray,
    spec: LossSpec,
    grads: tuple[Layer, ...],
) -> tuple[float]:
    """Critic half of `grad_loss`: (mean squared value error,), with the
    gradient of c_v*VL written into `grads`."""
    n = x.shape[0]
    acts = _mlp_forward(critic, x)
    v_err = acts[-1][:, 0] - returns
    d_value = (2.0 * spec.value_coef / n) * v_err[:, None]
    _mlp_backward(critic, acts, d_value, grads)
    return (float(np.mean(v_err**2)),)


def _loss(actor_terms: tuple[float, float], critic_terms: tuple[float], spec: LossSpec):
    """Total loss from the two halves' terms.  It is non-finite whenever
    any term is: inf - inf, 0 * inf and anything with nan are nan."""
    (surrogate, entropy), (value,) = actor_terms, critic_terms
    return -surrogate + spec.value_coef * value - spec.entropy_coef * entropy


def grad_loss(
    params: PolicyParams, batch: Minibatch, spec: LossSpec
) -> tuple[float, PolicyParams]:
    """Loss and exact gradients of -L_clip + c_v*VL - c_e*H on one minibatch.

    L_clip = mean(min(r*A, clip(r, 1-eps, 1+eps)*A)) with r = exp(logp - old_logp),
    VL = mean((V - returns)^2), H = mean entropy of the action distribution.
    Backprop runs through the softmax and tanh chains analytically; the
    gradients come back in the layout of `params`.  The actor's terms and
    gradients read only the actor's weights and the critic's only the
    critic's, so each half is its own function.
    """
    grads = PolicyParams(np.empty_like(params.flat), params.widths)
    actor_terms = _actor_grad(
        params.actor,
        batch.obs,
        batch.actions,
        batch.old_logp,
        batch.advantages,
        spec,
        grads.actor,
    )
    critic_terms = _critic_grad(params.critic, batch.obs, batch.returns, spec, grads.critic)
    loss = _loss(actor_terms, critic_terms, spec)
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss (training diverged)")
    return loss, grads


def clone_params(src: PolicyParams) -> PolicyParams:
    """Deep, independent copy; mutating either side never affects the other."""
    return PolicyParams(src.flat.copy(), src.widths)


def running_mean_params(
    mean: PolicyParams, sample: PolicyParams, n: int
) -> PolicyParams:
    """Fold the n-th sample into a mean of n-1: mean + (sample - mean) / n.

    n == 1 returns an exact copy of `sample`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return clone_params(sample)
    return PolicyParams(mean.flat + (sample.flat - mean.flat) / n, mean.widths)


# Adam's moment decay rates and denominator floor, the common defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive moment estimation over a PolicyParams vector.

    The learning rate is its one setting; beta1, beta2 and eps are the
    module's ADAM_* constants.  Holds the first/second moment vectors,
    updated in place, and the step counter; the parameters themselves
    are never mutated, `step` returns a new PolicyParams.  Every new
    agent gets a fresh instance (moments do not travel with copied
    weights).
    """

    def __init__(self, params: PolicyParams, lr: float = 3e-4):
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)

    def step(self, params: PolicyParams, grads: PolicyParams) -> PolicyParams:
        self.t += 1
        out, tmp = np.empty((2, grads.flat.size))
        update = _adam_update(self._m, self._v, grads.flat, self.t, self.lr, out, tmp)
        return PolicyParams(params.flat - update, params.widths)


def _adam_update(m, v, g, t: int, lr: float, out, tmp) -> np.ndarray:
    """Adam's t-th step on one slice: folds the gradient `g` into the
    moments `m` and `v` in place and fills `out` with the amount to
    subtract from the weights.  `out` and `tmp` are the caller's buffers
    of `g`'s shape, so a training loop allocates them once.  Every
    operation is elementwise, so a slice gets the same bits as the whole."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # This order, lr * (m / bc1) / (sqrt(v / bc2) + eps), is part of the
    # results: an equal form, such as lr folded into bc1, moves last bits.
    m *= ADAM_BETA1
    m += np.multiply(1 - ADAM_BETA1, g, out=tmp)
    v *= ADAM_BETA2
    v += np.multiply(1 - ADAM_BETA2, np.square(g, out=tmp), out=tmp)
    np.multiply(lr, np.divide(m, bc1, out=out), out=out)
    np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), ADAM_EPS, out=tmp)
    return np.divide(out, tmp, out=out)


def save_params(params: PolicyParams, path) -> None:
    """Write `params.flat` to `path` as a .npy file (1-D float64)."""
    with open(path, "wb") as fh:
        np.save(fh, params.flat, allow_pickle=False)


def load_params(path, widths) -> PolicyParams:
    """Inverse of `save_params`, in the layout `widths`.  ValueError, naming
    the problem, for `widths` that are not two heads of at least two
    positive ints, or a file that is not one whole .npy array, not 1-D
    float64, not the count of weights `widths` implies, or not finite."""
    heads = tuple(map(tuple, widths))
    if len(heads) != 2 or not all(
        len(head) >= 2 and all(type(w) is int and w > 0 for w in head) for head in heads
    ):
        raise ValueError(f"layout {widths!r} is not two heads of at least two positive ints")
    size = sum(i * o + o for head in heads for i, o in zip(head, head[1:]))
    with open(path, "rb") as fh:
        flat = np.lib.format.read_array(fh, allow_pickle=False)
        if fh.read(1):
            raise ValueError("bytes follow the .npy array")
    if flat.dtype != np.float64 or flat.ndim != 1:
        raise ValueError(f"holds a {flat.ndim}-D {flat.dtype.str} array, not 1-D float64")
    if flat.size != size:
        raise ValueError(f"holds {flat.size} weights, the layout {heads} needs {size}")
    if not np.isfinite(flat).all():
        raise ValueError("holds a NaN or infinite weight")
    return PolicyParams(flat, heads)
