"""Network forward pass, manual gradients, cloning, and the weights file."""

import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from ecopool.gridworld import Action, generate_level, observe, reset
from ecopool.policy import (
    Adam,
    LossSpec,
    Minibatch,
    PolicyParams,
    action_probs,
    clone_params,
    draw_action,
    flatten_obs,
    forward,
    grad_loss,
    init_params,
    load_params,
    running_mean_params,
    save_params,
)
from ecopool.ppo import collect_rollout, compute_gae
from oracles import (
    fd_gradients,
    layerwise_adam,
    max_rel_error,
    params_from_layers,
    random_grad_case,
    searchsorted_action,
)


def _zero_params(obs_dim=147, hidden=(64, 64), n_actions=3) -> PolicyParams:
    def stack(sizes):
        return tuple(
            (np.zeros((i, o)), np.zeros(o)) for i, o in zip(sizes, sizes[1:])
        )

    return params_from_layers(
        stack((obs_dim, *hidden, n_actions)), stack((obs_dim, *hidden, 1))
    )


class TestInit:
    def test_deterministic_in_seed(self):
        assert init_params(42) == init_params(42)

    def test_seeds_differ(self):
        assert init_params(1) != init_params(2)

    def test_weights_finite_and_bounded(self):
        for seed in range(5):
            params = init_params(seed)
            for w, b in params.actor + params.critic:
                assert np.isfinite(w).all()
                assert np.max(np.abs(w)) < 10
                assert np.array_equal(b, np.zeros_like(b))

    def test_shapes(self):
        params = init_params(0)
        assert [w.shape for w, _ in params.actor] == [(147, 64), (64, 64), (64, 3)]
        assert [w.shape for w, _ in params.critic] == [(147, 64), (64, 64), (64, 1)]


class TestForward:
    def test_probs_normalized(self):
        params = init_params(3)
        for seed in range(10):
            _, obs = reset(generate_level(seed))
            probs, value = forward(params, obs)
            assert abs(float(probs.sum()) - 1.0) < 1e-9
            assert np.all(probs > 0)
            assert math.isfinite(value)

    def test_zero_weights_give_uniform(self):
        _, obs = reset(generate_level(0))
        probs, value = forward(_zero_params(), obs)
        assert np.allclose(probs, 1 / 3, atol=1e-12)
        assert value == 0.0

    def test_tiny_net_matches_hand_computation(self):
        w1 = np.array([[0.3], [-0.2]])
        b1 = np.array([0.1])
        w2 = np.array([[0.5, -0.4, 0.2]])
        b2 = np.array([0.0, 0.1, -0.1])
        v2 = np.array([[0.7]])
        vb2 = np.array([-0.2])
        params = params_from_layers(
            ((w1, b1), (w2, b2)), ((w1.copy(), b1.copy()), (v2, vb2))
        )
        x = np.array([0.4, -0.6])

        h = math.tanh(0.4 * 0.3 + (-0.6) * (-0.2) + 0.1)
        logits = [0.5 * h, -0.4 * h + 0.1, 0.2 * h - 0.1]
        exps = [math.exp(z) for z in logits]
        expected_probs = [e / sum(exps) for e in exps]
        expected_value = 0.7 * h - 0.2

        probs, value = forward(params, x)
        assert np.allclose(probs, expected_probs, atol=1e-12)
        assert abs(value - expected_value) < 1e-12

    def test_scaling(self):
        _, obs = reset(generate_level(1))
        x = flatten_obs(obs)
        assert x.shape == (147,)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.allclose(x.reshape(7, 7, 3)[..., 0], obs[..., 0] / 3.0)
        assert np.all(x.reshape(7, 7, 3)[..., 1:] == 0)

    def test_nonfinite_raises(self):
        params = init_params(0)
        bad_w = params.actor[-1][0].copy()
        bad_w[0, 0] = np.nan
        broken = params_from_layers(
            params.actor[:-1] + ((bad_w, params.actor[-1][1]),), params.critic
        )
        _, obs = reset(generate_level(0))
        with pytest.raises(FloatingPointError):
            forward(broken, obs)
        with pytest.raises(FloatingPointError):
            action_probs(broken, obs)

    def test_nonfinite_critic_raises_in_forward_only(self):
        params = init_params(0)
        broken = clone_params(params)
        broken.critic[-1][0][0, 0] = np.nan
        _, obs = reset(generate_level(0))
        with pytest.raises(FloatingPointError):
            forward(broken, obs)
        assert action_probs(broken, obs).tobytes() == forward(params, obs)[0].tobytes()

    @pytest.mark.parametrize("flattened", [False, True], ids=["raw", "flattened"])
    def test_action_probs_bit_equal_to_forward(self, flattened):
        params = init_params(3)
        for seed in range(10):
            _, obs = reset(generate_level(seed))
            x = flatten_obs(obs) if flattened else obs
            assert action_probs(params, x).tobytes() == forward(params, x)[0].tobytes()


class TestSampleAction:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert draw_action(np.cumsum([1.0, 0.0, 0.0]).tolist(), rng) == Action.TURN_LEFT
            assert draw_action(np.cumsum([0.0, 0.0, 1.0]).tolist(), rng) == Action.FORWARD

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        probs = np.full(3, 1 / 3)
        n = 30000
        counts = np.zeros(3)
        for _ in range(n):
            counts[draw_action(np.cumsum(probs).tolist(), rng)] += 1
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) < 3 * sigma)

    def test_deterministic_given_rng_state(self):
        probs = np.array([0.2, 0.5, 0.3])
        cdf = np.cumsum(probs).tolist()
        a = [draw_action(cdf, np.random.default_rng(s)) for s in range(50)]
        b = [draw_action(cdf, np.random.default_rng(s)) for s in range(50)]
        assert a == b

    def test_matches_searchsorted_on_every_draw(self):
        rng = np.random.default_rng(3)
        cases = [rng.dirichlet(np.ones(3)) for _ in range(200)]
        cases += [np.array(p) for p in ([1.0, 0, 0], [0, 0, 1.0], [0.5, 0, 0.5])]
        cases.append(np.full(3, 1 / 3))
        for i, probs in enumerate(cases):
            cdf = np.cumsum(probs)
            # Draws on and next to each CDF entry, where the comparisons decide.
            draws = [0.0, np.nextafter(1.0, 0.0)] + [
                float(u)
                for c in cdf
                for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0))
            ]
            for u in draws:
                fixed = SimpleNamespace(random=lambda u=u: u)
                expected = searchsorted_action(probs, fixed)
                assert draw_action(cdf.tolist(), fixed) == expected
            a, b = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(50):
                assert draw_action(cdf.tolist(), a) == searchsorted_action(probs, b)


class TestGradLoss:
    def test_matches_finite_differences(self):
        spec = LossSpec(epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
        rng = np.random.default_rng(12)
        for _ in range(5):
            params, batch = random_grad_case(rng, spec)
            _, grads = grad_loss(params, batch, spec)
            fd = fd_gradients(params, batch, spec)
            assert max_rel_error(grads, fd) < 1e-4

    def test_zero_advantage_zero_coefs_zero_gradient(self):
        spec = LossSpec(epsilon=0.2, value_coef=0.0, entropy_coef=0.0)
        rng = np.random.default_rng(5)
        params, batch = random_grad_case(rng, LossSpec())
        batch = Minibatch(
            obs=batch.obs,
            actions=batch.actions,
            old_logp=batch.old_logp,
            advantages=np.zeros_like(batch.advantages),
            returns=batch.returns,
        )
        loss, grads = grad_loss(params, batch, spec)
        assert loss == 0.0
        for head in ("actor", "critic"):
            for gw, gb in getattr(grads, head):
                assert np.array_equal(gw, np.zeros_like(gw))
                assert np.array_equal(gb, np.zeros_like(gb))

    def test_duplicated_batch_same_gradients(self):
        spec = LossSpec()
        rng = np.random.default_rng(9)
        params, batch = random_grad_case(rng, spec)
        doubled = Minibatch(
            obs=np.concatenate([batch.obs, batch.obs]),
            actions=np.concatenate([batch.actions, batch.actions]),
            old_logp=np.concatenate([batch.old_logp, batch.old_logp]),
            advantages=np.concatenate([batch.advantages, batch.advantages]),
            returns=np.concatenate([batch.returns, batch.returns]),
        )
        loss_a, grads_a = grad_loss(params, batch, spec)
        loss_b, grads_b = grad_loss(params, doubled, spec)
        assert abs(loss_a - loss_b) < 1e-12
        for head in ("actor", "critic"):
            for (gw, gb), (hw, hb) in zip(
                getattr(grads_a, head), getattr(grads_b, head)
            ):
                assert np.allclose(gw, hw, atol=1e-14)
                assert np.allclose(gb, hb, atol=1e-14)

    def test_gradients_shape_congruent_and_finite(self):
        spec = LossSpec()
        rng = np.random.default_rng(2)
        params, batch = random_grad_case(rng, spec)
        _, grads = grad_loss(params, batch, spec)
        assert isinstance(grads, PolicyParams)
        for head in ("actor", "critic"):
            for (w, b), (gw, gb) in zip(getattr(params, head), getattr(grads, head)):
                assert gw.shape == w.shape and gb.shape == b.shape
                assert np.isfinite(gw).all() and np.isfinite(gb).all()


class TestClone:
    def test_exact_equality(self):
        params = init_params(11)
        assert clone_params(params) == params

    def test_independence(self):
        params = init_params(11)
        copy = clone_params(params)
        params.actor[0][0][0, 0] += 1.0
        assert copy != params
        params.actor[0][0][0, 0] -= 1.0
        assert copy == params

    def test_double_clone(self):
        params = init_params(11)
        assert clone_params(clone_params(params)) == params

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_keeps_one_vector(self, duplicate):
        params = init_params(0)
        q = duplicate(params)
        assert q == params
        q.actor[0][0][0, 0] += 1.0
        assert q != params
        assert params == init_params(0)

    def test_pickle_carries_the_vector_once(self):
        params = init_params(0)
        assert len(pickle.dumps(params)) < 1.1 * params.flat.nbytes


class TestRunningMean:
    def test_mean_of_three(self):
        samples = [init_params(s, obs_dim=4, hidden=(4,)) for s in (1, 2, 3)]
        mean = samples[0]
        for n, sample in enumerate(samples[1:], start=2):
            mean = running_mean_params(mean, sample, n)
        for head in ("actor", "critic"):
            stacks = [getattr(s, head) for s in samples]
            for i, (w, b) in enumerate(getattr(mean, head)):
                expected_w = sum(stack[i][0] for stack in stacks) / 3
                expected_b = sum(stack[i][1] for stack in stacks) / 3
                np.testing.assert_allclose(w, expected_w, rtol=0, atol=1e-15)
                np.testing.assert_allclose(b, expected_b, rtol=0, atol=1e-15)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            running_mean_params(init_params(1), init_params(2), 0)


class TestAdam:
    def test_step_changes_params_deterministically(self):
        spec = LossSpec()
        rng = np.random.default_rng(21)
        params, batch = random_grad_case(rng, spec)
        _, grads = grad_loss(params, batch, spec)
        a = Adam(params).step(params, grads)
        b = Adam(params).step(params, grads)
        assert a == b
        assert a != params

    def test_moments_accumulate(self):
        spec = LossSpec()
        rng = np.random.default_rng(22)
        params, batch = random_grad_case(rng, spec)
        _, grads = grad_loss(params, batch, spec)
        opt = Adam(params)
        p1 = opt.step(params, grads)
        p2 = opt.step(p1, grads)
        assert opt.t == 2
        assert p2 != p1

    def test_matches_layerwise_reference(self):
        spec = LossSpec()
        params = init_params(0)
        traj = collect_rollout(params, generate_level(4), 64, np.random.default_rng(4))
        advantages, returns = compute_gae(traj, 0.99, 0.95)
        batch = Minibatch(
            obs=traj.obs,
            actions=traj.actions,
            old_logp=traj.logp,
            advantages=advantages,
            returns=returns,
        )

        def grad_fn(p):
            return grad_loss(p, batch, spec)[1]

        expected = layerwise_adam(params, grad_fn, 50, lr=1e-3)
        opt = Adam(params, lr=1e-3)
        for want in expected:
            params = opt.step(params, grad_fn(params))
            assert params == want


class TestWeightsFile:
    @pytest.mark.parametrize(
        "params",
        [init_params(33), init_params(5, obs_dim=4, hidden=(4,))],
        ids=["default", "reduced"],
    )
    def test_roundtrip_bit_exact(self, tmp_path, params):
        path = tmp_path / "w.npy"
        save_params(params, path)
        # The layout as pool.json holds it, lists and all.
        loaded = load_params(path, [list(head) for head in params.widths])
        assert loaded.widths == params.widths
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert np.load(path).tobytes() == params.flat.tobytes()
