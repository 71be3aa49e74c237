"""AdamW: hand-checked steps, a reference-loop oracle, moment lifecycle."""

import re

import numpy as np
import pytest

import mulki.tensor as T
import reference_ops as R
from mulki.encoder import DualEncoder, params_flat
from mulki.errors import ContractError
from mulki.optim import AdamW
from mulki.tensor import Tensor


def make_param(rng, shape=(4,)):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def reference_adamw(theta0, grads, lr, beta1, beta2, eps, wd):
    """Textbook decoupled-decay AdamW, one parameter vector."""
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        theta *= 1.0 - lr * wd
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_single_step_hand_computed():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
    g = np.array([0.5, -0.25])
    p.grad = g.copy()
    opt.step()
    # bias correction makes the first step lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-15)


def test_ten_step_reference_oracle(rng):
    theta0 = rng.normal(size=6)
    grads = [rng.normal(size=6) for _ in range(10)]
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW([p], lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.02)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    expected = reference_adamw(theta0, grads, 0.01, 0.9, 0.999, 1e-8, 0.02)
    assert np.max(np.abs(p.data - expected)) <= 1e-12


def test_decay_only_shrinks(rng):
    theta0 = rng.normal(size=5)
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    for _ in range(3):
        p.grad = np.zeros(5)
        opt.step()
    assert np.allclose(p.data, theta0 * (1 - 0.1 * 0.5) ** 3, atol=1e-12)


def test_zero_grad_zero_decay_is_noop(rng):
    theta0 = rng.normal(size=5)
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW([p], lr=0.1)
    p.grad = np.zeros(5)
    opt.step()
    assert np.array_equal(p.data, theta0)


def test_grad_none_refused_before_any_write(rng):
    p, q = make_param(rng, (5,)), make_param(rng)
    opt = AdamW([p, q], lr=0.1, weight_decay=0.5)
    q.grad = np.ones(4)
    before = opt.params.flat.copy()
    with pytest.raises(ContractError, match=re.escape("parameter 0 (shape (5,)) has no gradient")):
        opt.step()  # p has no grad at all, so not even the decay runs
    assert np.array_equal(opt.params.flat, before)
    assert opt._t == 0 and not opt._m.any() and not opt._v.any()


def test_zero_grad_clears(rng):
    p = make_param(rng)
    p.grad = np.ones(4)
    AdamW([p]).zero_grad()
    assert p.grad is None


def test_reset_moments_restarts_schedule(rng):
    theta0 = rng.normal(size=4)
    g1, g2 = rng.normal(size=4), rng.normal(size=4)

    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW([p], lr=0.05)
    p.grad = g1.copy()
    opt.step()
    opt.reset_moments()
    mid = p.data.copy()
    p.grad = g2.copy()
    opt.step()

    # after the reset, the step must equal a fresh optimizer's first step
    fresh = Tensor(mid.copy(), requires_grad=True)
    fresh_opt = AdamW([fresh], lr=0.05)
    fresh.grad = g2.copy()
    fresh_opt.step()
    assert np.array_equal(p.data, fresh.data)


def test_trajectory_determinism(rng):
    theta0 = rng.normal(size=8)
    grads = [rng.normal(size=8) for _ in range(5)]

    def run():
        p = Tensor(theta0.copy(), requires_grad=True)
        opt = AdamW([p], lr=0.01, weight_decay=0.01)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        return p.data

    assert run().tobytes() == run().tobytes()


def test_flat_step_matches_per_parameter_reference(rng):
    """20 steps on a model's buffer equal the per-parameter loop bit for bit,
    through weight decay and a moment reset."""
    from reference_ops import AdamW as ReferenceAdamW

    model = DualEncoder(4, vocab_size=6, d_in=5, d_tok=3, hidden=7, embed_dim=4)
    loose = [Tensor(p.data.copy(), requires_grad=True) for p in model.parameters()]
    settings = dict(lr=0.03, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.05)
    flat_opt, ref_opt = AdamW(model.parameters(), **settings), ReferenceAdamW(loose, **settings)
    for step in range(1, 21):
        if step == 9:
            flat_opt.reset_moments()
            ref_opt.reset_moments()
        for p, q in zip(model.parameters(), loose):
            p.grad = rng.normal(size=p.shape)
            q.grad = p.grad.copy()
        flat_opt.step()
        ref_opt.step()
        assert params_flat(model).tobytes() == np.concatenate([q.data.ravel() for q in loose]).tobytes(), step


def test_loose_parameters_are_packed_and_stepped_in_place(rng):
    p, q = make_param(rng, (2, 3)), make_param(rng)
    opt = AdamW([p, q], lr=0.1)
    assert np.shares_memory(p.data, opt.params.flat) and np.shares_memory(q.data, opt.params.flat)
    p.grad, q.grad = np.ones((2, 3)), np.ones(4)
    before = opt.params.flat.copy()
    opt.step()
    assert not np.array_equal(opt.params.flat, before)
    assert np.array_equal(np.concatenate([p.data.ravel(), q.data]), opt.params.flat)


# ---------------------------------------------------------------------------
# stepping a model from the gradient buffer backward passes write


def _iteration_loss(model, rng):
    """A training iteration's objective on `model`: both towers, supervision and the drift anchor."""
    from mulki import losses

    feats = model.encode_images(rng.normal(size=(8, model.d_in)))
    texts = model.encode_texts([1, 2, 3])
    loss = losses.cross_entropy(losses.image_text_dist(feats, texts, 0.07), rng.integers(0, 3, size=8))
    return T.add(loss, T.scale(losses.wc_loss(model.parameters(), params_flat(model) + 0.01), 0.1))


def test_flat_step_matches_per_parameter_reference_over_real_iterations():
    """Gradients written by real backward passes into the buffer step to the per-parameter loop's bits."""
    from reference_ops import AdamW as ReferenceAdamW

    model = DualEncoder(5, vocab_size=6, d_in=5, d_tok=3, hidden=7, embed_dim=4)
    loose = [Tensor(p.data.copy(), requires_grad=True) for p in model.parameters()]
    settings = dict(lr=0.03, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.05)
    flat_opt, ref_opt = AdamW(model.parameters(), **settings), ReferenceAdamW(loose, **settings)
    rng = np.random.default_rng(0)
    for step in range(5):
        flat_opt.zero_grad()
        _iteration_loss(model, rng).backward()
        assert all(p.grad is p._lane for p in model.parameters())
        for p, q in zip(model.parameters(), loose):
            q.grad = p.grad.copy()
        flat_opt.step()
        ref_opt.step()
        assert params_flat(model).tobytes() == np.concatenate([q.data.ravel() for q in loose]).tobytes(), step


def test_zero_grad_clears_buffer_gradients_and_the_next_pass_starts_afresh():
    model = DualEncoder(5, vocab_size=6, d_in=5, d_tok=3, hidden=7, embed_dim=4)
    opt = AdamW(model.parameters(), lr=0.01, weight_decay=0.5)
    _iteration_loss(model, np.random.default_rng(1)).backward()
    once = model.parameters().grad.copy()
    _iteration_loss(model, np.random.default_rng(1)).backward()
    assert not np.array_equal(model.parameters().grad, once)  # two passes add up
    opt.zero_grad()
    assert all(p.grad is None for p in model.parameters())
    before = params_flat(model)
    with pytest.raises(ContractError):
        opt.step()  # nothing to step from, not even decay
    assert np.array_equal(params_flat(model), before)
    _iteration_loss(model, np.random.default_rng(1)).backward()
    assert model.parameters().grad.tobytes() == once.tobytes()


def test_parameters_without_a_gradient_keep_their_lanes_under_weight_decay():
    """The image tower alone: the text parameters get no gradient, so the step is refused before any write."""
    model = DualEncoder(5, vocab_size=6, d_in=5, d_tok=3, hidden=7, embed_dim=4)
    opt = AdamW(model.parameters(), lr=0.01, weight_decay=0.5)
    params = model.parameters()
    _iteration_loss(model, np.random.default_rng(2)).backward()
    opt.step()  # every parameter has moments now
    opt.zero_grad()
    theta, m, v = params.flat.copy(), opt._m.copy(), opt._v.copy()
    R.tsum(model.encode_images(np.ones((3, 5)))).backward()
    assert [p.grad is not None for p in params] == [True] * 4 + [False] * 5
    with pytest.raises(ContractError, match=re.escape(f"parameter 4 (shape {params[4].shape}) has no gradient")):
        opt.step()
    assert np.array_equal(params.flat, theta)
    assert np.array_equal(opt._m, m) and np.array_equal(opt._v, v)
    assert opt._t == 1
