"""Autodiff core and the generic ops in reference_ops.py: forward oracles, finite-difference gradients, semantics."""

import math
import re

import numpy as np
import pytest

import mulki.tensor as T
import reference_ops as R
from gradcheck import check_grads, prob_rows, unit_rows
from mulki.errors import ContractError
from mulki.tensor import LOG_EPS, GradTape, Tensor


# ---------------------------------------------------------------------------
# finite-difference sweep over every differentiable op


def test_arithmetic_grads(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=(3, 4))
    check_grads(lambda p: R.tsum(T.add(p[0], p[1])), [a, b])
    check_grads(lambda p: R.tsum(R.sub(p[0], p[1])), [a, b])
    check_grads(lambda p: R.tsum(R.mul(p[0], p[1])), [a, b])
    check_grads(lambda p: R.tsum(T.scale(p[0], -2.5)), [a])


def test_broadcast_grads(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    row = rng.uniform(-1, 1, size=(4,))
    check_grads(lambda p: R.tsum(T.add(p[0], p[1])), [a, row])
    check_grads(lambda p: R.tsum(R.mul(p[0], p[1])), [a, row])


def test_matmul_hand_examples():
    eye = Tensor(np.eye(2))
    assert np.array_equal(R.matmul(eye, eye).data, np.eye(2))
    out = R.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_grads(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=(4, 2))
    check_grads(lambda p: R.tsum(R.matmul(p[0], p[1])), [a, b], rel=1e-6)


def test_matmul_shape_error():
    with pytest.raises(ContractError, match=re.escape("matmul: inner dims differ, (2, 3) @ (2, 3)")):
        R.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_shape_error():
    with pytest.raises(ContractError, match=re.escape("add: (2, 3) vs (4, 5)")):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_elementwise_grads(rng):
    a = rng.uniform(0.2, 1.0, size=(2, 3))
    signed = rng.uniform(-1, 1, size=(2, 3))
    check_grads(lambda p: R.tsum(R.log(p[0])), [a])
    check_grads(lambda p: R.tsum(R.tanh(p[0])), [signed])
    check_grads(lambda p: R.tsum(R.sqrt(p[0])), [a])
    # keep maximum entries away from its kink
    off_kink = signed + np.where(signed >= 0, 0.5, -0.5)
    check_grads(lambda p: R.tsum(R.maximum_scalar(p[0], 0.1)), [off_kink])


def test_reduction_grads(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    check_grads(lambda p: R.tsum(p[0]), [a])
    check_grads(lambda p: R.mean(p[0]), [a])
    check_grads(lambda p: R.tsum(R.tsum(p[0], axis=0)), [a])
    check_grads(lambda p: R.tsum(R.mean(p[0], axis=1)), [a])


def test_mean_empty_error():
    with pytest.raises(ContractError):
        R.mean(Tensor(np.zeros((0,))))


def test_shape_op_grads(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    v1 = rng.uniform(-1, 1, size=(3,))
    v2 = rng.uniform(-1, 1, size=(2,))
    check_grads(lambda p: R.tsum(R.transpose(p[0])), [a])
    check_grads(lambda p: R.tsum(R.mul(R.reshape(p[0], (4, 3)), R.reshape(p[0], (4, 3)))), [a])
    check_grads(lambda p: R.tsum(R.mul(R.concat1d([p[0], p[1]]), R.concat1d([p[0], p[1]]))), [v1, v2])


def test_concat1d_layout():
    out = R.concat1d([Tensor([1.0, 2.0]), Tensor([3.0])])
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry_and_analytic():
    assert np.allclose(R.softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5], atol=1e-15)
    out = R.softmax(Tensor([math.log(1.0), math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_oracle_and_rows(rng):
    x = rng.uniform(-1, 1, size=5)
    expected = np.exp(x) / np.exp(x).sum()
    assert np.allclose(R.softmax(Tensor(x), axis=0).data, expected, atol=1e-12)

    m = rng.uniform(-1, 1, size=(4, 6))
    out = R.softmax(Tensor(m), axis=1).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


def test_softmax_stability_under_shift():
    x = np.array([1000.0, 1000.5, 999.0])
    out = R.softmax(Tensor(x), axis=0).data
    assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-12


def test_softmax_grads(rng):
    m = rng.uniform(-1, 1, size=(3, 4))
    w = rng.uniform(-1, 1, size=(3, 4))
    check_grads(lambda p: R.tsum(R.mul(R.softmax(p[0], axis=1), Tensor(w))), [m])
    check_grads(lambda p: R.tsum(R.mul(R.softmax(p[0], axis=0), Tensor(w))), [m])


# ---------------------------------------------------------------------------
# l2_normalize


def test_l2_normalize_examples():
    assert np.allclose(R.l2_normalize(Tensor([3.0, 4.0]), axis=0).data, [0.6, 0.8], atol=1e-15)
    u = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(R.l2_normalize(Tensor(u), axis=0).data, u)


def test_l2_normalize_unit_norm(rng):
    m = rng.uniform(-1, 1, size=(5, 7))
    out = R.l2_normalize(Tensor(m), axis=1).data
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_l2_normalize_zero_error():
    with pytest.raises(ContractError, match="zero-norm"):
        R.l2_normalize(Tensor(np.zeros((2, 3))), axis=1)


def test_l2_normalize_grads(rng):
    m = rng.uniform(0.2, 1.0, size=(3, 4)) * np.sign(rng.uniform(-1, 1, size=(3, 4)))
    w = rng.uniform(-1, 1, size=(3, 4))
    check_grads(lambda p: R.tsum(R.mul(R.l2_normalize(p[0], axis=1), Tensor(w))), [m], rel=1e-6)


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_sim_values(rng):
    v = rng.uniform(0.2, 1.0, size=(1, 6))
    assert abs(T.cosine_sim(Tensor(v), Tensor(v.copy())).item() - 1.0) < 1e-12
    assert abs(T.cosine_sim(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])).item()) < 1e-15

    a, b = rng.normal(size=6), rng.normal(size=6)
    oracle = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(T.cosine_sim(Tensor(a[None]), Tensor(b[None])).item() - oracle) < 1e-12
    assert abs(R.cosine_sim(Tensor(a), Tensor(b)).item() - oracle) < 1e-12


def test_cosine_sim_matrix(rng):
    a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
    out = T.cosine_sim(Tensor(a), Tensor(b)).data
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    assert out.shape == (3, 4)
    assert np.allclose(out, an @ bn.T, atol=1e-12)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_cosine_sim_zero_vector_error():
    with pytest.raises(ContractError, match="zero-norm"):
        T.cosine_sim(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))))
    with pytest.raises(ContractError, match="zero-norm"):
        T.cosine_softmax(Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3))), 2.0)
    with pytest.raises(ContractError, match="cosine_sim needs 2-D inputs, got ranks 1 and 1"):
        T.cosine_sim(Tensor(np.ones(3)), Tensor(np.ones(3)))


def test_cosine_sim_grads(rng):
    a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
    w = rng.normal(size=(3, 4))
    check_grads(lambda p: R.tsum(R.mul(T.cosine_sim(p[0], p[1]), Tensor(w))), [a, b], rel=1e-6)


# ---------------------------------------------------------------------------
# soft cross-entropy: the fused soft_ce_mean and the reference chain's soft_cross_entropy


def test_soft_ce_uniform():
    for k in (2, 5):
        u = Tensor(np.full((1, k), 1.0 / k))
        assert abs(T.soft_ce_mean(u, u).item() - math.log(k)) < 1e-12
        assert abs(R.soft_cross_entropy(Tensor(u.data[0]), Tensor(u.data[0])).item() - math.log(k)) < 1e-12


def test_soft_ce_one_hot_self():
    k = 4
    onehot = np.zeros((1, k))
    onehot[0, 1] = 1.0
    for loss in (
        T.soft_ce_mean(Tensor(onehot), Tensor(onehot.copy())).item(),
        R.soft_cross_entropy(Tensor(onehot[0]), Tensor(onehot[0].copy())).item(),
    ):
        # the clamped-log value and -ln(1 - (k-1)*eps) agree to well below 1e-9
        assert abs(loss) < 1e-9
        assert abs(loss - (-math.log(1.0 - (k - 1) * LOG_EPS))) < 1e-9


def test_soft_ce_oracle(rng):
    t = prob_rows(rng, 1, 6)[0]
    p = prob_rows(rng, 1, 6)[0]
    expected = -(t * np.log(p)).sum()
    assert abs(R.soft_cross_entropy(Tensor(t), Tensor(p)).item() - expected) < 1e-12

    tm, pm = prob_rows(rng, 3, 4), prob_rows(rng, 3, 4)
    rows = -(tm * np.log(pm)).sum(axis=1)
    out = R.soft_cross_entropy(Tensor(tm), Tensor(pm)).data
    assert out.shape == (3,)
    assert np.allclose(out, rows, atol=1e-12)
    assert np.allclose(T.soft_ce_rows(tm, pm), rows, atol=1e-12)
    w = rng.uniform(0.1, 1.0, size=3)
    fused = T.soft_ce_mean(Tensor(tm), Tensor(pm), weights=Tensor(w), scale=0.7).item()
    assert abs(fused - 0.7 * (rows * w).mean()) < 1e-12


def test_soft_ce_target_is_constant(rng):
    t = Tensor(prob_rows(rng, 2, 3), requires_grad=True)
    p = Tensor(prob_rows(rng, 2, 3), requires_grad=True)
    T.soft_ce_mean(t, p).backward()
    assert t.grad is None
    assert p.grad is not None and np.any(p.grad != 0)
    t.grad = p.grad = None
    R.tsum(R.soft_cross_entropy(t, p)).backward()
    assert t.grad is None
    assert p.grad is not None and np.any(p.grad != 0)
    with pytest.raises(ContractError):
        T.soft_ce_mean(Tensor(t.data), p, weights=Tensor(np.ones(2), requires_grad=True))


def test_soft_ce_grads(rng):
    t = prob_rows(rng, 3, 4)
    p = prob_rows(rng, 3, 4)
    w = rng.uniform(0.1, 1.0, size=3)
    check_grads(lambda q: R.tsum(R.soft_cross_entropy(Tensor(t), q[0])), [p], rel=1e-6)
    check_grads(lambda q: T.soft_ce_mean(Tensor(t), q[0], weights=Tensor(w), scale=1.3), [p], rel=1e-6)


# ---------------------------------------------------------------------------
# sqrt / frobenius corner cases of the reference chain


def test_sqrt_zero_subgradient():
    x = Tensor(np.zeros(3), requires_grad=True)
    R.tsum(R.sqrt(x)).backward()
    assert np.array_equal(x.grad, np.zeros(3))


def test_frobenius_norm_matches_numpy(rng):
    m = rng.normal(size=(3, 4))
    assert abs(R.frobenius_norm(Tensor(m)).item() - np.linalg.norm(m)) < 1e-12


def test_frobenius_norm_zero_matrix_backward():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 2)))
    R.frobenius_norm(R.sub(a, b)).backward()
    assert np.all(np.isfinite(a.grad))
    assert np.array_equal(a.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    R.mul(x, x).backward()
    assert x.grad == 6.0


def test_backward_constant_no_grads():
    x = Tensor(5.0)
    y = R.mul(x, x)
    y.backward()
    assert x.grad is None and y.grad is None


def test_backward_non_scalar_error():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        x.backward()


def test_backward_accumulates_across_calls():
    x = Tensor(3.0, requires_grad=True)
    y = R.mul(x, x)
    y.backward()
    y.backward()
    assert x.grad == 12.0


def test_backward_accumulates_within_graph():
    x = Tensor(2.0, requires_grad=True)
    y = T.add(R.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
    y.backward()
    assert x.grad == 5.0


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    y = R.mul(Tensor(x.data), x)  # a constant over the same data: only the live branch contributes
    y.backward()
    assert x.grad == 2.0


def test_item_non_scalar_error():
    with pytest.raises(ContractError):
        Tensor(np.ones(2)).item()


# ---------------------------------------------------------------------------
# determinism


def _composite(x: Tensor, w: Tensor) -> Tensor:
    h = R.tanh(R.matmul(x, w))
    n = R.l2_normalize(h, axis=1)
    s = R.softmax(T.cosine_sim(n, n), axis=1)
    return T.soft_ce_mean(Tensor(np.eye(s.shape[0])), s)


def test_bitwise_determinism():
    def run():
        r = np.random.default_rng(99)
        x = Tensor(r.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(r.normal(size=(6, 5)), requires_grad=True)
        loss = _composite(x, w)
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_gradtape_order_root_last():
    x = Tensor(1.0, requires_grad=True)
    y = R.mul(x, x)
    z = T.scale(y, 2.0)
    tape = GradTape.trace(z)
    assert tape.nodes == [y, z]
    assert x not in tape.nodes  # leaves stay off the tape


def test_backward_flushes_only_leaves(rng):
    """Only leaves end a pass holding a gradient; tape nodes keep none, in .grad or in their pass slot."""
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    loss = _composite(x, w)
    tape = GradTape.trace(loss)
    assert all(node._backward is not None for node in tape.nodes)
    loss.backward()
    assert all(node.grad is None and node._g is None for node in tape.nodes)

    # the same pass on packed leaves writes the same bits into their lanes of the one buffer
    px, pw = Tensor(x.data.copy(), requires_grad=True), Tensor(w.data.copy(), requires_grad=True)
    leaves = T.pack([px, pw])
    _composite(px, pw).backward()
    assert np.shares_memory(px.grad, leaves.grad) and np.shares_memory(pw.grad, leaves.grad)
    assert px.grad.tobytes() == x.grad.tobytes() and pw.grad.tobytes() == w.grad.tobytes()
    assert leaves.grad.tobytes() == np.concatenate([x.grad.ravel(), w.grad.ravel()]).tobytes()


def test_tape_leaves_out_constants(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    c = Tensor(rng.normal(size=3))
    tape = GradTape.trace(R.tsum(R.mul(x, c)))
    assert c not in tape.nodes and x not in tape.nodes
    assert all(node.requires_grad and node._backward is not None for node in tape.nodes)


# ---------------------------------------------------------------------------
# the flat gradient buffer


def test_pack_gives_a_gradient_buffer_only_to_trainable_leaves(rng):
    trainable = T.pack([Tensor(rng.normal(size=(2, 3)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)])
    assert trainable.grad.shape == trainable.flat.shape and not trainable.grad.any()
    assert all(p.grad is None for p in trainable)
    assert T.pack([Tensor(rng.normal(size=3))]).grad is None


def test_packed_passes_add_up_in_their_lanes(rng):
    """The first contribution is assigned (a -0.0 stays -0.0), a second pass adds on top."""
    a, b = Tensor(rng.normal(size=(2, 3)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)
    leaves = T.pack([a, b])
    loss = T.add(R.tsum(R.mul(a, a)), T.scale(R.tsum(b), -0.0))
    loss.backward()
    assert a.grad is a._lane and b.grad is b._lane
    first = leaves.grad.copy()
    assert np.array_equal(first[:6], 2.0 * a.data.ravel())
    assert np.all(np.signbit(b.grad)) and not b.grad.any()  # assigned, not added to +0.0
    loss.backward()
    assert leaves.grad.tobytes() == (first + first).tobytes()


def test_flat_grad_takes_gradients_assigned_by_hand(rng):
    a, b, c = (Tensor(rng.normal(size=n), requires_grad=True) for n in (2, 3, 1))
    leaves = T.pack([a, b, c])
    a.grad, b.grad = np.array([1.0, 2.0]), None
    R.tsum(R.mul(c, c)).backward()
    flat = leaves.flat_grad()
    assert flat is leaves.grad
    assert np.array_equal(flat[:2], [1.0, 2.0]) and np.array_equal(flat[5:], 2.0 * c.data)


# ---------------------------------------------------------------------------
# the one-call row dot


@pytest.mark.parametrize("width", [1, 8, 16, 160])
def test_row_dots_is_the_per_row_ndarray_dot(width, rng):
    """The stacked matmul reaches the BLAS dot `ndarray.dot` runs, so the prototype norms and the logged relation
    gaps keep their bits; a numpy whose matmul stops reaching it fails here, not in a golden hash."""
    for n in range(1, 51):
        v = rng.normal(size=(n, width))
        assert T.row_dots(v).tobytes() == np.array([row.dot(row) for row in v]).tobytes(), n
