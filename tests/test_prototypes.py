"""Prototype store: init oracle, EMA schedule, partition commute, purge."""

import numpy as np
import pytest

from mulki.encoder import DualEncoder, snapshot
from mulki.errors import ContractError, DegenerateInputError
from mulki.prototypes import PrototypeStore
from mulki.tensor import Tensor


class StubEncoder:
    """Feature extractor whose output is the input, for exact oracles."""

    def encode_images(self, x):
        return Tensor(np.asarray(x, dtype=np.float64))


def make_c0(seed=0, d_in=6):
    return snapshot(DualEncoder(seed, vocab_size=5, d_in=d_in, d_tok=4, hidden=8, embed_dim=5))


def test_init_matches_brute_force(rng):
    c0 = make_c0()
    images = {0: rng.normal(size=(7, 6)), 3: rng.normal(size=(4, 6))}
    store = PrototypeStore.init_from_model(c0, images)
    for cid, block in images.items():
        feats = c0.encode_images(block).data
        mean = feats.mean(axis=0)
        oracle = mean / np.linalg.norm(mean)
        assert np.allclose(store.get(cid), oracle, atol=1e-12)
    assert sorted(store.classes) == [0, 3]


def test_init_identical_samples(rng):
    c0 = make_c0()
    x = rng.normal(size=6)
    store = PrototypeStore.init_from_model(c0, {1: np.tile(x, (5, 1))})
    feat = c0.encode_images(x[None, :]).data[0]
    assert np.allclose(store.get(1), feat / np.linalg.norm(feat), atol=1e-12)


def test_init_degenerate_mean_errors(rng):
    v = rng.normal(size=4)
    images = {2: np.stack([v, -v])}  # identity features: mean is exactly zero
    with pytest.raises(DegenerateInputError):
        PrototypeStore.init_from_model(StubEncoder(), images)


def test_init_empty_class_errors():
    with pytest.raises(ContractError):
        PrototypeStore.init_from_model(make_c0(), {0: np.zeros((0, 6))})


def test_unit_norm_after_every_update(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), {0: rng.normal(size=(3, 4))})
    for _ in range(30):
        store.ema_update({0: rng.normal(size=(2, 4))})
        assert abs(np.linalg.norm(store.get(0)) - 1.0) < 1e-9


def test_gamma_schedule_closed_form():
    store = PrototypeStore.init_from_model(StubEncoder(), {0: np.ones((1, 3))})
    assert store.gamma == 0.0
    for k in range(1, 60):
        store.ema_update({0: np.ones((1, 3))})
        assert store.gamma == min(k * 0.04, 0.98), k
    # the cap is hit at exactly update 25
    fresh = PrototypeStore.init_from_model(StubEncoder(), {0: np.ones((1, 3))})
    for k in range(1, 26):
        fresh.ema_update({0: np.ones((1, 3))})
    assert fresh.gamma == 0.98
    assert 24 * 0.04 < 0.98  # one update earlier it is still below the cap


def test_gamma_never_exceeds_cap_and_nondecreasing():
    store = PrototypeStore(gamma0=0.5, gamma_step=0.1, gamma_max=0.7)
    seen = [store.gamma]
    store._protos[0] = np.array([1.0, 0.0])
    for _ in range(10):
        store.ema_update({0: np.eye(2)[:1]})
        seen.append(store.gamma)
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert max(seen) <= 0.7


def test_ema_matches_numpy_oracle(rng):
    d = 5
    init = {0: rng.normal(size=(4, d))}
    store = PrototypeStore.init_from_model(StubEncoder(), init)

    p = init[0].mean(axis=0)
    p = p / np.linalg.norm(p)
    gamma0, step, cap = 0.0, 0.04, 0.98
    for k in range(40):
        batch = rng.normal(size=(3, d))
        store.ema_update({0: batch})
        g = min(gamma0 + k * step, cap)
        blended = g * p + (1.0 - g) * batch.mean(axis=0)
        p = blended / np.linalg.norm(blended)
        assert np.allclose(store.get(0), p, atol=1e-12), k


def test_ema_constant_mean_converges(rng):
    d = 6
    store = PrototypeStore.init_from_model(StubEncoder(), {0: rng.normal(size=(2, d))})
    v = rng.normal(size=d)
    target = v / np.linalg.norm(v)
    for _ in range(200):
        store.ema_update({0: np.tile(v, (3, 1))})
    angle = np.arccos(np.clip(store.get(0) @ target, -1.0, 1.0))
    assert angle < 1e-3


def test_absent_classes_unchanged(rng):
    store = PrototypeStore.init_from_model(
        StubEncoder(), {0: rng.normal(size=(2, 4)), 1: rng.normal(size=(2, 4))}
    )
    before = store.get(1)
    store.ema_update({0: rng.normal(size=(2, 4))})
    assert np.array_equal(store.get(1), before)


def test_partition_commutes_with_gamma_control(rng):
    # with the schedule held still, per-class calls equal one joint call:
    # a split update differs from a joint one only through gamma
    images = {0: rng.normal(size=(2, 4)), 1: rng.normal(size=(2, 4))}
    batch0, batch1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    joint = PrototypeStore.init_from_model(StubEncoder(), images, gamma0=0.3, gamma_step=0.0)
    split = PrototypeStore.init_from_model(StubEncoder(), images, gamma0=0.3, gamma_step=0.0)
    for _ in range(5):
        joint.ema_update({0: batch0, 1: batch1})
        split.ema_update({0: batch0})
        split.ema_update({1: batch1})

    assert np.array_equal(joint.get(0), split.get(0))
    assert np.array_equal(joint.get(1), split.get(1))
    assert joint.gamma == split.gamma == 0.3


def test_update_validates_before_mutating(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), {0: rng.normal(size=(2, 4))})
    before = store.get(0)
    with pytest.raises(ContractError):
        store.ema_update({0: rng.normal(size=(2, 4)), 9: rng.normal(size=(2, 4))})
    assert np.array_equal(store.get(0), before)
    assert store.gamma == 0.0


def test_update_rejects_live_features(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), {0: rng.normal(size=(2, 4))})
    live = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    with pytest.raises(ContractError):
        store.ema_update({0: live})


def test_matrix_order_and_constantness(rng):
    store = PrototypeStore.init_from_model(
        StubEncoder(), {0: rng.normal(size=(2, 4)), 1: rng.normal(size=(2, 4))}
    )
    m = store.matrix([1, 0])
    assert np.array_equal(m.data[0], store.get(1))
    assert np.array_equal(m.data[1], store.get(0))
    assert m.requires_grad is False
    with pytest.raises(KeyError):
        store.matrix([0, 5])
    with pytest.raises(ContractError):
        store.matrix([])


def test_purge(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), {0: rng.normal(size=(2, 4))})
    store.ema_update({0: rng.normal(size=(2, 4))})
    assert store.gamma > 0.0
    store.purge()
    assert len(store) == 0
    assert store.gamma == 0.0
    with pytest.raises(KeyError):
        store.get(0)
    store.purge()  # idempotent
    assert len(store) == 0


def test_invalid_schedule_rejected():
    with pytest.raises(ContractError):
        PrototypeStore(gamma0=0.99, gamma_max=0.98)
    with pytest.raises(ContractError):
        PrototypeStore(gamma0=-0.1)
