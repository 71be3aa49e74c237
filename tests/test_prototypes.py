"""Prototype store: init oracle, EMA schedule, partition commute, the task-ordered rows, a stack's store, the per-cell loop."""

import math

import numpy as np
import pytest

import reference_ops as R
from mulki.encoder import DualEncoder, snapshot, stack
from mulki.errors import ContractError
from mulki.prototypes import PrototypeStore
from mulki.runner import _label_positions
from mulki.taskgen import StreamConfig, TaskSpec, batches, generate_stream
from mulki.tensor import Tensor


class StubEncoder:
    """Feature extractor whose output is the input, for exact oracles."""

    def encode_images(self, x):
        return Tensor(np.asarray(x, dtype=np.float64))


def make_c0(seed=0, d_in=6):
    return snapshot(DualEncoder(seed, vocab_size=5, d_in=d_in, d_tok=4, hidden=8, embed_dim=5))


def update(store, feats, positions):
    store.ema_update(np.asarray(feats, dtype=np.float64), np.asarray(positions, dtype=np.int64))


def test_init_matches_brute_force(rng):
    c0 = make_c0()
    images = [rng.normal(size=(7, 6)), rng.normal(size=(4, 6))]
    store = PrototypeStore.init_from_model(c0, images)
    assert store.rows.shape == (2, 5)
    for k, block in enumerate(images):
        feats = c0.encode_images(block).data
        mean = feats.mean(axis=0)
        oracle = mean / np.linalg.norm(mean)
        assert np.allclose(store.rows[k], oracle, atol=1e-12)


def test_init_identical_samples(rng):
    c0 = make_c0()
    x = rng.normal(size=6)
    store = PrototypeStore.init_from_model(c0, [np.tile(x, (5, 1))])
    feat = c0.encode_images(x[None, :]).data[0]
    assert np.allclose(store.rows[0], feat / np.linalg.norm(feat), atol=1e-12)


def test_init_degenerate_mean_errors(rng):
    v = rng.normal(size=4)
    images = [rng.normal(size=(2, 4)), np.stack([v, -v])]  # identity features: the second mean is exactly zero
    with pytest.raises(ContractError, match="class position 1: feature mean has zero norm"):
        PrototypeStore.init_from_model(StubEncoder(), images)


def test_init_empty_class_errors():
    with pytest.raises(ContractError):
        PrototypeStore.init_from_model(make_c0(), [np.zeros((0, 6))])
    with pytest.raises(ContractError):
        PrototypeStore.init_from_model(make_c0(), [])


def test_unit_norm_after_every_update(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), [rng.normal(size=(3, 4))])
    for _ in range(30):
        update(store, rng.normal(size=(2, 4)), [0, 0])
        assert abs(np.linalg.norm(store.rows[0]) - 1.0) < 1e-9


def test_gamma_schedule_closed_form():
    store = PrototypeStore.init_from_model(StubEncoder(), [np.ones((1, 3))])
    assert store.gamma == 0.0
    for k in range(1, 60):
        update(store, np.ones((1, 3)), [0])
        assert store.gamma == min(k * 0.04, 0.98), k
    # the cap is hit at exactly update 25
    fresh = PrototypeStore.init_from_model(StubEncoder(), [np.ones((1, 3))])
    for k in range(1, 26):
        update(fresh, np.ones((1, 3)), [0])
    assert fresh.gamma == 0.98
    assert 24 * 0.04 < 0.98  # one update earlier it is still below the cap


def test_gamma_never_exceeds_cap_and_nondecreasing():
    store = PrototypeStore(np.array([[1.0, 0.0]]), gamma0=0.5, gamma_step=0.1, gamma_max=0.7)
    seen = [store.gamma]
    for _ in range(10):
        update(store, np.eye(2)[:1], [0])
        seen.append(store.gamma)
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert max(seen) <= 0.7


def test_ema_matches_numpy_oracle(rng):
    d = 5
    init = rng.normal(size=(4, d))
    store = PrototypeStore.init_from_model(StubEncoder(), [init])

    p = init.mean(axis=0)
    p = p / np.linalg.norm(p)
    gamma0, step, cap = 0.0, 0.04, 0.98
    for k in range(40):
        batch = rng.normal(size=(3, d))
        update(store, batch, [0, 0, 0])
        g = min(gamma0 + k * step, cap)
        blended = g * p + (1.0 - g) * batch.mean(axis=0)
        p = blended / np.linalg.norm(blended)
        assert np.allclose(store.rows[0], p, atol=1e-12), k


def test_ema_constant_mean_converges(rng):
    d = 6
    store = PrototypeStore.init_from_model(StubEncoder(), [rng.normal(size=(2, d))])
    v = rng.normal(size=d)
    target = v / np.linalg.norm(v)
    for _ in range(200):
        update(store, np.tile(v, (3, 1)), [0, 0, 0])
    angle = np.arccos(np.clip(store.rows[0] @ target, -1.0, 1.0))
    assert angle < 1e-3


def test_absent_classes_unchanged(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), [rng.normal(size=(2, 4)), rng.normal(size=(2, 4))])
    before = store.rows[1].copy()
    update(store, rng.normal(size=(2, 4)), [0, 0])
    assert np.array_equal(store.rows[1], before)


def test_partition_commutes_with_gamma_control(rng):
    # with the schedule held still, per-class calls equal one joint call:
    # a split update differs from a joint one only through gamma
    images = [rng.normal(size=(2, 4)), rng.normal(size=(2, 4))]
    batch0, batch1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    joint = PrototypeStore.init_from_model(StubEncoder(), images, gamma0=0.3, gamma_step=0.0)
    split = PrototypeStore.init_from_model(StubEncoder(), images, gamma0=0.3, gamma_step=0.0)
    for _ in range(5):
        update(joint, np.concatenate([batch0, batch1]), [0, 0, 0, 1, 1, 1])
        update(split, batch0, [0, 0, 0])
        update(split, batch1, [1, 1, 1])

    assert np.array_equal(joint.rows, split.rows)
    assert joint.gamma == split.gamma == 0.3


def test_update_validates_before_mutating(rng):
    store = PrototypeStore.init_from_model(StubEncoder(), [rng.normal(size=(2, 4))])
    before = store.rows.copy()
    for positions in ([0, 1], [0, -1]):
        with pytest.raises(ContractError):
            update(store, rng.normal(size=(2, 4)), positions)
    assert np.array_equal(store.rows, before)
    assert store.gamma == 0.0


def test_matrix_order_and_constantness(rng):
    images = [rng.normal(size=(2, 4)), rng.normal(size=(2, 4))]
    store = PrototypeStore.init_from_model(StubEncoder(), images)
    m = store.matrix()
    for k, block in enumerate(images):  # row k is the k-th class given
        mean = block.mean(axis=0)
        assert np.allclose(m.data[k], mean / np.linalg.norm(mean), atol=1e-12)
    assert m.requires_grad is False
    # a constant of its own: later updates do not reach it, nor does writing it reach the store
    held = m.data.copy()
    update(store, rng.normal(size=(2, 4)), [0, 1])
    assert np.array_equal(m.data, held) and not np.array_equal(store.rows, held)
    m.data[...] = 0.0
    assert not np.any(store.rows == 0.0)


def test_a_stack_store_holds_the_bits_of_one_store_per_seed(rng):
    """One [S, K, d] store, seeded from a frozen stack or from one model all seeds share, against a store per seed."""
    models = [make_c0(seed) for seed in range(3)]
    images = [rng.normal(size=(n, 6)) for n in (4, 7, 5)]
    for c0s in (models, [models[0]] * 3):
        c0 = c0s[0] if c0s[1] is c0s[0] else snapshot(stack(c0s))
        joint = PrototypeStore.init_from_model(c0, images, lead=(3,), gamma_step=0.3)
        alone = [PrototypeStore.init_from_model(model, images, gamma_step=0.3) for model in c0s]
        assert joint.rows.shape == (3, 3, 5)
        for _ in range(5):
            feats, positions = rng.normal(size=(3, 8, 5)), rng.integers(0, 3, size=(3, 8))
            assert all(np.array_equal(joint.rows[s], store.rows) for s, store in enumerate(alone))
            joint.ema_update(feats, positions)
            for s, store in enumerate(alone):
                store.ema_update(feats[s], positions[s])
        assert all(np.array_equal(joint.rows[s], store.rows) for s, store in enumerate(alone))
        assert joint.gamma == alone[0].gamma
    before = joint.rows.copy()
    positions[2, 0] = 3  # out of range in the last seed only: no seed is written
    with pytest.raises(ContractError):
        joint.ema_update(feats, positions)
    assert np.array_equal(joint.rows, before)


# ---------------------------------------------------------------------------
# the task-ordered store against the class-id rule it replaced


def _normalize(vec):
    norm = math.sqrt(vec.dot(vec))
    return vec / norm


class ClassIdOracle:
    """The class-id keyed rule: one dict entry per global class id, each class
    updated from `feats[labels == class_id]`, in ascending id order."""

    def __init__(self, c0, task):
        self.protos = {
            c.class_id: _normalize(c0.encode_images(task.train_x[task.train_y == c.class_id]).data.mean(axis=0))
            for c in task.classes
        }
        self.updates = 0

    def ema_update(self, feats, labels):
        means = {}
        for class_id in sorted(set(labels.tolist())):
            block = feats[labels == class_id]
            means[class_id] = np.add.reduce(block, axis=0) / block.shape[0]
        g = min(0.0 + self.updates * 0.04, 0.98)
        for class_id, m in means.items():
            self.protos[class_id] = _normalize(g * self.protos[class_id] + (1.0 - g) * m)
        self.updates += 1

    def matrix(self, class_ids):
        return np.stack([self.protos[class_id] for class_id in class_ids])


def test_task_ordered_store_matches_the_class_id_rule_bit_for_bit():
    """On a task whose class ids are not ascending, rows, seeding and updates agree exactly."""
    stream = generate_stream(StreamConfig(n_tasks=2, classes_per_task=4, d_in=6, train_per_class=10))
    task = stream.tasks[1]
    order = [2, 0, 3, 1]
    shuffled = TaskSpec(task.task_id, [task.classes[i] for i in order], task.train_x, task.train_y, task.test_x, task.test_y)
    assert shuffled.class_ids != sorted(shuffled.class_ids)
    c0 = snapshot(DualEncoder(3, vocab_size=stream.vocab_size, d_in=6, d_tok=4, hidden=8, embed_dim=5))
    student = DualEncoder(4, vocab_size=stream.vocab_size, d_in=6, d_tok=4, hidden=8, embed_dim=5)

    store = PrototypeStore.init_from_model(c0, shuffled.images_by_class())
    oracle = ClassIdOracle(c0, shuffled)
    assert np.array_equal(store.matrix().data, oracle.matrix(shuffled.class_ids))
    positions = _label_positions(shuffled)
    for x, rows in batches(shuffled, 8, seed=1, iterations=40):
        feats = student.encode_images(x).data
        store.ema_update(feats, positions[rows])
        oracle.ema_update(feats, shuffled.train_y[rows])
        assert np.array_equal(store.matrix().data, oracle.matrix(shuffled.class_ids))
    assert store.gamma == min(40 * 0.04, 0.98)


# ---------------------------------------------------------------------------
# the array update against the per-(lane, class) loop it replaced


@pytest.mark.parametrize("shared", [True, False], ids=["one_shared_c0", "own_c0s"])
def test_ema_update_has_the_bits_of_the_per_cell_loop(shared, rng):
    """A 3-lane store seeded from one model every lane shares (broadcast rows) or from each lane's own, against
    reference_ops' loop, byte for byte after every update: absent classes, one-row classes and long blocks."""
    models = [make_c0(seed) for seed in range(3)]
    images = [rng.normal(size=(n, 6)) for n in (5, 1, 3, 2)]
    c0 = models[0] if shared else snapshot(stack(models))
    store = PrototypeStore.init_from_model(c0, images, lead=(3,), gamma0=0.1, gamma_step=0.07)
    assert store.rows.flags.c_contiguous  # the update writes through a flat view of it
    oracle = store.rows.copy()
    for it in range(20):
        feats = rng.normal(size=(3, 32, 5))
        positions = rng.integers(0, 4, size=(3, 32))
        positions[0] = [0] * 31 + [2]  # classes 1 and 3 absent, class 2 in one row
        positions[1, :24] = 1  # a block of at least 24 rows
        R.ema_update_per_cell(oracle, store.gamma, feats, positions)
        store.ema_update(feats, positions)
        assert store.rows.tobytes() == oracle.tobytes(), it


def test_a_zero_norm_blend_names_its_first_cell_and_writes_nothing(rng):
    """At gamma 0 a blend is its batch mean: class 3 of lane 0 and class 1 of lane 1 average to zero.
    The message names lane 0's, the first in the loop's order, and no lane is written."""
    store = PrototypeStore(rng.normal(size=(2, 4, 3)))
    before = store.rows.copy()
    v, w = rng.normal(size=3), rng.normal(size=3)
    feats = np.array([[v, v, w, -w], [v, -v, w, w]])
    positions = np.array([[0, 0, 3, 3], [1, 1, 2, 2]])
    message = "class position 3: feature mean has zero norm"
    with pytest.raises(ContractError, match=message):
        R.ema_update_per_cell(before.copy(), store.gamma, feats, positions)
    with pytest.raises(ContractError, match=message):
        store.ema_update(feats, positions)
    assert store.rows.tobytes() == before.tobytes()
    assert store.gamma == 0.0
