"""Accuracy matrix summaries and the cosine-argmax evaluator."""

import re

import numpy as np
import pytest

from mulki.encoder import DualEncoder, snapshot
from mulki.errors import ContractError
from mulki.metrics import (
    avg,
    current_avg,
    evaluate,
    evaluation_candidates,
    last,
    metrics_document,
    seen_candidates,
    summaries,
    transfer,
)
from mulki.taskgen import generate_stream
from mulki.tensor import Tensor

from conftest import tiny_stream_config

FIXTURE = [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]


def test_two_task_fixture_exact():
    assert transfer(FIXTURE) == 0.5
    assert avg(FIXTURE) == 0.875
    assert last(FIXTURE) == 1.0
    assert current_avg(FIXTURE) == 1.0


def test_constant_matrix_returns_constant():
    for c in (0.5, 0.7):
        m = np.full((4, 3), c)
        got = summaries(m)
        for name, value in got.items():
            if c == 0.5:
                assert value == c, name  # 0.5 averages exactly
            else:
                assert abs(value - c) < 1e-12, name


def test_transfer_reads_only_above_diagonal():
    # sentinel 0s on and below the diagonal and in row 0 must not leak in
    m = np.zeros((4, 3))
    m[1, 1] = 0.3  # model after task 1 on unseen task 2
    m[1, 2] = 0.6
    m[2, 2] = 0.9  # model after task 2 on unseen task 3
    # transfer = mean( mean(0.3), mean(0.6, 0.9) ) = mean(0.3, 0.75)
    assert abs(transfer(m) - 0.525) < 1e-15
    m2 = m.copy()
    m2[0] = 1.0  # row 0 (initial model) never counts
    m2[3, 0] = 1.0  # below diagonal never counts
    assert transfer(m2) == transfer(m)


def test_last_vs_avg_sensitivity():
    base = np.full((3, 2), 0.5)
    moved = base.copy()
    moved[2] = [0.9, 0.1]  # same mean, different final row layout
    assert avg(moved) == avg(base)
    assert last(moved) == last(base)
    moved[1] = [0.0, 0.0]
    assert avg(moved) < avg(base)
    assert last(moved) == last(base)


def test_summaries_within_bounds(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = rng.uniform(size=(n + 1, n))
        got = summaries(m)
        lo, hi = m[1:].min(), m[1:].max()
        for name, value in got.items():
            assert lo - 1e-12 <= value <= hi + 1e-12, name


def test_matrix_validation():
    with pytest.raises(ContractError, match=re.escape("accuracy matrix must be (N + 1) x N, got (3, 3)")):
        summaries(np.zeros((3, 3)))
    with pytest.raises(ContractError):
        summaries(np.full((3, 2), 1.5))
    with pytest.raises(ContractError):
        summaries(np.zeros((1, 0)))
    with pytest.raises(ContractError):
        transfer(np.full((2, 1), 0.5))  # single task has no unseen cells


class OracleModel:
    """Encodes images as their class one-hot direction; texts likewise."""

    def __init__(self, stream):
        classes = [c for task in stream.tasks for c in task.classes]
        ids = sorted(c.class_id for c in classes)
        self.means = {c.class_id: c.mean for c in classes}
        self.token_to_axis = {c.token_id: c.class_id for c in classes}
        self.n = len(ids)
        self.stream = stream

    def encode_images(self, x):
        x = np.asarray(x)
        out = np.zeros((x.shape[0], self.n))
        for i, row in enumerate(x):
            dists = {cid: np.linalg.norm(row - mean) for cid, mean in self.means.items()}
            out[i, min(dists, key=dists.get)] = 1.0
        return Tensor(out)

    def encode_texts(self, token_ids):
        out = np.zeros((len(token_ids), self.n))
        for i, t in enumerate(token_ids):
            out[i, self.token_to_axis[t]] = 1.0
        return Tensor(out)


def test_oracle_model_scores_one():
    stream = generate_stream(tiny_stream_config(noise_scale=0.05))
    oracle = OracleModel(stream)
    for task in stream.tasks:
        assert evaluate(oracle, task, evaluation_candidates(stream, 0, task)) == 1.0


def test_random_init_near_chance():
    stream = generate_stream(tiny_stream_config(classes_per_task=4, test_per_class=40))
    scores = []
    for seed in range(5):
        model = DualEncoder(seed, vocab_size=stream.vocab_size, d_in=stream.d_in, d_tok=8, hidden=16, embed_dim=8)
        scores.append(np.mean([evaluate(model, t, evaluation_candidates(stream, 0, t)) for t in stream.tasks]))
    assert abs(np.mean(scores) - 0.25) <= 0.1


def test_scaling_invariance():
    stream = generate_stream(tiny_stream_config())
    model = DualEncoder(3, vocab_size=stream.vocab_size, d_in=stream.d_in, d_tok=8, hidden=16, embed_dim=8)

    class Doubled:
        def encode_images(self, x):
            return Tensor(model.encode_images(x).data * 2.0)

        def encode_texts(self, token_ids):
            return Tensor(model.encode_texts(token_ids).data * 2.0)

    for task in stream.tasks:
        candidates = evaluation_candidates(stream, 0, task)
        assert evaluate(model, task, candidates) == evaluate(Doubled(), task, candidates)


def test_evaluate_candidate_handling():
    stream = generate_stream(tiny_stream_config(mode="class_incremental"))
    model = snapshot(DualEncoder(1, vocab_size=stream.vocab_size, d_in=stream.d_in, d_tok=8, hidden=16, embed_dim=8))
    task = stream.tasks[0]
    with pytest.raises(ContractError):
        evaluate(model, task, [])
    got = evaluate(model, task, seen_candidates(stream, 1))
    assert 0.0 <= got <= 1.0


def test_seen_and_evaluation_candidates():
    stream = generate_stream(tiny_stream_config(mode="class_incremental", n_tasks=3, classes_per_task=2))
    assert [c for c, _ in seen_candidates(stream, 2)] == [0, 1, 2, 3]
    with pytest.raises(ContractError):
        seen_candidates(stream, 0)

    # scoring ahead of training includes the evaluated task's classes
    ahead = evaluation_candidates(stream, model_row=1, task=stream.tasks[2])
    assert [c for c, _ in ahead] == [0, 1, 2, 3, 4, 5]
    behind = evaluation_candidates(stream, model_row=3, task=stream.tasks[0])
    assert [c for c, _ in behind] == [0, 1, 2, 3, 4, 5]

    md = generate_stream(tiny_stream_config())
    task = md.tasks[1]
    for row in (0, 1, 2):  # a multi-domain task is always scored on its own classes
        assert evaluation_candidates(md, model_row=row, task=task) == list(zip(task.class_ids, task.token_ids))


def test_empty_test_set_rejected():
    stream = generate_stream(tiny_stream_config())
    task = stream.tasks[0]
    task.test_x = np.zeros((0, stream.d_in))
    task.test_y = np.zeros(0, dtype=np.int64)
    oracle = OracleModel(stream)
    with pytest.raises(ContractError):
        evaluate(oracle, task, evaluation_candidates(stream, 0, task))


def test_metrics_document_structure():
    doc = metrics_document(FIXTURE)
    assert doc["matrix"] == FIXTURE
    assert doc["transfer"] == 0.5
    assert doc["avg"] == 0.875
    assert doc["last"] == 1.0
    assert doc["current_avg"] == 1.0
    assert doc["zero_shot_row"] == [0.5, 0.5]
    assert all(isinstance(v, float) for row in doc["matrix"] for v in row)
