"""Dual encoder: init, unit outputs, snapshots, flat params, checkpoints."""

import re

import numpy as np
import pytest

import mulki.tensor as T
import reference_ops as R
from mulki.encoder import (
    PARAM_ORDER,
    DualEncoder,
    load_checkpoint,
    load_flat,
    params_flat,
    snapshot,
    stack,
)
from mulki.errors import ContractError
from mulki.optim import AdamW
from mulki.tensor import Tensor


def make_model(seed=0, vocab_size=7, d_in=8, d_tok=6, hidden=10, embed_dim=5):
    return DualEncoder(seed, vocab_size=vocab_size, d_in=d_in, d_tok=d_tok, hidden=hidden, embed_dim=embed_dim)


def train_steps(model, rng, steps=5):
    opt = AdamW(model.parameters(), lr=0.05)
    for _ in range(steps):
        x = Tensor(rng.normal(size=(4, model.d_in)))
        target = Tensor(rng.normal(size=(4, model.embed_dim)))
        img = model.encode_images(x)
        txt = model.encode_texts([1, 2, 3, 1])
        loss = T.add(R.tsum(R.mul(img, target)), R.tsum(R.mul(txt, target)))
        opt.zero_grad()
        loss.backward()
        opt.step()


def test_init_deterministic():
    a, b = make_model(seed=3), make_model(seed=3)
    assert np.array_equal(params_flat(a), params_flat(b))
    c = make_model(seed=4)
    assert not np.array_equal(params_flat(a), params_flat(c))


def test_init_fan_in_bound():
    m = make_model()
    fan_in = {
        "img_w1": m.d_in, "img_b1": m.d_in,
        "img_w2": m.hidden, "img_b2": m.hidden,
        "token_table": m.d_tok,
        "txt_w1": m.d_tok, "txt_b1": m.d_tok,
        "txt_w2": m.hidden, "txt_b2": m.hidden,
    }
    for name in PARAM_ORDER:
        bound = 1.0 / np.sqrt(fan_in[name])
        assert np.max(np.abs(getattr(m, name).data)) <= bound, name


def test_encode_images_unit_rows(rng):
    m = make_model()
    out = m.encode_images(rng.normal(size=(9, m.d_in)))
    assert out.shape == (9, m.embed_dim)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


def test_encode_images_empty_batch():
    m = make_model()
    out = m.encode_images(np.zeros((0, m.d_in)))
    assert out.shape == (0, m.embed_dim)
    pair = stack([m, make_model(seed=4)])
    for x in (np.zeros((0, m.d_in)), np.zeros((2, 0, m.d_in))):  # images every seed sees, and each seed's own
        assert pair.encode_images(x).shape == (2, 0, m.embed_dim)


def test_encode_images_width_error():
    m = make_model()
    with pytest.raises(ContractError, match=re.escape(f"encode_images expects [B, {m.d_in}], got (2, {m.d_in + 1})")):
        m.encode_images(np.zeros((2, m.d_in + 1)))


def test_encode_texts_unit_rows():
    m = make_model()
    out = m.encode_texts([1, 2, 3])
    assert out.shape == (3, m.embed_dim)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


def test_encode_texts_empty():
    m = make_model()
    assert m.encode_texts([]).shape == (0, m.embed_dim)
    assert stack([m, make_model(seed=4)]).encode_texts([]).shape == (2, 0, m.embed_dim)


def test_encode_texts_unknown_token():
    m = make_model(vocab_size=4)
    with pytest.raises(ContractError, match="^token id 4 outside vocabulary of size 4$"):
        m.encode_texts([4])
    with pytest.raises(ContractError, match="^token id -1 outside vocabulary of size 4$"):
        m.encode_texts([-1])


def test_unknown_token_error_prints_its_message_unquoted():
    """The CLI prints `error: {exc}`; a KeyError's str() would wrap the message in quotes."""
    with pytest.raises(ContractError) as err:
        make_model(vocab_size=3).encode_texts([7])
    assert f"error: {err.value}" == "error: token id 7 outside vocabulary of size 3"


def test_snapshot_outputs_frozen_under_training(rng):
    m = make_model()
    frozen = snapshot(m)
    x = rng.normal(size=(5, m.d_in))
    before_img = frozen.encode_images(x).data.tobytes()
    before_txt = frozen.encode_texts([1, 2]).data.tobytes()

    train_steps(m, rng, steps=100)

    assert frozen.encode_images(x).data.tobytes() == before_img
    assert frozen.encode_texts([1, 2]).data.tobytes() == before_txt
    # and training actually moved the live model
    assert m.encode_images(x).data.tobytes() != before_img


def test_snapshot_matches_student_at_equal_params(rng):
    m = make_model()
    frozen = snapshot(m)
    x = rng.normal(size=(3, m.d_in))
    assert np.array_equal(frozen.encode_images(x).data, m.encode_images(x).data)
    assert frozen.encode_images(x).requires_grad is False
    assert m.encode_images(Tensor(x)).requires_grad is True


def test_snapshot_stack_round_trip(rng, monkeypatch):
    m, other = make_model(), make_model(seed=4)
    train_steps(m, rng, steps=3)
    frozen = snapshot(m)

    def no_init(*args, **kwargs):
        raise AssertionError("stack re-ran the seeded init")

    monkeypatch.setattr(DualEncoder, "__init__", no_init)
    pair = stack([frozen, other])
    assert np.array_equal(params_flat(pair), np.stack([params_flat(frozen), params_flat(other)]))
    assert pair.img_w1.data.flags.writeable and pair.img_w1.shape == (2, *m.img_w1.shape)
    assert (pair.seed, pair.dims) == ([m.seed, other.seed], m.dims)
    for index, model in enumerate((frozen, other)):
        alone = snapshot(pair, index)
        assert np.array_equal(params_flat(alone), params_flat(model))
        assert (alone.seed, alone.dims) == (model.seed, model.dims)


def test_params_flat_round_trip(rng):
    m = make_model()
    n = params_flat(m).size
    assert n == sum(p.size for p in m.parameters())
    vec = rng.normal(size=n)
    load_flat(m, vec)
    assert np.array_equal(params_flat(m), vec)


def test_parameters_are_views_of_one_buffer(rng):
    m = make_model()
    params = m.parameters()
    assert [getattr(m, name) for name in PARAM_ORDER] == list(params)
    flat = params.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.size == sum(p.size for p in params)
    assert all(np.shares_memory(p.data, flat) for p in params)
    assert not np.shares_memory(params_flat(m), flat)

    vec = rng.normal(size=flat.size)
    load_flat(m, vec)
    offset = 0
    for name in PARAM_ORDER:
        param = getattr(m, name)
        assert np.array_equal(param.data, vec[offset : offset + param.size].reshape(param.shape)), name
        offset += param.size


def test_snapshot_and_stack_own_their_buffers(rng):
    m = make_model()
    frozen = snapshot(m)
    copy = stack([frozen])
    assert type(frozen) is DualEncoder and type(copy) is DualEncoder
    buffers = [m.parameters().flat, frozen.parameters().flat, copy.parameters().flat]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert not frozen.parameters().flat.flags.writeable
    assert not any(p.data.flags.writeable or p.requires_grad for p in frozen.parameters())
    assert frozen.parameters().grad is None  # frozen: no gradient buffer
    assert not np.shares_memory(m.parameters().grad, copy.parameters().grad)
    assert all(p.requires_grad for p in copy.parameters())

    before = params_flat(frozen)
    train_steps(m, rng, steps=3)
    train_steps(copy, rng, steps=3)
    assert np.array_equal(params_flat(frozen), before)
    assert not np.array_equal(params_flat(m), before)
    assert not np.array_equal(params_flat(copy), before)


def test_load_flat_length_error():
    m = make_model()
    with pytest.raises(ContractError, match=re.escape(f"load_flat: expected {m.parameters().flat.size} values, got shape (3,)")):
        load_flat(m, np.zeros(3))


def test_load_flat_frozen_error():
    frozen = snapshot(make_model())
    before = params_flat(frozen)
    with pytest.raises(ContractError):
        load_flat(frozen, before + 1.0)
    assert np.array_equal(params_flat(frozen), before)


def test_load_flat_changes_encodings(rng):
    m = make_model()
    x = rng.normal(size=(3, m.d_in))
    before = m.encode_images(x).data.copy()
    load_flat(m, rng.normal(size=params_flat(m).size))
    assert not np.array_equal(m.encode_images(x).data, before)


def test_params_flat_tensor_matches_and_is_differentiable():
    from reference_ops import params_flat_tensor

    m = make_model()
    flat = params_flat_tensor(m)
    assert np.array_equal(flat.data, params_flat(m))
    assert flat.requires_grad
    R.tsum(R.mul(flat, flat)).backward()
    for p in m.parameters():
        assert p.grad is not None
        assert np.allclose(p.grad, 2.0 * p.data, atol=1e-12)


def test_checkpoint_round_trip(tmp_path, rng):
    m = make_model(seed=11)
    train_steps(m, rng, steps=2)
    path = tmp_path / "model.ckpt"
    from mulki.encoder import save_checkpoint

    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert np.array_equal(params_flat(back), params_flat(m))
    assert back.dims == m.dims

    # snapshots save identically, and re-saving is byte-stable
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(snapshot(m), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncated_error(tmp_path):
    from mulki.encoder import save_checkpoint

    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_checkpoint_version_error(tmp_path):
    import json
    import struct

    from mulki.encoder import save_checkpoint

    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw)
    manifest = json.loads(raw[4 : 4 + hlen])
    manifest["format_version"] = 999
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<I", len(header)) + header + raw[4 + hlen :])
    with pytest.raises(ContractError):
        load_checkpoint(path)
