"""A toy dual encoder: images and class texts meet in a shared unit sphere.

The image tower is a one-hidden-layer tanh MLP over abstract feature
vectors. The text tower embeds a (class token, template token) pair by
averaging the two rows of a token table and passing the result through
its own tanh MLP. Both towers L2-normalize their outputs, so cosine
similarity is a plain dot product downstream.

Token id 0 is reserved for the shared template token; class tokens
start at 1.

Each tower is one tape node (`tower`) whose backward runs the generic-op
chain's numpy expressions in order (tests/reference_ops.py), so
encodings and gradients are the chain's bits; it hands each parameter
(a leaf, off the tape) its gradient directly.

All nine parameters are views into one float64 buffer in PARAM_ORDER
(`tensor.pack`), their gradients into one gradient buffer of the same
layout: `params_flat` copies the buffer, `load_flat` assigns into it, and
the optimizer and drift penalty step them directly. A snapshot
(`snapshot`) is a frozen DualEncoder with a read-only buffer of its own
(of a frozen model, a view) and no gradient buffer. A stack (`stack`) is
one trainable DualEncoder for S >= 1 models in lockstep: every parameter
gains a leading seed axis, the buffers are [S, P], and the towers map
[S, B, d_in] images (or [B, d_in] ones every seed sees) to [S, B,
embed_dim]; `snapshot(stack)` freezes the whole stack, `snapshot(stack, s)`
seed s's model alone.
"""

from __future__ import annotations

import copy

import numpy as np

from . import tensor as T
from .errors import ContractError
from .jsonutil import is_count, read_framed, write_framed
from .tensor import Tensor

TEMPLATE_TOKEN = 0

# Flat serialization order. Bump the version if this list ever changes.
PARAM_ORDER = (
    "img_w1",
    "img_b1",
    "img_w2",
    "img_b2",
    "token_table",
    "txt_w1",
    "txt_b1",
    "txt_w2",
    "txt_b2",
)
PARAM_ORDERING_VERSION = 1

CHECKPOINT_FORMAT_VERSION = 1


def _init_param(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def tower(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, table: Tensor | None = None) -> Tensor:
    """l2_normalize(tanh(e @ w1 + b1) @ w2 + b2, axis=-1) as one node, where e is x @ table, or x without a table.

    The weights are one model's parameters (a stack's, each with a leading
    seed axis): all trainable or all frozen. Only the image tower's input
    `x` may carry a gradient; the text tower's `x` is its constant token
    picker.
    """
    emb = x.data if table is None else x.data @ table.data
    hidden = np.tanh(emb @ w1.data + b1.data[..., None, :])
    unit = T.UnitRows(hidden @ w2.data + b2.data[..., None, :])

    def backward(g):
        g_out = unit.grad(g)
        b2._accumulate(np.add.reduce(g_out, axis=-2))
        w2._accumulate(hidden.swapaxes(-1, -2) @ g_out)
        g_pre = (g_out @ w2.data.swapaxes(-1, -2)) * (1.0 - hidden * hidden)
        b1._accumulate(np.add.reduce(g_pre, axis=-2))
        w1._accumulate(emb.swapaxes(-1, -2) @ g_pre)
        if table is not None:
            table._accumulate(x.data.swapaxes(-1, -2) @ (g_pre @ w1.data.swapaxes(-1, -2)))
        elif x.requires_grad:
            x._accumulate(g_pre @ w1.data.swapaxes(-1, -2))

    return T.node(unit.data, (x, w1, b1, w2, b2) if table is None else (table, w1, b1, w2, b2), backward)


class DualEncoder:
    """Trainable dual encoder with deterministic seeded initialization."""

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        d_in: int = 32,
        d_tok: int = 16,
        hidden: int = 64,
        embed_dim: int = 16,
    ):
        if vocab_size < 1:
            raise ContractError(f"vocab_size must be positive, got {vocab_size}")
        self.seed = int(seed)
        self.vocab_size = int(vocab_size)
        self.d_in = int(d_in)
        self.d_tok = int(d_tok)
        self.hidden = int(hidden)
        self.embed_dim = int(embed_dim)
        self._picker: tuple = (None, None)  # the last (token ids, picker), for the next call

        rng = np.random.default_rng(self.seed)
        self.img_w1 = _init_param(rng, (d_in, hidden), d_in)
        self.img_b1 = _init_param(rng, (hidden,), d_in)
        self.img_w2 = _init_param(rng, (hidden, embed_dim), hidden)
        self.img_b2 = _init_param(rng, (embed_dim,), hidden)
        self.token_table = _init_param(rng, (vocab_size, d_tok), d_tok)
        self.txt_w1 = _init_param(rng, (d_tok, hidden), d_tok)
        self.txt_b1 = _init_param(rng, (hidden,), d_tok)
        self.txt_w2 = _init_param(rng, (hidden, embed_dim), hidden)
        self.txt_b2 = _init_param(rng, (embed_dim,), hidden)
        self._bind(T.pack([getattr(self, name) for name in PARAM_ORDER]))

    def _bind(self, params: T.Leaves) -> None:
        self._params = params
        for name, param in zip(PARAM_ORDER, params):
            setattr(self, name, param)

    @property
    def dims(self) -> dict:
        return {name: getattr(self, name) for name in ("vocab_size", "d_in", "d_tok", "hidden", "embed_dim")}

    def parameters(self) -> T.Leaves:
        """The parameter leaves in PARAM_ORDER; `.flat` is the buffer they tile."""
        return self._params

    def encode_images(self, x) -> Tensor:
        """Map [B, d_in] inputs (a stack's also [S, B, d_in]) to unit-norm [..., B, embed_dim] embeddings."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim not in (2, self._params.flat.ndim + 1) or x.shape[-1] != self.d_in:
            raise ContractError(f"encode_images expects [B, {self.d_in}], got {x.shape}")
        return tower(x, self.img_w1, self.img_b1, self.img_w2, self.img_b2)

    def encode_texts(self, token_ids) -> Tensor:
        """Map class token ids to unit-norm [K, embed_dim] embeddings (a stack's [S, K, embed_dim]).

        Each class's input is the average of its token row and the shared
        template row of the token table. The last class list's checked
        picker is kept, so a trainer's repeated list is checked once.
        """
        key = tuple(token_ids)
        if key != self._picker[0]:
            ids = [int(t) for t in key]
            for t in ids:
                if t < 0 or t >= self.vocab_size:
                    raise ContractError(f"token id {t} outside vocabulary of size {self.vocab_size}")
            rows = np.zeros((len(ids), self.vocab_size))
            for row, t in enumerate(ids):
                rows[row, t] += 0.5
                rows[row, TEMPLATE_TOKEN] += 0.5
            self._picker = (key, Tensor(rows))
        return tower(self._picker[1], self.txt_w1, self.txt_b1, self.txt_w2, self.txt_b2, table=self.token_table)


def stack(models: list) -> DualEncoder:
    """One trainable DualEncoder for `models` in lockstep: slice s of each
    parameter (and row s of the [S, P] buffers) is models[s]'s, and `seed`
    lists their seeds. A single seed is a stack of one."""
    twin = copy.copy(models[0])
    twin.seed = [m.seed for m in models]
    leaves = [np.array([getattr(m, name).data for m in models]) for name in PARAM_ORDER]
    twin._bind(T.pack([Tensor(leaf, requires_grad=True) for leaf in leaves], (len(models),)))
    return twin


def snapshot(model: DualEncoder, index: int | None = None) -> DualEncoder:
    """A frozen copy of `model`, or with `index` of that seed's model in a stack: a DualEncoder whose
    parameters sit in a read-only buffer of its own, with no gradient buffer, so everything it encodes
    is detached and later training of `model` does not reach it; of a frozen `model`, a view of its buffer."""
    frozen, lead, pick = copy.copy(model), model.parameters().flat.shape[:-1], slice(None)
    if index is not None:
        frozen.seed, lead, pick = model.seed[index], (), index
    source = model.parameters()
    if source.flat.flags.writeable:
        params = T.pack([Tensor(p.data[pick]) for p in source], lead)
        for array in (params.flat, *(p.data for p in params)):
            array.flags.writeable = False
    else:
        params = T.Leaves(Tensor(p.data[pick]) for p in source)
        params.flat, params.grad = source.flat[pick], None
    frozen._bind(params)
    return frozen


def params_flat(model: DualEncoder) -> np.ndarray:
    """All parameters as one float64 vector in PARAM_ORDER, row-major: a copy of the model's buffer."""
    return model.parameters().flat.copy()


def load_flat(model: DualEncoder, vector: np.ndarray) -> None:
    """Write a flat vector into the model's parameter buffer (and so into every parameter)."""
    flat = model.parameters().flat
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != flat.shape:
        raise ContractError(f"load_flat: expected {flat.size} values, got shape {vector.shape}")
    if not flat.flags.writeable:
        raise ContractError("load_flat: target parameters are frozen")
    flat[...] = vector


def save_checkpoint(model: DualEncoder, path) -> None:
    """Write a checkpoint: a framed file (`jsonutil.write_framed`) whose
    manifest holds the versions, dims, seed and parameter count, and whose
    payload is the flat parameter vector in PARAM_ORDER. Round trips are
    bit-exact.
    """
    vector = params_flat(model)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "param_ordering_version": PARAM_ORDERING_VERSION,
        "dims": model.dims,
        "seed": model.seed,
        "count": int(vector.size),
    }
    write_framed(path, manifest, [vector])


def load_checkpoint(path) -> DualEncoder:
    """Reconstruct a trainable DualEncoder from a checkpoint file.

    A malformed file of any kind - truncation, an undecodable or non-object
    header, another format or parameter-ordering version, a missing or
    ill-typed "count"/"seed"/"dims", a non-finite parameter, or a payload
    that disagrees with its manifest - raises ContractError.
    """
    manifest, arrays = read_framed(path, "checkpoint")
    for key, want in (("format_version", CHECKPOINT_FORMAT_VERSION), ("param_ordering_version", PARAM_ORDERING_VERSION)):
        if type(manifest.get(key)) is not int or manifest[key] != want:
            raise ContractError(f"checkpoint {path}: unsupported {key} {manifest.get(key)!r}")
    for key in ("count", "seed", "dims"):
        if key not in manifest:
            raise ContractError(f"checkpoint {path}: header lacks {key!r}")
    for key in ("count", "seed"):
        if not is_count(manifest[key]):
            raise ContractError(f"checkpoint {path}: {key} must be an integer in [0, 2**63), got {manifest[key]!r}")
    dims = manifest["dims"]
    if not isinstance(dims, dict) or not all(is_count(v) and v > 0 for v in dims.values()):
        raise ContractError(f"checkpoint {path}: dims must map names to positive integers, got {dims!r}")
    (vector,) = arrays([("params", np.float64, (manifest["count"],))])
    try:
        model = DualEncoder(manifest["seed"], **dims)
        load_flat(model, vector)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"checkpoint {path}: manifest does not describe its payload ({exc})") from exc
    return model
