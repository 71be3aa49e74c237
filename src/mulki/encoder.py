"""A toy dual encoder: images and class texts meet in a shared unit sphere.

The image tower is a one-hidden-layer tanh MLP over abstract feature
vectors. The text tower embeds a (class token, template token) pair by
averaging the two rows of a token table and passing the result through
its own tanh MLP. Both towers L2-normalize their outputs, so cosine
similarity is a plain dot product downstream.

Token id 0 is reserved for the shared template token; class tokens
start at 1.

Each tower is one tape node (`tower`): its backward runs the generic-op
chain's numpy expressions in the chain's order (tests/reference_ops.py
`encode_images`, `encode_texts`), so the encodings and the parameter
gradients are the chain's bits, and it hands each parameter its gradient
directly, as parameters are leaves and stay off the tape.

All nine parameters live in one contiguous float64 buffer in PARAM_ORDER
(`tensor.pack`), and each parameter leaf is a view of its slice; their
gradients land in one flat gradient buffer of the same layout. So
`params_flat` is one copy of the buffer, `load_flat` one assignment into
it, and the optimizer and the drift penalty read and step the buffers
directly. A snapshot (`snapshot`) is a DualEncoder too: a frozen copy
with a read-only buffer of its own and no gradient buffer, which
`load_flat` refuses. `trainable_copy` gives a model buffers of its own
again.
"""

from __future__ import annotations

import copy

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeMismatchError, UnknownTokenError
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
    """l2_normalize(tanh(e @ w1 + b1) @ w2 + b2, axis=1) as one node, where e is x @ table, or x without a table.

    The weights are one model's parameters: all trainable or all frozen.
    Only the image tower's input `x` may carry a gradient; the text
    tower's `x` is its constant token picker.
    """
    emb = x.data if table is None else x.data @ table.data
    hidden = np.tanh(emb @ w1.data + b1.data)
    unit = T.UnitRows(hidden @ w2.data + b2.data)

    def backward(g):
        g_out = unit.grad(g)
        b2._accumulate(np.add.reduce(g_out, axis=0))
        w2._accumulate(hidden.T @ g_out)
        g_pre = (g_out @ w2.data.T) * (1.0 - hidden * hidden)
        b1._accumulate(np.add.reduce(g_pre, axis=0))
        w1._accumulate(emb.T @ g_pre)
        if table is not None:
            table._accumulate(x.data.T @ (g_pre @ w1.data.T))
        elif x.requires_grad:
            x._accumulate(g_pre @ w1.data.T)

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
        return {
            "vocab_size": self.vocab_size,
            "d_in": self.d_in,
            "d_tok": self.d_tok,
            "hidden": self.hidden,
            "embed_dim": self.embed_dim,
        }

    def parameters(self) -> T.Leaves:
        """The parameter leaves in PARAM_ORDER; `.flat` is the buffer they tile."""
        return self._params

    def encode_images(self, x) -> Tensor:
        """Map [B, d_in] inputs to unit-norm [B, embed_dim] embeddings."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeMismatchError(f"encode_images expects [B, {self.d_in}], got {x.shape}")
        if x.shape[0] == 0:
            return Tensor(np.zeros((0, self.embed_dim)))
        return tower(x, self.img_w1, self.img_b1, self.img_w2, self.img_b2)

    def encode_texts(self, token_ids) -> Tensor:
        """Map class token ids to unit-norm [K, embed_dim] embeddings.

        Each class's input is the average of its token row and the shared
        template row of the token table.
        """
        ids = [int(t) for t in token_ids]
        for t in ids:
            if t < 0 or t >= self.vocab_size:
                raise UnknownTokenError(f"token id {t} outside vocabulary of size {self.vocab_size}")
        if not ids:
            return Tensor(np.zeros((0, self.embed_dim)))
        picker = np.zeros((len(ids), self.vocab_size))
        for row, t in enumerate(ids):
            picker[row, t] += 0.5
            picker[row, TEMPLATE_TOKEN] += 0.5
        return tower(Tensor(picker), self.txt_w1, self.txt_b1, self.txt_w2, self.txt_b2, table=self.token_table)

    def trainable_copy(self) -> "DualEncoder":
        """A trainable copy with parameter and gradient buffers of its own, holding this model's exact parameters."""
        twin = copy.copy(self)
        twin._bind(T.pack([Tensor(p.data, requires_grad=True) for p in self._params]))
        return twin


def snapshot(model: DualEncoder) -> DualEncoder:
    """A frozen copy of `model`: a DualEncoder whose parameters sit in a
    read-only buffer of its own, with no gradient buffer, so everything it
    encodes is detached by construction and later training of `model` does
    not reach it.
    """
    frozen = copy.copy(model)
    params = T.pack([Tensor(p.data) for p in model.parameters()])
    for array in (params.flat, *(p.data for p in params)):
        array.flags.writeable = False
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
        raise ShapeMismatchError(f"load_flat: expected {flat.size} values, got shape {vector.shape}")
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
    manifest, arrays = read_framed(path, ContractError, "checkpoint")
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
