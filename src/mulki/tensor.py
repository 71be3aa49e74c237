"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small dual encoder and its training losses:
generic ops (2-D matmul, elementwise arithmetic with limited numpy-style
broadcasting, reductions, stable softmax, row normalization) and fused
nodes for the chains the training loop builds every iteration:

  * linear(x, w, b)            x @ w + b
  * cosine_sim(a, b)           matmul(l2_normalize(a), transpose(l2_normalize(b)))
  * cosine_softmax(a, b, tau)  softmax(cosine_sim(a, b) / tau) along rows
  * soft_ce_mean(target, pred, weights, scale)
                               scale * mean(weights * -sum(target * log(max(pred, LOG_EPS))))

A fused node runs, forward and backward, the same numpy expressions as
the generic-op chain it replaces, in the same order and on arrays of the
same memory layout, so its value and every gradient it hands on are
bit-identical to the chain's (tests/reference_ops.py keeps the chains;
tests/test_fused_ops.py holds each node to its chain). Gradients a chain
would sum inside itself are summed in the chain's order before the one
`_accumulate` call per parent. The kernels they share (`cosine_forward`,
`cosine_backward`, `softmax_forward`, `softmax_backward`, `soft_ce_rows`,
`soft_ce_backward`, `row_terms_backward`, and `node` to put a result on
the tape) are public so that `losses` builds its fused terms from them.
Every value is a contiguous float64 numpy array.

Op outputs are never mutated after creation. The one sanctioned mutation
point in the package is leaf parameter storage, which optimizers rewrite
between tape builds; a graph never survives past the backward pass that
consumed it. Because of that, a tensor's unit-row normalization (the
forward value of `l2_normalize(t, axis=1)`) is computed once and kept on
the tensor (`unit_rows`), except for trainable leaves; every consumer
still runs its own backward through it.

Trainable leaves are views: `pack` copies a list of leaves into one flat
float64 buffer and makes each leaf's data the view of its slice, so a
model's parameters (`Leaves`) can be read, written and stepped as one
vector. Their storage still changes under them, which is why they stay
out of the unit-row memo.

Backward kernels hand per-row factors on as broadcast columns or scalars
and let the one element-wise product that consumes them broadcast: each
element gets the same product, so the same bits, as from a materialized
copy.

Gradients accumulate: calling backward twice without clearing `.grad`
adds the second pass on top of the first. Optimizers call `zero_grad`.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeMismatchError

LOG_EPS = 1e-12  # floor applied to probabilities before taking logs


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_unit")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._unit: UnitRows | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same data with no graph attached."""
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        buffers = GradTape._pass_buffers
        if buffers is not None:
            # pass buffers are only ever replaced, never written in place, so
            # the first contribution is kept without a copy
            key = id(self)
            prev = buffers.get(key)
            buffers[key] = np.asarray(g, dtype=np.float64) if prev is None else prev + g
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode pass seeded with d(self)/d(self) = 1. Scalar roots only.

        Each call is an independent pass whose results add into .grad, so
        calling twice on the same graph doubles leaf gradients. A constant
        root (nothing requires grad) is a no-op.
        """
        if self.data.shape != ():
            raise ContractError(f"backward() requires a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        GradTape.trace(self).run()

    # Operator sugar. Non-Tensor operands are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Leaves(tuple):
    """Leaf tensors whose data tile one flat float64 buffer, back to back in order.

    `flat` is that buffer: each leaf's data is the view of its slice, so
    writing `flat` writes every leaf, and reading it reads them all without
    a copy. Only `pack` makes one.
    """

    flat: np.ndarray


def pack(leaves) -> Leaves:
    """Copy `leaves`' values into one new flat buffer and make each leaf's data its slice.

    The leaves keep their values, shapes and identities; only their storage
    moves into the buffer.
    """
    leaves = Leaves(leaves)
    leaves.flat = np.concatenate([p.data.reshape(-1) for p in leaves]) if leaves else np.zeros(0)
    offset = 0
    for p in leaves:
        p.data = leaves.flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return leaves


class GradTape:
    """Topologically ordered record of the gradient-carrying nodes reachable from a root.

    Constants are left off the tape: no gradient ever reaches them. The
    order is a pure function of graph construction, so replaying the
    tape on identical inputs yields bitwise-identical gradients. While a
    pass runs, gradients flow through a pass-local buffer (keyed by node
    identity); at the end only leaves (nodes without a backward rule, such
    as parameters) get them flushed into .grad. .grad therefore only ever
    holds completed passes, repeated passes add up cleanly, and
    intermediate nodes never hold a .grad.
    """

    _pass_buffers: dict | None = None

    def __init__(self, nodes: list):
        self.nodes = nodes  # root last

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)

    def run(self) -> None:
        buffers: dict[int, np.ndarray] = {}
        GradTape._pass_buffers = buffers
        try:
            root = self.nodes[-1]
            buffers[id(root)] = np.ones_like(root.data)
            for node in reversed(self.nodes):
                g = buffers.get(id(node))
                if g is not None and node._backward is not None:
                    node._backward(g)
        finally:
            GradTape._pass_buffers = None
        for node in self.nodes:
            if node._backward is None:
                g = buffers.get(id(node))
                if g is not None:
                    node._accumulate(g)


def node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Wrap `data` as an op result; on the tape only if some parent requires grad.

    `backward(g)` receives the gradient of the result and calls
    `_accumulate` on each parent that requires grad.
    """
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"add: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"sub: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"mul: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return node(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return node(data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeMismatchError(f"transpose needs a 2-D tensor, got {a.shape}")
    data = a.data.T.copy()

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return node(data, (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return node(data, (a,), backward)


def sum_sq_diff(parts, ref: np.ndarray) -> Tensor:
    """||concat(flatten(parts)) - ref||^2 as one node; `ref` is a constant.

    `Leaves` are read straight from their flat buffer; other parts are
    concatenated. The backward pass hands each part its slice of
    2 * g * (theta - ref), so a list of parameter leaves gets one
    contribution each without any intermediate reshape or concatenation
    nodes on the tape.
    """
    if not parts:
        raise ContractError("sum_sq_diff needs at least one tensor")
    ref = _as_array(ref)
    flat = parts.flat if isinstance(parts, Leaves) else np.concatenate([p.data.reshape(-1) for p in parts])
    if flat.shape != ref.shape:
        raise ShapeMismatchError(f"sum_sq_diff: {flat.shape} vs {ref.shape}")
    diff = flat - ref
    data = (diff * diff).sum()

    def backward(g):
        grad = 2.0 * (g * diff)  # exactly (g * diff) + (g * diff), the product rule's two terms
        offset = 0
        for p in parts:
            if p.requires_grad:
                p._accumulate(grad[offset : offset + p.size].reshape(p.shape))
            offset += p.size

    return node(data, tuple(parts), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return node(data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return node(data, (a,), backward)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ContractError("mean of an empty tensor")
    n = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# normalizations


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Stable softmax values along `axis` (max-subtracted before exponentiation)."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)  # x.max without its Python wrapper
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of the softmax input, given output `y` and its gradient `g`."""
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - inner)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis`."""
    data = softmax_forward(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(softmax_backward(g, data, axis))

    return node(data, (a,), backward)


def _normalized(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    if (norms == 0.0).any():
        raise DegenerateInputError("l2_normalize: zero-norm slice")
    return x / norms, norms


def _normalized_backward(g: np.ndarray, unit: np.ndarray, norms: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * unit).sum(axis=axis, keepdims=True)
    return (g - unit * inner) / norms


def l2_normalize(a: Tensor, axis: int) -> Tensor:
    """Scale slices along `axis` to unit Euclidean norm; zero slices error."""
    data, norms = _normalized(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_normalized_backward(g, data, norms, axis))

    return node(data, (a,), backward)


class UnitRows:
    """Forward value of `l2_normalize(t, axis=1)` for a 2-D tensor `t`.

    `data` holds the unit rows and `norms` the [n, 1] row norms. `t` is
    `data.T` as the C-contiguous copy a transpose node would hold, made on
    first use. `grad` is l2_normalize's backward through these rows.
    """

    __slots__ = ("data", "norms", "_t")

    def __init__(self, x: np.ndarray):
        self.data, self.norms = _normalized(x, 1)
        self._t: np.ndarray | None = None

    @property
    def t(self) -> np.ndarray:
        if self._t is None:
            self._t = self.data.T.copy()
        return self._t

    def grad(self, g: np.ndarray) -> np.ndarray:
        return _normalized_backward(g, self.data, self.norms, 1)

    def take(self, idx) -> "UnitRows":
        """Rows `idx`: each row is normalized on its own, so this equals normalizing those rows afresh."""
        out = UnitRows.__new__(UnitRows)
        out.data, out.norms, out._t = self.data[idx], self.norms[idx], None
        return out


def unit_rows(a: Tensor) -> UnitRows:
    """`a`'s row normalization, computed on first use and kept on `a`.

    Not kept on trainable leaves (requires_grad, no backward): optimizers
    rewrite their storage in place.
    """
    unit = a._unit
    if unit is None:
        unit = UnitRows(a.data)
        if a._backward is not None or not a.requires_grad:
            a._unit = unit
    return unit


def take_rows(a: Tensor, idx) -> Tensor:
    """Rows `idx` of the constant `a`, carrying the matching rows of `a`'s kept normalization."""
    out = Tensor(a.data[idx])
    out._unit = unit_rows(a).take(idx)
    return out


# ---------------------------------------------------------------------------
# fused nodes (see the module docstring for their contract)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for [n, i] x, [i, o] w and a bias broadcast over rows, as one node."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeMismatchError(f"linear needs 2-D x and w, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear: inner dims differ, {x.shape} @ {w.shape}")
    product = x.data @ w.data
    try:
        data = product + b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"linear: bias {b.shape} vs {product.shape}") from exc

    def backward(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return node(data, (x, w, b), backward)


def cosine_forward(a: Tensor, b: Tensor) -> tuple[UnitRows, UnitRows, np.ndarray]:
    """(unit rows of a, unit rows of b, [m, n] row cosines) for [m, d] a and [n, d] b. Zero rows raise."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(f"cosine_sim needs 2-D inputs, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatchError(f"cosine_sim: feature dims differ, {a.shape} vs {b.shape}")
    ua, ub = unit_rows(a), unit_rows(b)
    return ua, ub, ua.data @ ub.t


def cosine_backward(g: np.ndarray, a: Tensor, b: Tensor, ua: UnitRows, ub: UnitRows) -> None:
    """Hand the gradient `g` of the cosine matrix to a, then to b."""
    if a.requires_grad:
        a._accumulate(ua.grad(g @ ub.t.T))
    if b.requires_grad:
        b._accumulate(ub.grad((ua.data.T @ g).T))


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """The [m, n] cosine similarities of every row pair of [m, d] a and [n, d] b."""
    ua, ub, data = cosine_forward(a, b)

    def backward(g):
        cosine_backward(g, a, b, ua, ub)

    return node(data, (a, b), backward)


def cosine_softmax(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Rows of softmax(cosine_sim(a, b) / tau): one distribution over b's rows per row of a."""
    ua, ub, sims = cosine_forward(a, b)
    c = float(1.0 / tau)
    data = softmax_forward(sims * c, 1)

    def backward(g):
        cosine_backward(softmax_backward(g, data, 1) * c, a, b, ua, ub)

    return node(data, (a, b), backward)


def soft_ce_rows(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """-sum(target * log(max(pred, LOG_EPS))) along the last axis of 2-D arrays."""
    return (-target * np.log(np.maximum(pred, LOG_EPS))).sum(axis=1)


def row_terms_backward(g_sum, weights: np.ndarray | None = None):
    """Gradient of every entry of an [n, k] array `m`, given the gradient
    `g_sum` of sum(weights * m.sum(axis=1)): `g_sum` itself without
    weights, else an [n, 1] column. Either broadcasts over `m`."""
    if weights is None:
        return g_sum
    return (g_sum * weights)[:, None]


def soft_ce_backward(g_sum, target: np.ndarray, pred: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Gradient of `pred` given the gradient `g_sum` of sum(weights * soft_ce_rows(target, pred)).

    No gradient passes where `pred` sits at or below the LOG_EPS floor.
    """
    return row_terms_backward(g_sum, weights) * -target / np.maximum(pred, LOG_EPS) * (pred > LOG_EPS)


def soft_ce_mean(
    target: Tensor,
    pred: Tensor,
    weights: Tensor | None = None,
    scale: float = 1.0,
    rows: np.ndarray | None = None,
) -> Tensor:
    """scale * mean over rows of weights * soft_ce_rows(target, pred), as one node.

    `target` and the per-row `weights` are constants: no gradient flows
    into them. `rows` may carry `soft_ce_rows(target.data, pred.data)`
    when the caller has it already.
    """
    if target.shape != pred.shape:
        raise ShapeMismatchError(f"soft_ce_mean: {target.shape} vs {pred.shape}")
    if pred.ndim != 2:
        raise ShapeMismatchError(f"soft_ce_mean needs 2-D input, got {pred.shape}")
    if pred.shape[0] == 0:
        raise ContractError("soft_ce_mean of an empty batch")
    w = None
    if weights is not None:
        if weights.requires_grad:
            raise ContractError("soft_ce_mean: weights must be constants")
        if weights.shape != pred.shape[:1]:
            raise ShapeMismatchError(f"soft_ce_mean: {pred.shape[0]} rows but weights {weights.shape}")
        w = weights.data
    if rows is None:
        rows = soft_ce_rows(target.data, pred.data)
    c = float(1.0 / rows.size)
    s = float(scale)
    data = (rows if w is None else rows * w).sum() * c * s

    def backward(g):
        if pred.requires_grad:
            pred._accumulate(soft_ce_backward(g * s * c, target.data, pred.data, w))

    return node(data, (pred,), backward)
