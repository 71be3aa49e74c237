"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small dual encoder and its training losses:
2-D matmul, elementwise arithmetic with limited numpy-style broadcasting,
reductions, stable softmax, row normalization, and a few composite helpers
(cosine similarity, soft cross-entropy, Frobenius norm). Every value is a
contiguous float64 numpy array.

Op outputs are never mutated after creation. The one sanctioned mutation
point in the package is leaf parameter storage, which optimizers rewrite
between tape builds; a graph never survives past the backward pass that
consumed it.

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
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None

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
            key = id(self)
            if key in buffers:
                buffers[key] = buffers[key] + g
            else:
                buffers[key] = np.array(g, dtype=np.float64)
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


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
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

    return _result(data, (a, b), backward)


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

    return _result(data, (a, b), backward)


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

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _result(data, (a,), backward)


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

    return _result(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeMismatchError(f"transpose needs a 2-D tensor, got {a.shape}")
    data = a.data.T.copy()

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _result(data, (a,), backward)


def concat1d(parts: list) -> Tensor:
    """Concatenate 1-D tensors; gradient is sliced back to each part."""
    if not parts:
        raise ContractError("concat1d needs at least one tensor")
    for p in parts:
        if p.ndim != 1:
            raise ShapeMismatchError(f"concat1d needs 1-D parts, got {p.shape}")
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.size for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[lo:hi])

    return _result(data, tuple(parts), backward)


def sum_sq_diff(parts: list, ref: np.ndarray) -> Tensor:
    """||concat(flatten(parts)) - ref||^2 as one node; `ref` is a constant.

    The backward pass hands each part its slice of 2 * g * (theta - ref),
    so a list of parameter leaves gets one contribution each without any
    intermediate reshape or concatenation nodes on the tape.
    """
    if not parts:
        raise ContractError("sum_sq_diff needs at least one tensor")
    ref = _as_array(ref)
    flat = np.concatenate([p.data.reshape(-1) for p in parts])
    if flat.shape != ref.shape:
        raise ShapeMismatchError(f"sum_sq_diff: {flat.shape} vs {ref.shape}")
    diff = flat - ref
    data = (diff * diff).sum()
    offsets = np.cumsum([0] + [p.size for p in parts])

    def backward(g):
        grad = 2.0 * (g * diff)  # exactly (g * diff) + (g * diff), the product rule's two terms
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(grad[lo:hi].reshape(p.shape))

    return _result(data, tuple(parts), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _result(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _result(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root.

    At exactly zero the derivative is unbounded; this op uses the zero
    subgradient there so norms of all-zero differences backpropagate
    cleanly instead of producing NaN.
    """
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            mask = a.data > 0.0
            safe = np.where(mask, data, 1.0)
            a._accumulate(np.where(mask, g * 0.5 / safe, 0.0))

    return _result(data, (a,), backward)


def maximum_scalar(a: Tensor, floor: float) -> Tensor:
    """Clamp from below by a constant; gradient passes only above the floor."""
    floor = float(floor)
    data = np.maximum(a.data, floor)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))

    return _result(data, (a,), backward)


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

    return _result(data, (a,), backward)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ContractError("mean of an empty tensor")
    n = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# normalizations


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis` (max-subtracted before exponentiation)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - inner))

    return _result(data, (a,), backward)


def l2_normalize(a: Tensor, axis: int) -> Tensor:
    """Scale slices along `axis` to unit Euclidean norm; zero slices error."""
    norms = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("l2_normalize: zero-norm slice")
    data = a.data / norms

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate((g - data * inner) / norms)

    return _result(data, (a,), backward)


# ---------------------------------------------------------------------------
# composite helpers


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity.

    1-D inputs give a scalar; 2-D inputs of shapes [m, d] and [n, d] give
    the [m, n] matrix of all row pairs. Zero rows raise.
    """
    if a.ndim == 1 and b.ndim == 1:
        if a.shape != b.shape:
            raise ShapeMismatchError(f"cosine_sim: {a.shape} vs {b.shape}")
        return tsum(mul(l2_normalize(a, axis=0), l2_normalize(b, axis=0)))
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[1]:
            raise ShapeMismatchError(f"cosine_sim: feature dims differ, {a.shape} vs {b.shape}")
        return matmul(l2_normalize(a, axis=1), transpose(l2_normalize(b, axis=1)))
    raise ShapeMismatchError(f"cosine_sim: unsupported ranks {a.ndim} and {b.ndim}")


def soft_cross_entropy(target: Tensor, pred: Tensor) -> Tensor:
    """-sum(target * log(pred)) along the last axis.

    `target` is treated as a constant: no gradient ever flows into it.
    Probabilities are floored at LOG_EPS before the log. Returns a scalar
    for 1-D inputs, a per-row vector for 2-D inputs.
    """
    if target.shape != pred.shape:
        raise ShapeMismatchError(f"soft_cross_entropy: {target.shape} vs {pred.shape}")
    if pred.ndim not in (1, 2):
        raise ShapeMismatchError(f"soft_cross_entropy needs 1-D or 2-D input, got {pred.shape}")
    weights = Tensor(-target.data)  # constant copy: target carries no gradient
    logp = log(maximum_scalar(pred, LOG_EPS))
    prod = mul(weights, logp)
    return tsum(prod) if pred.ndim == 1 else tsum(prod, axis=1)


def frobenius_norm(a: Tensor) -> Tensor:
    """sqrt of the sum of squared entries (zero subgradient at zero)."""
    return sqrt(tsum(mul(a, a)))
