"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small dual encoder and its training losses:
`add` and `scale`, the drift penalty `sum_sq_diff`, and fused nodes for
the chains the training loop builds every iteration:

  * cosine_sim(a, b)           matmul(l2_normalize(a), transpose(l2_normalize(b)))
  * cosine_softmax(a, b, tau)  softmax(cosine_sim(a, b) / tau) along rows
  * soft_ce_mean(target, pred, weights, scale)
                               scale * mean(weights * -sum(target * log(max(pred, LOG_EPS))))

(`encoder.tower` is the fourth: each encoder tower as one node.) A fused
node runs, forward and backward, the numpy expressions of the generic-op
chain it replaces, in the chain's order and on arrays of the same memory
layout, so its value and every gradient it hands on are the chain's bits
(tests/reference_ops.py keeps the chains; tests/test_fused_ops.py holds
each node to its chain). Gradients a chain would sum inside itself are
summed in its order before the one `_accumulate` call per parent. The
kernels the nodes share (`cosine_forward`/`_backward`, `softmax_forward`/
`_backward`, `soft_ce_rows`, `soft_ce_backward`, `row_terms_backward`,
`UnitRows`, `row_dots`, and `node` to put a result on the tape) are
public. Every value is a contiguous float64 numpy array.

Op outputs are never mutated; optimizers rewrite leaf parameter storage
between tape builds, and a graph never outlives its backward pass. So a
tensor's unit-row normalization is computed once and kept on it
(`unit_rows`), except on trainable leaves.

`pack` copies leaves into one flat float64 buffer and makes each leaf's
data the view of its slice, so a model's parameters (`Leaves`) are read,
written and stepped as one vector; when some leaf requires grad, each
leaf's `.grad` is the view of its slice (its lanes) of one flat gradient
buffer of the same layout.

The tape holds op nodes only; leaves stay off it. Each tape node keeps
its gradient in a slot of its own that the pass clears once consumed. A
leaf's gradient goes straight into its `.grad`: the first contribution
is assigned, later ones added in the order the tape hands them on, so
gradients accumulate across backward passes until `zero_grad`. Backward
kernels hand per-row factors on as broadcast columns or scalars; each
element gets the same product, so the same bits, as from a copy.

A stack of S seeds trained in lockstep (S = 1 for a single seed) adds a
leading seed axis: its parameters are [S, ...] views of one [S, P] buffer
(`pack(leaves, (S,))`), its batches [S, B, d], its losses [S]. The fused
nodes work over the last two axes, so each slice of a stacked call runs
the kernels of a 2-D call on arrays of the same layout (matmul calls gemm
per slice, reductions run along each slice alike): every seed gets the
bits of its own 2-D run. `sum_seeds` makes the [S] losses one scalar root.

`losses.mdd_loss` adds a teacher axis in front, [T, S, B, d]: a matmul
against [S, ...] broadcasts over it, still one gemm per slice. A node's
gradient sums its contributions in the order `_accumulate` gets them, so
a node that fuses several consumers of one input hands their parts on
one call each, in the order the tape ran those consumers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_unit", "_g", "_lane")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._unit: UnitRows | None = None
        self._g: np.ndarray | None = None  # a tape node's gradient in the running pass
        self._lane: np.ndarray | None = None  # a packed leaf's slice of the gradient buffer

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

    def _accumulate(self, g: np.ndarray) -> None:
        if self._backward is not None:
            # pass gradients are only ever replaced, never written in place, so
            # the first contribution is kept without a copy
            prev = self._g
            self._g = np.asarray(g, dtype=np.float64) if prev is None else prev + g
        elif self.grad is None:
            grad = np.empty_like(self.data) if self._lane is None else self._lane
            grad[...] = g
            self.grad = grad
        else:
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

    # Operator sugar. Non-Tensor operands of + are wrapped as constants; * takes a number.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Leaves(tuple):
    """Leaf tensors whose data tile one flat float64 buffer, back to back in order.

    `flat` is that buffer ([S, P] for a stack of S models, each leaf's data
    then [S, ...]): each leaf's data is the view of its slice, so
    writing `flat` writes every leaf, and reading it reads them all without
    a copy. `grad` is the flat gradient buffer of the same layout, or None
    when no leaf requires grad (a frozen copy). `pack` makes one; `encoder.snapshot` views a frozen one.
    """

    flat: np.ndarray
    grad: np.ndarray | None

    def flat_grad(self) -> np.ndarray:
        """The gradient buffer with each leaf's .grad in its lanes.

        Backward passes write there already; a .grad assigned by hand is
        copied in. The lanes of a leaf whose .grad is None hold whatever
        an earlier pass left.
        """
        for p in self:
            if p.grad is not None and p.grad is not p._lane:
                p._lane[...] = p.grad
        return self.grad


def pack(leaves, lead: tuple = ()) -> Leaves:
    """Copy `leaves`' values into one new flat buffer and make each leaf's data its slice.

    `lead` is the shape of leading axes every leaf shares (a stack's seed
    axis), so the buffer is [*lead, P]. The leaves keep their values, shapes
    and identities; only their storage moves into the buffer. If some leaf
    requires grad, each leaf also gets its lanes in a new zeroed gradient
    buffer.
    """
    leaves = Leaves(leaves)
    leaves.flat = np.concatenate([p.data.reshape(lead + (-1,)) for p in leaves], axis=-1) if leaves else np.zeros(lead + (0,))
    leaves.grad = np.zeros_like(leaves.flat) if any(p.requires_grad for p in leaves) else None
    offset = 0
    for p in leaves:
        span = slice(offset, offset + p.size // math.prod(lead))
        p.data = leaves.flat[..., span].reshape(p.shape)
        p._lane = None if leaves.grad is None else leaves.grad[..., span].reshape(p.shape)
        offset = span.stop
    return leaves


class GradTape:
    """Topologically ordered record of the op nodes reachable from a root through gradient-carrying ops.

    Leaves and constants are left off the tape: leaves take their
    gradients from the nodes that consume them, and no gradient ever
    reaches a constant. The order is a pure function of graph
    construction (a depth-first post-order from the root), so replaying
    the tape on identical inputs yields bitwise-identical gradients.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes  # root last

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and parent not in visited:
                    stack.append((parent, False))
        return cls(order)

    def run(self) -> None:
        root = self.nodes[-1]
        root._accumulate(np.ones_like(root.data))
        try:
            for node in reversed(self.nodes):
                g = node._g
                if g is not None:
                    node._g = None
                    node._backward(g)
        except BaseException:
            for node in self.nodes:
                node._g = None
            raise


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
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ContractError(f"add: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return node(data, (a, b), backward)


def scale(a: Tensor, c) -> Tensor:
    """a * c for a number c, or for one factor per seed of a stack's [S] values."""
    c = c if isinstance(c, np.ndarray) else float(c)
    data = a.data * c

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return node(data, (a,), backward)


def sum_seeds(losses: Tensor) -> Tensor:
    """The sum of a stack's [S] losses as one scalar node: its backward hands every seed's loss the root's gradient."""

    def backward(g):
        losses._accumulate(g * np.ones(losses.shape))

    return node(np.add.reduce(losses.data, axis=None), (losses,), backward)


def sum_sq_diff(parts, ref: np.ndarray) -> Tensor:
    """||concat(flatten(parts)) - ref||^2 as one node; `ref` is a constant.

    `Leaves` are read straight from their flat buffer (a stack's gives one
    value per seed); other parts are concatenated. The backward pass hands
    each part its slice of 2 * g * (theta - ref), so parameter leaves get
    one contribution each in their lanes of the gradient buffer (one add, once
    all hold their lanes), with no reshape or concatenation nodes on the tape.
    """
    if not parts:
        raise ContractError("sum_sq_diff needs at least one tensor")
    ref = _as_array(ref)
    flat = parts.flat if isinstance(parts, Leaves) else np.concatenate([p.data.reshape(-1) for p in parts])
    if flat.shape != ref.shape:
        raise ContractError(f"sum_sq_diff: {flat.shape} vs {ref.shape}")
    diff = flat - ref
    data = np.add.reduce(diff * diff, axis=-1)
    seeds = math.prod(flat.shape[:-1])

    def backward(g):
        grad = 2.0 * (g[..., None] * diff)  # exactly (g * diff) + (g * diff), the product rule's two terms
        if isinstance(parts, Leaves) and parts.grad is not None and all([p.grad is p._lane for p in parts]):
            parts.grad += grad  # the per-leaf `+=` of every element at once
            return
        offset = 0
        for p in parts:
            width = p.size // seeds
            if p.requires_grad:
                p._accumulate(grad[..., offset : offset + width].reshape(p.shape))
            offset += width

    return node(data, tuple(parts), backward)


# ---------------------------------------------------------------------------
# normalizations


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Stable softmax values along `axis` (max-subtracted before exponentiation)."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)  # x.max without its Python wrapper
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of the softmax input, given output `y` and its gradient `g`."""
    inner = np.add.reduce(g * y, axis=axis, keepdims=True)
    return y * (g - inner)


def _normalized(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=True))
    if (norms == 0.0).any():
        raise ContractError("l2_normalize: zero-norm slice")
    return x / norms, norms


def _normalized_backward(g: np.ndarray, unit: np.ndarray, norms: np.ndarray, axis: int) -> np.ndarray:
    inner = np.add.reduce(g * unit, axis=axis, keepdims=True)
    return (g - unit * inner) / norms


def row_dots(v: np.ndarray) -> np.ndarray:
    """Each row's dot with itself for [n, d] `v`, in one call running `ndarray.dot`'s BLAS dot per row (pinned in tests)."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


class UnitRows:
    """Forward value of `l2_normalize(t, axis=-1)` for an [..., n, d] array `t`; zero rows raise.

    `data` holds the unit rows and `norms` the [..., n, 1] row norms. `t` is
    `data` transposed (its last two axes), as the C-contiguous copy a
    transpose node would hold, made on first use. `grad` is l2_normalize's
    backward through these rows.
    """

    __slots__ = ("data", "norms", "_t")

    def __init__(self, x: np.ndarray):
        self.data, self.norms = _normalized(x, -1)
        self._t: np.ndarray | None = None

    @property
    def t(self) -> np.ndarray:
        if self._t is None:
            self._t = self.data.swapaxes(-1, -2).copy()
        return self._t

    def grad(self, g: np.ndarray) -> np.ndarray:
        return _normalized_backward(g, self.data, self.norms, -1)


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


# ---------------------------------------------------------------------------
# fused nodes (see the module docstring for their contract)


def cosine_forward(a: Tensor, b: Tensor) -> tuple[UnitRows, UnitRows, np.ndarray]:
    """(unit rows of a, unit rows of b, [..., m, n] row cosines) for [..., m, d] a and [..., n, d] b. Zero rows raise."""
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(f"cosine_sim needs 2-D inputs, got ranks {a.ndim} and {b.ndim}")
    if a.shape[-1] != b.shape[-1]:
        raise ContractError(f"cosine_sim: feature dims differ, {a.shape} vs {b.shape}")
    ua, ub = unit_rows(a), unit_rows(b)
    return ua, ub, ua.data @ ub.t


def cosine_backward(g: np.ndarray, a: Tensor, b: Tensor, ua: UnitRows, ub: UnitRows) -> None:
    """Hand the gradient `g` of the cosine matrix to a, then to b."""
    if a.requires_grad:
        a._accumulate(ua.grad(g @ ub.t.swapaxes(-1, -2)))
    if b.requires_grad:
        b._accumulate(ub.grad((ua.data.swapaxes(-1, -2) @ g).swapaxes(-1, -2)))


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
    data = softmax_forward(sims * c, -1)

    def backward(g):
        cosine_backward(softmax_backward(g, data, -1) * c, a, b, ua, ub)

    return node(data, (a, b), backward)


def soft_ce_rows(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """-sum(target * log(max(pred, LOG_EPS))) along the last axis."""
    return np.add.reduce(-target * np.log(np.maximum(pred, LOG_EPS)), axis=-1)


def row_terms_backward(g_sum, weights: np.ndarray | None = None):
    """Gradient of every entry of an [..., n, k] array `m`, given the
    per-seed gradient `g_sum` of sum(weights * m.sum(axis=-1)): `g_sum`
    without weights, else an [..., n, 1] column, to broadcast over `m`."""
    if weights is None:
        return g_sum[..., None, None]
    return (g_sum[..., None] * weights)[..., None]


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
    """scale * mean over rows of weights * soft_ce_rows(target, pred), as one node (one per seed of a stack).

    `target` and the per-row `weights` are constants: no gradient flows
    into them. `rows` may carry `soft_ce_rows(target.data, pred.data)`
    when the caller has it already.
    """
    if target.shape != pred.shape:
        raise ContractError(f"soft_ce_mean: {target.shape} vs {pred.shape}")
    if pred.ndim < 2:
        raise ContractError(f"soft_ce_mean needs 2-D input, got {pred.shape}")
    if pred.shape[-2] == 0:
        raise ContractError("soft_ce_mean of an empty batch")
    w = None
    if weights is not None:
        if weights.requires_grad:
            raise ContractError("soft_ce_mean: weights must be constants")
        if weights.shape != pred.shape[:-1]:
            raise ContractError(f"soft_ce_mean: {pred.shape[-2]} rows but weights {weights.shape}")
        w = weights.data
    if rows is None:
        rows = soft_ce_rows(target.data, pred.data)
    c = float(1.0 / rows.shape[-1])
    s = float(scale)
    data = np.add.reduce(rows if w is None else rows * w, axis=-1) * c * s

    def backward(g):
        if pred.requires_grad:
            pred._accumulate(soft_ce_backward(g * s * c, target.data, pred.data, w))

    return node(data, (pred,), backward)
