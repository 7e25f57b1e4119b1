"""Dense float64 tensors with reverse-mode automatic differentiation.

Small tape-free autograd: every operation links its output tensor to the
input tensors and a VJP closure, so the graph lives on the tensors
themselves and independent model instances never share state.  Links
point from outputs to inputs only, so a graph holds no reference cycle and
is freed by reference counting as soon as its output is dropped.  Only the
primitives needed by a miniature transformer are provided (matmul,
elementwise arithmetic, layer norm, softmax, masked multi-head attention,
cosine similarity) plus a central finite-difference oracle used to check
the analytic gradients.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

MASK_FILL = -1e9  # additive -inf surrogate; exp underflows to exactly 0.0


class Tensor:
    """A dense float64 array with an optional gradient.

    Tensors are immutable after construction except for ``grad``, which is
    filled/accumulated by :func:`backward`.  Non-leaf tensors remember the
    operation that produced them via ``node``.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.node: Optional[OpNode] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_constant(self) -> bool:
        """True when this tensor is detached from every learnable input."""
        return not self.requires_grad

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


class OpNode:
    """One recorded primitive: its inputs and the VJP closure.

    The node holds no reference to its output tensor, so graphs stay
    acyclic; :func:`backward` reaches outputs through the traced tensors.
    """

    __slots__ = ("name", "inputs", "vjp")

    def __init__(self, name: str, inputs: Sequence[Tensor],
                 vjp: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.name = name
        self.inputs = tuple(inputs)
        self.vjp = vjp


def _trace(output: Tensor) -> list:
    """The non-leaf tensors behind ``output``, topologically ordered."""
    ordered: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        t, expanded = stack.pop()
        if t.node is None:
            continue
        if expanded:
            ordered.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for parent in t.node.inputs:
            stack.append((parent, False))
    return ordered


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(name: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = OpNode(name, inputs, vjp)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise primitives ---------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("sub", a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("mul", a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("div", a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _make("exp", out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _make("sqrt", out_data, (a,), lambda g: (g * 0.5 / out_data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _make("tanh", out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """Tanh-approximation GELU (single node keeps graphs small)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))  # x*x*x, not libm pow
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def vjp(g):
        # g * (0.5*(1+t) + 0.5*x*(1-t*t) * C*(1+3A*x*x)), in place, same order
        d = 3.0 * _GELU_A * x; d *= x; d += 1.0; d *= _GELU_C
        s = t * t; np.subtract(1.0, s, out=s)
        h = 0.5 * x; h *= s; h *= d
        grad = 1.0 + t; grad *= 0.5; grad += h; grad *= g
        return (grad,)

    return _make("gelu", out_data, (a,), vjp)


# -- shape primitives -----------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return _make("reshape", a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make("transpose", np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: (g.transpose(inv),))


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    raw = a.data[idx]
    # Tensor storage promotes 0-d to (1,); scatter with the true shape
    raw_shape = np.shape(raw)
    # ints, slices and Ellipsis pick each element at most once, so a view
    # add scatters; advanced indices (arrays, bools) may repeat rows
    basic = all(type(p) in (int, slice, type(...)) or isinstance(p, np.integer)
                for p in (idx if isinstance(idx, tuple) else (idx,)))

    def vjp(g):
        full = np.zeros_like(a.data)
        if basic:
            full[idx] += np.reshape(g, raw_shape)
        else:
            np.add.at(full, idx, np.reshape(g, raw_shape))
        return (full,)

    return _make("getitem", np.ascontiguousarray(raw), (a,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Join tensors along ``axis``; lower-rank parts broadcast over the
    missing leading axes (a ``(V, d)`` block joins a ``(B, n, d)`` stack
    along ``axis=-2``), and their gradient is summed back over them."""
    parts = [as_tensor(t) for t in tensors]
    ndim = max(p.data.ndim for p in parts)
    if axis >= 0:
        axis -= ndim
    lead = next(p.shape for p in parts if p.data.ndim == ndim)[:axis]
    datas = [p.data if p.data.ndim == ndim
             else np.broadcast_to(p.data, lead[:ndim - p.data.ndim] + p.shape)
             for p in parts]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(_unbroadcast(np.ascontiguousarray(piece), p.shape)
                     for piece, p in zip(np.split(g, splits, axis=axis), parts))

    return _make("concat", np.concatenate(datas, axis=axis), parts, vjp)


def stack_rows(tensors: Sequence) -> Tensor:
    """Stack 1-D tensors into a matrix (graph-aware np.stack, axis 0)."""
    parts = [as_tensor(t) for t in tensors]

    def vjp(g):
        return tuple(g[i] for i in range(len(parts)))

    return _make("stack", np.stack([p.data for p in parts], axis=0), parts, vjp)


# -- reductions -----------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    summed = a.data.sum(axis=axis, keepdims=True)
    kept_shape = summed.shape

    def vjp(g):
        # Tensor storage promotes 0-d to (1,); restore the reduced axes
        return (np.broadcast_to(g.reshape(kept_shape), a.shape).copy(),)

    out = summed if keepdims else np.squeeze(summed, axis=axis)
    return _make("sum", out, (a,), vjp)


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis) * (1.0 / n)


def dot(a, b) -> Tensor:
    """Inner product over the last axis; leading axes broadcast."""
    return tsum(mul(a, b), axis=-1)


def norm(a, keepdims: bool = False) -> Tensor:
    """Euclidean norm over the last axis."""
    return sqrt(tsum(mul(a, a), axis=-1, keepdims=keepdims))


# -- linear algebra -------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product.  Besides ``(n, d) @ (d, k)`` and ``(d,) @ (d, k)``,
    ``(..., n, d) @ (d, k)`` applies one weight to a stack (its gradient
    sums over the stack) and ``(..., n, d) @ (..., d, m)`` multiplies
    equally shaped stacks slice by slice."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        vjp = lambda g: (g @ bd.T, ad.T @ g)
    elif ad.ndim > 2 and bd.ndim == 2:
        vjp = lambda g: (g @ bd.T,
                         ad.reshape(-1, ad.shape[-1]).T
                         @ g.reshape(-1, g.shape[-1]))
    elif ad.ndim == 1 and bd.ndim == 2:
        vjp = lambda g: (bd @ g, np.outer(ad, g))
    elif ad.ndim == bd.ndim >= 3 and ad.shape[:-2] == bd.shape[:-2]:
        vjp = lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)
    else:
        raise ValueError(f"unsupported matmul shapes {ad.shape} @ {bd.shape}")
    return _make("matmul", ad @ bd, (a, b), vjp)


# -- normalization and probabilities --------------------------------------

LAYER_NORM_EPS = 1e-5


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + LAYER_NORM_EPS)
    y = (xd - mu) / sigma
    out_data = y * gamma.data + beta.data

    def vjp(g):
        h = g * gamma.data
        dx = (h - h.mean(axis=-1, keepdims=True)
              - y * (h * y).mean(axis=-1, keepdims=True)) / sigma
        lead = tuple(range(g.ndim - 1))
        return (dx, (g * y).sum(axis=lead), g.sum(axis=lead))

    return _make("layer_norm", out_data, (x, gamma, beta), vjp)


def softmax(x: Tensor) -> Tensor:
    """Max-stabilized softmax along the last axis; raises on empty input."""
    if x.size == 0:
        raise ValueError("empty logits")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return _make("softmax", p, (x,), vjp)


def log_softmax(x) -> Tensor:
    """Last-axis log softmax by the detached-max logsumexp (exact gradient)."""
    x = as_tensor(x)
    m = Tensor(x.data.max(axis=-1, keepdims=True))  # constant shift
    shifted = sub(x, m)
    lse = log(tsum(exp(shifted), axis=-1, keepdims=True))
    return sub(shifted, lse)


def cosine_similarity(a, b):
    """a.b / (|a||b|) over the last axis, broadcasting the leading axes.

    ``(d,)`` against ``(C, d)`` gives ``(C,)``; ``(V, 1, d)`` against
    ``(C, d)`` gives ``(V, C)``.  Errors when any row has zero norm.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.size == 0 or b.size == 0 or a.shape[-1] != b.shape[-1]:
        raise ValueError("cosine_similarity expects non-empty vectors of "
                         "equal length along the last axis")
    norm_a, norm_b = norm(a), norm(b)
    if not (norm_a.data.all() and norm_b.data.all()):
        raise ValueError("degenerate vector")
    return div(dot(a, b), mul(norm_a, norm_b))


# -- attention ------------------------------------------------------------

def masked_attention(q, k, v, mask: Optional[np.ndarray] = None, heads: int = 1):
    """Multi-head scaled dot-product attention with a boolean block mask;
    returns the output and the attention weights.

    ``q``, ``k`` and ``v`` are ``(..., n, d)``; the ``(n, n)`` mask and the
    weights' ``(..., heads, n, n)`` layout broadcast over the leading axes.
    ``mask[i][j] == True`` forbids token i from attending to token j.  The
    mask is applied additively before the softmax with a ``-1e9`` fill, which
    underflows to weight exactly 0.0, and the weights are re-zeroed so the
    exclusion is structural.  An all-False (or None) mask leaves the
    computation bit-identical to unmasked attention.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim < 2 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError("queries, keys and values must share shape (..., n, d)")
    *lead, n, d = q.shape
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, n):
            raise ValueError("mask must be (n, n)")
        if mask.all(axis=1).any():
            raise ValueError("token has no attention targets")
        if not mask.any():
            mask = None

    dh = d // heads
    r = len(lead)
    # (..., n, heads, dh) -> (..., heads, n, dh); the same swap undoes it
    split_heads = (*range(r), r + 1, r, r + 2)
    keys_t = (*range(r + 1), r + 2, r + 1)
    qh = transpose(reshape(q, (*lead, n, heads, dh)), split_heads)
    kh = transpose(reshape(k, (*lead, n, heads, dh)), split_heads)
    vh = transpose(reshape(v, (*lead, n, heads, dh)), split_heads)

    scores = matmul(qh, transpose(kh, keys_t)) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = add(scores, Tensor(np.where(mask, MASK_FILL, 0.0)))
    weights = softmax(scores)
    if mask is not None:
        weights = mul(weights, Tensor(np.where(mask, 0.0, 1.0)))
    out = reshape(transpose(matmul(weights, vh), split_heads), (*lead, n, d))
    return out, weights


# -- reverse pass ----------------------------------------------------------

def backward(output: Tensor) -> list:
    """Backpropagate from a scalar output, accumulating into ``.grad``.

    Every leaf in the graph with ``requires_grad`` accumulates each
    contribution onto its ``.grad`` as the reverse pass reaches it.
    Returns the traced non-leaf tensors in topological order.
    """
    if output.data.size != 1:
        raise ValueError("backward requires scalar loss")
    record = _trace(output)
    flowing: dict[int, np.ndarray] = {}
    _flow(output, np.ones_like(output.data), flowing)
    for t in reversed(record):
        g = flowing.pop(id(t), None)
        if g is None:
            continue
        node = t.node
        for parent, pg in zip(node.inputs, node.vjp(g)):
            if pg is not None:
                _flow(parent, pg, flowing)
    return record


def _flow(t: Tensor, g: np.ndarray, flowing: dict) -> None:
    """Add ``g`` to the gradient flowing into ``t``: a leaf's lands on its
    ``.grad`` at once, a non-leaf's waits in ``flowing`` for its turn."""
    if not t.requires_grad:
        return
    if t.node is None:
        t.grad = g if t.grad is None else t.grad + g
    else:
        key = id(t)
        flowing[key] = flowing[key] + g if key in flowing else g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# -- finite-difference oracle ----------------------------------------------

def finite_difference_gradient(f: Callable[[], float], params: Sequence[Tensor],
                               step: float = 1e-5) -> list:
    """Central-difference gradient of ``f`` w.r.t. every param element.

    Works by perturbing the parameter storage in place and restoring it;
    completely independent of the reverse-mode machinery.
    """
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f()
            flat[i] = orig - step
            f_minus = f()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g.reshape(p.data.shape))
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-8) -> float:
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
