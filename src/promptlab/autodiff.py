"""Dense float64 tensors with reverse-mode automatic differentiation.

Small tape-free autograd: every operation with a learnable input links its
output tensor to the input tensors, one VJP per input and the arrays those
VJPs read, so the graph lives on the tensors themselves and independent
model instances never share state.  An operation with no learnable input
records nothing, and the reverse pass runs only the VJPs of inputs with
``requires_grad``, so no gradient of a constant is ever computed.  Links
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
    """One recorded primitive: its inputs, one VJP per input, and the
    arrays those VJPs read.

    ``vjps[k](g, k, *inputs, *saved)`` is input ``k``'s gradient for the
    output gradient ``g``.  The VJPs are module-level functions, so
    recording a primitive creates no closure; only the variadic ones
    (``concat``, ``stack_rows``) read ``k``.  The node holds no reference
    to its output tensor, so graphs stay acyclic; :func:`backward` reaches
    outputs through the traced tensors.
    """

    __slots__ = ("name", "inputs", "vjps", "saved")

    def __init__(self, name: str, inputs: Sequence[Tensor],
                 vjps: Sequence[Callable], saved: tuple):
        self.name = name
        self.inputs = tuple(inputs)
        self.vjps = vjps
        self.saved = saved

    def vjp(self, g: np.ndarray) -> tuple:
        """The gradient for each input with ``requires_grad``, and ``None``
        for each constant input, whose VJP never runs."""
        inputs = self.inputs
        args = (*inputs, *self.saved)
        return tuple([vjp(g, k, *args) if t.requires_grad else None
                      for k, (vjp, t) in enumerate(zip(self.vjps, inputs))])


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


def _make(name: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjps,
          saved: tuple = ()) -> Tensor:
    out = Tensor(out_data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out.node = OpNode(name, inputs, vjps, saved)
            break
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

def _add_a(g, k, a, b):           # also the left VJP of sub
    return _unbroadcast(g, a.shape)


def _add_b(g, k, a, b):
    return _unbroadcast(g, b.shape)


def _sub_b(g, k, a, b):
    return _unbroadcast(-g, b.shape)


def _mul_a(g, k, a, b):
    return _unbroadcast(g * b.data, a.shape)


def _mul_b(g, k, a, b):
    return _unbroadcast(g * a.data, b.shape)


def _div_a(g, k, a, b):
    return _unbroadcast(g / b.data, a.shape)


def _div_b(g, k, a, b):
    return _unbroadcast(-g * a.data / (b.data * b.data), b.shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("add", a.data + b.data, (a, b), (_add_a, _add_b))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("sub", a.data - b.data, (a, b), (_add_a, _sub_b))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("mul", a.data * b.data, (a, b), (_mul_a, _mul_b))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make("div", a.data / b.data, (a, b), (_div_a, _div_b))


def _exp_vjp(g, k, a, out):
    return g * out


def _log_vjp(g, k, a):
    return g / a.data


def _sqrt_vjp(g, k, a, out):
    return g * 0.5 / out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _make("exp", out_data, (a,), (_exp_vjp,), (out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make("log", np.log(a.data), (a,), (_log_vjp,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _make("sqrt", out_data, (a,), (_sqrt_vjp,), (out_data,))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_vjp(g, k, a, t):
    # g * (0.5*(1+t) + 0.5*x*(1-t*t) * C*(1+3A*x*x)), in place, same order
    x = a.data
    d = 3.0 * _GELU_A * x; d *= x; d += 1.0; d *= _GELU_C
    s = t * t; np.subtract(1.0, s, out=s)
    h = 0.5 * x; h *= s; h *= d
    grad = 1.0 + t; grad *= 0.5; grad += h; grad *= g
    return grad


def gelu(a) -> Tensor:
    """Tanh-approximation GELU (single node keeps graphs small)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))  # x*x*x, not libm pow
    t = np.tanh(inner)
    return _make("gelu", 0.5 * x * (1.0 + t), (a,), (_gelu_vjp,), (t,))


# -- shape primitives -----------------------------------------------------

def _reshape_vjp(g, k, a):
    return g.reshape(a.shape)


def _transpose_vjp(g, k, a, axes):
    return g.transpose(tuple(np.argsort(axes)))


def _getitem_vjp(g, k, a, idx, raw_shape):
    full = np.zeros_like(a.data)
    # ints, slices and Ellipsis pick each element at most once, so a view
    # add scatters; advanced indices (arrays, bools) may repeat rows
    if all(type(p) in (int, slice, type(...)) or isinstance(p, np.integer)
           for p in (idx if isinstance(idx, tuple) else (idx,))):
        full[idx] += np.reshape(g, raw_shape)
    else:
        np.add.at(full, idx, np.reshape(g, raw_shape))
    return full


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make("reshape", a.data.reshape(tuple(shape)), (a,),
                 (_reshape_vjp,))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    return _make("transpose", np.ascontiguousarray(a.data.transpose(axes)),
                 (a,), (_transpose_vjp,), (axes,))


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    raw = a.data[idx]
    # Tensor storage promotes 0-d to (1,); scatter with the true shape
    return _make("getitem", np.ascontiguousarray(raw), (a,), (_getitem_vjp,),
                 (idx, np.shape(raw)))


def _concat_part(g, k, *args):
    *parts, axis = args
    start = sum(p.shape[axis] for p in parts[:k])
    piece = [slice(None)] * g.ndim
    piece[axis] = slice(start, start + parts[k].shape[axis])
    return _unbroadcast(np.ascontiguousarray(g[tuple(piece)]), parts[k].shape)


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
    return _make("concat", np.concatenate(datas, axis=axis), parts,
                 (_concat_part,) * len(parts), (axis,))


def _stack_row(g, k, *parts):
    return g[k]


def stack_rows(tensors: Sequence) -> Tensor:
    """Stack 1-D tensors into a matrix (graph-aware np.stack, axis 0)."""
    parts = [as_tensor(t) for t in tensors]
    return _make("stack", np.stack([p.data for p in parts], axis=0), parts,
                 (_stack_row,) * len(parts))


# -- reductions -----------------------------------------------------------

def _sum_vjp(g, k, a, kept_shape):
    # Tensor storage promotes 0-d to (1,); restore the reduced axes
    return np.broadcast_to(g.reshape(kept_shape), a.shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    summed = a.data.sum(axis=axis, keepdims=True)
    out = summed if keepdims else np.squeeze(summed, axis=axis)
    return _make("sum", out, (a,), (_sum_vjp,), (summed.shape,))


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis) * (1.0 / n)


def dot(a, b) -> Tensor:
    """Inner product over the last axis; leading axes broadcast."""
    return tsum(mul(a, b), axis=-1)


def norm(a) -> Tensor:
    """Euclidean norm over the last axis."""
    return sqrt(tsum(mul(a, a), axis=-1))


# -- linear algebra -------------------------------------------------------

def _matmul_a(g, k, a, b):
    return g @ b.data.swapaxes(-1, -2)


def _matmul_b(g, k, a, b):        # equally shaped stacks, or two matrices
    return a.data.swapaxes(-1, -2) @ g


def _matmul_stack_b(g, k, a, b):  # (..., n, d) @ (d, k): sum over the stack
    ad = a.data
    return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _vecmat_a(g, k, a, b):        # (d,) @ (d, k)
    return b.data @ g


def _vecmat_b(g, k, a, b):
    return np.outer(a.data, g)


def matmul(a, b) -> Tensor:
    """Matrix product.  Besides ``(n, d) @ (d, k)`` and ``(d,) @ (d, k)``,
    ``(..., n, d) @ (d, k)`` applies one weight to a stack (its gradient
    sums over the stack) and ``(..., n, d) @ (..., d, m)`` multiplies
    equally shaped stacks slice by slice."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == bd.ndim >= 2 and ad.shape[:-2] == bd.shape[:-2]:
        vjps = (_matmul_a, _matmul_b)
    elif ad.ndim > 2 and bd.ndim == 2:
        vjps = (_matmul_a, _matmul_stack_b)
    elif ad.ndim == 1 and bd.ndim == 2:
        vjps = (_vecmat_a, _vecmat_b)
    else:
        raise ValueError(f"unsupported matmul shapes {ad.shape} @ {bd.shape}")
    return _make("matmul", ad @ bd, (a, b), vjps)


# -- normalization and probabilities --------------------------------------

LAYER_NORM_EPS = 1e-5


def _layer_norm_x(g, k, x, gamma, beta, y, sigma):
    h = g * gamma.data
    return (h - h.mean(axis=-1, keepdims=True)
            - y * (h * y).mean(axis=-1, keepdims=True)) / sigma


def _layer_norm_gamma(g, k, x, gamma, beta, y, sigma):
    return (g * y).sum(axis=tuple(range(g.ndim - 1)))


def _layer_norm_beta(g, k, x, gamma, beta, y, sigma):
    return g.sum(axis=tuple(range(g.ndim - 1)))


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + LAYER_NORM_EPS)
    y = (xd - mu) / sigma
    return _make("layer_norm", y * gamma.data + beta.data, (x, gamma, beta),
                 (_layer_norm_x, _layer_norm_gamma, _layer_norm_beta),
                 (y, sigma))


def _softmax_vjp(g, k, x, p):
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Max-stabilized softmax along the last axis; raises on empty input."""
    if x.size == 0:
        raise ValueError("empty logits")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return _make("softmax", p, (x,), (_softmax_vjp,), (p,))


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
    # (..., n, heads, dh) -> (..., heads, n, dh); the same swap undoes it.
    # The keys go straight to (..., heads, dh, n).
    split_heads = (*range(r), r + 1, r, r + 2)
    keys_t = (*range(r), r + 1, r + 2, r)
    qh = transpose(reshape(q, (*lead, n, heads, dh)), split_heads)
    kt = transpose(reshape(k, (*lead, n, heads, dh)), keys_t)
    vh = transpose(reshape(v, (*lead, n, heads, dh)), split_heads)

    scores = matmul(qh, kt) * (1.0 / math.sqrt(dh))
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
    contribution onto its ``.grad`` as the reverse pass reaches it.  Only
    the VJPs of inputs with ``requires_grad`` run, and a constant output
    leaves every ``.grad`` untouched.
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
            _flow(parent, pg, flowing)
    return record


def _flow(t: Tensor, g: Optional[np.ndarray], flowing: dict) -> None:
    """Add ``g`` to the gradient flowing into ``t``: a leaf's lands on its
    ``.grad`` at once, a non-leaf's waits in ``flowing`` for its turn, and
    a constant takes nothing (its VJP gave ``None``, or it is the output)."""
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
