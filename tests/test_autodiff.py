"""Tensor arithmetic, attention masking and gradient correctness."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import autodiff as ad
from promptlab.autodiff import (
    Tensor,
    backward,
    cosine_similarity,
    finite_difference_gradient,
    masked_attention,
    max_relative_error,
    softmax,
)

from oracle_helpers import GELU_A, GELU_C, oracle_gelu

RNG = np.random.default_rng(np.random.Philox(1234))


# ---------------------------------------------------------------- tensors

def test_tensor_shape_and_flat_values():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.data.dtype == np.float64


def test_constant_flag_tracks_graph_attachment():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    assert not c.requires_grad and x.requires_grad
    assert (x + c).requires_grad is True
    assert not (c * 2.0).requires_grad  # no learnable input anywhere


# ---------------------------------------------------------------- softmax

def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([1.0, 1.0, 1.0])).data, [1 / 3, 1 / 3, 1 / 3],
                       atol=1e-15)


def test_softmax_singleton():
    assert softmax(Tensor([5.0])).data.tolist() == [1.0]


def test_softmax_oracle_123():
    # frozen from a 50-digit mpmath evaluation of exp(x-3)/sum
    expected = [0.09003057317038046, 0.24472847105479765, 0.6652409557748219]
    assert np.allclose(softmax(Tensor([1.0, 2.0, 3.0])).data, expected, atol=1e-15)


def test_softmax_empty_errors():
    with pytest.raises(ValueError, match="empty logits"):
        softmax(Tensor(np.zeros(0)))
    with pytest.raises(ValueError, match="empty logits"):
        softmax(Tensor(np.zeros((2, 0))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-80, 80), min_size=1, max_size=24))
def test_softmax_simplex_property(logits):
    p = softmax(Tensor(logits)).data
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()
    arr = np.sort(np.asarray(logits))
    unique_max = len(logits) == 1 or arr[-1] - arr[-2] > 1e-9
    if unique_max:  # exact float ties in the output break argmax order
        assert int(np.argmax(p)) == int(np.argmax(logits))


def test_softmax_huge_inputs_stable():
    p = softmax(Tensor([1e8, 1e8 + 1.0])).data
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


# ------------------------------------------------------- cosine similarity

def test_cosine_self_similarity():
    v = Tensor([0.3, -1.2, 4.0])
    assert cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_oracle():
    # 11 / (sqrt(5) * 5), frozen from extended-precision arithmetic
    got = cosine_similarity(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).item()
    assert got == pytest.approx(0.9838699100999075, abs=1e-15)


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_cosine_positive_scaling_invariance(sa, sb):
    a = np.array([0.5, -1.0, 2.0])
    b = np.array([1.5, 0.25, -0.75])
    base = cosine_similarity(Tensor(a), Tensor(b)).item()
    scaled = cosine_similarity(Tensor(sa * a), Tensor(sb * b)).item()
    assert scaled == pytest.approx(base, abs=1e-10)


def test_cosine_symmetric():
    a, b = Tensor([1.0, 2.0, -1.0]), Tensor([0.5, -0.5, 3.0])
    assert cosine_similarity(a, b).item() == cosine_similarity(b, a).item()


@pytest.mark.parametrize("width", [5, 32])
def test_cosine_broadcast_equals_1d_path_elementwise(width):
    rng = np.random.default_rng(width)
    x = rng.normal(size=width)
    reps = rng.normal(size=(3, width))
    rows = rng.normal(size=(4, width))

    got = cosine_similarity(Tensor(x), Tensor(rows)).data
    want = [cosine_similarity(Tensor(x), Tensor(r)).item() for r in rows]
    assert got.shape == (4,)
    assert np.array_equal(got, want)

    got = cosine_similarity(Tensor(reps[:, None, :]), Tensor(rows)).data
    want = [[cosine_similarity(Tensor(v), Tensor(r)).item() for r in rows]
            for v in reps]
    assert got.shape == (3, 4)
    assert np.array_equal(got, want)


def test_cosine_any_zero_row_errors():
    rows = np.ones((3, 4))
    rows[1] = 0.0
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_similarity(Tensor(np.ones(4)), Tensor(rows))
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_similarity(Tensor(rows[:, None, :]), Tensor(np.ones((2, 4))))


def test_cosine_rejects_mismatched_width():
    with pytest.raises(ValueError, match="equal length"):
        cosine_similarity(Tensor(np.ones(3)), Tensor(np.ones((2, 4))))


# --------------------------------------------------------- masked attention

def _rand_qkv(n, d, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    return (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))))


def test_masked_attention_allfalse_bit_identical():
    q, k, v = _rand_qkv(5, 8, 7)
    plain, _ = masked_attention(q, k, v, mask=None, heads=2)
    masked, _ = masked_attention(q, k, v, mask=np.zeros((5, 5), dtype=bool),
                                 heads=2)
    assert np.array_equal(plain.data, masked.data)


def test_masked_attention_singleton():
    q = Tensor([[2.0, -1.0]])
    out, _ = masked_attention(q, q, Tensor([[5.0, 7.0]]), mask=np.array([[False]]))
    assert np.allclose(out.data, [[5.0, 7.0]], atol=0)


def test_masked_attention_hand_case():
    # single head, d=2: Q=K=I, V=[[1,2],[3,4]], token 1 may not see token 0.
    # Frozen oracle: w00 = e^(1/sqrt2) / (e^(1/sqrt2)+1) from mpmath.
    q = Tensor(np.eye(2))
    v = Tensor([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[False, False], [True, False]])
    out, _ = masked_attention(q, q, v, mask=mask)
    assert np.allclose(out.data[0], [1.6604769013466861, 2.6604769013466861],
                       atol=1e-14)
    assert np.array_equal(out.data[1], [3.0, 4.0])


def test_masked_attention_fully_masked_row_errors():
    q, k, v = _rand_qkv(3, 4, 11)
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, :] = True
    with pytest.raises(ValueError, match="no attention targets"):
        masked_attention(q, k, v, mask=mask)


def test_masked_attention_masked_targets_do_not_leak():
    # perturbing keys/values of targets masked out for token i leaves row i
    # bit-identical
    n, d = 6, 8
    q, k, v = _rand_qkv(n, d, 23)
    mask = np.zeros((n, n), dtype=bool)
    mask[2, [0, 4]] = True
    mask[5, 1] = True
    base = masked_attention(q, k, v, mask=mask, heads=2)[0].data
    k2, v2 = Tensor(k.data.copy()), Tensor(v.data.copy())
    k2.data[[0, 4]] += 100.0
    v2.data[[0, 4]] -= 50.0
    out = masked_attention(q, k2, v2, mask=mask, heads=2)[0].data
    assert np.array_equal(base[2], out[2])


def test_masked_attention_rows_sum_to_one_over_unmasked():
    n, d = 5, 4
    q, k, v = _rand_qkv(n, d, 31)
    mask = np.zeros((n, n), dtype=bool)
    mask[0, 1] = mask[3, [0, 2]] = True
    _, w = masked_attention(q, k, v, mask=mask)
    assert np.allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)
    assert (w.data[:, mask] == 0.0).all()


def test_masked_attention_batched_equals_per_slice():
    q, k, v = (Tensor(RNG.normal(size=(3, 5, 4))) for _ in range(3))
    mask = np.zeros((5, 5), dtype=bool)
    mask[3, 4] = mask[4, 3] = True
    out, w = masked_attention(q, k, v, mask=mask, heads=2)
    assert out.shape == (3, 5, 4) and w.shape == (3, 2, 5, 5)
    for b in range(3):
        one, w1 = masked_attention(Tensor(q.data[b]), Tensor(k.data[b]),
                                   Tensor(v.data[b]), mask=mask, heads=2)
        assert np.array_equal(out.data[b], one.data)
        assert np.array_equal(w.data[b], w1.data)


def test_matmul_stacks_equal_per_slice_and_reject_mismatch():
    a = Tensor(RNG.normal(size=(3, 5, 4)))
    w = Tensor(RNG.normal(size=(4, 2)))
    s = Tensor(RNG.normal(size=(3, 4, 6)))
    for b in range(3):
        assert np.array_equal((a @ w).data[b], a.data[b] @ w.data)
        assert np.array_equal((a @ s).data[b], a.data[b] @ s.data[b])
    with pytest.raises(ValueError, match="unsupported matmul shapes"):
        ad.matmul(a, Tensor(RNG.normal(size=(2, 4, 6))))


def test_masked_attention_head_divisibility():
    q, k, v = _rand_qkv(3, 6, 41)
    with pytest.raises(ValueError, match="not divisible"):
        masked_attention(q, k, v, heads=4)


# ----------------------------------------------------------------- backward

def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    backward(y)
    assert x.grad.item() == pytest.approx(6.0, abs=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="backward requires scalar loss"):
        backward(x * 2.0)


def test_backward_softmax_dot_matches_finite_differences():
    rng = np.random.default_rng(np.random.Philox(99))
    x = Tensor(rng.normal(size=4), requires_grad=True)
    w = Tensor(rng.normal(size=4))

    def loss():
        return ad.tsum(softmax(x) * w).item()

    out = ad.tsum(softmax(x) * w)
    backward(out)
    fd = finite_difference_gradient(loss, [x])[0]
    assert max_relative_error(x.grad, fd) < 1e-4


def test_gradient_accumulation_duplicated_input():
    rng = np.random.default_rng(np.random.Philox(5))
    base = rng.normal(size=3)
    a = Tensor(base.copy(), requires_grad=True)
    out = ad.dot(a, a)  # same tensor on both sides
    backward(out)
    # duplicated-input construction: two independent copies, summed paths
    left = Tensor(base.copy(), requires_grad=True)
    right = Tensor(base.copy(), requires_grad=True)
    backward(ad.dot(left, right))
    assert np.allclose(a.grad, left.grad + right.grad, atol=1e-14)


def test_scalar_index_backward():
    # integer indexing promotes the output to (1,); the scatter must still
    # target the scalar slot
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(x[1] * 3.0)
    assert np.array_equal(x.grad, np.array([0.0, 3.0, 0.0]))
    y = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    backward(y[0][1] * 2.0)
    assert np.array_equal(y.grad, np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_grad_accumulates_across_backward_calls():
    x = Tensor(2.0, requires_grad=True)
    backward(x * x)
    backward(x * x)
    assert x.grad.item() == pytest.approx(8.0)
    ad.zero_grads([x])
    assert x.grad is None


def test_record_is_topologically_ordered():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.tsum(ad.exp(x) * x)
    operations = [t.node for t in backward(y)]
    seen = set()
    for node in operations:
        for parent in node.inputs:
            assert parent.node is None or id(parent.node) in seen
        seen.add(id(node))
    assert len(seen) == len(operations)


# ----------------------------------------------- per-primitive grad checks

def _scenario(name, seed):
    rng = np.random.default_rng(
        np.random.Philox([seed, zlib.crc32(name.encode())]))

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    if name == "add":
        a, b = t(3, 4), t(3, 4)
        return [a, b], lambda: ad.tsum((a + b) * (a + b))
    if name == "add_broadcast":
        a, b = t(3, 4), t(4)
        return [a, b], lambda: ad.tsum(ad.gelu(a + b))
    if name == "sub":
        a, b = t(5), t(5)
        return [a, b], lambda: ad.tsum((a - b) * a)
    if name == "mul":
        a, b = t(2, 3), t(2, 3)
        return [a, b], lambda: ad.tsum(a * b * b)
    if name == "div":
        a, b = t(4), Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        return [a, b], lambda: ad.tsum(a / b)
    if name == "exp":
        a = t(6)
        return [a], lambda: ad.tsum(ad.exp(a * 0.5))
    if name == "log":
        a = Tensor(rng.uniform(0.5, 3.0, size=5), requires_grad=True)
        return [a], lambda: ad.tsum(ad.log(a))
    if name == "sqrt":
        a = Tensor(rng.uniform(0.5, 3.0, size=5), requires_grad=True)
        return [a], lambda: ad.tsum(ad.sqrt(a))
    if name == "gelu":
        a = t(7)
        return [a], lambda: ad.tsum(ad.gelu(a))
    if name == "gelu_batched":
        a, w = t(2, 3, 5), t(2, 3, 5)
        return [a], lambda: ad.tsum(ad.gelu(a * 2.0) * w)
    if name == "matmul_22":
        a, b = t(3, 4), t(4, 2)
        return [a, b], lambda: ad.tsum(a @ b)
    if name == "matmul_12":
        a, b = t(4), t(4, 3)
        return [a, b], lambda: ad.tsum(a @ b)
    if name == "matmul_33":
        a, b = t(2, 3, 4), t(2, 4, 3)
        return [a, b], lambda: ad.tsum(a @ b)
    if name == "matmul_32":
        a, b = t(2, 3, 4), t(4, 2)
        return [a, b], lambda: ad.tsum(ad.gelu(a @ b))
    if name == "matmul_44":
        a, b = t(2, 2, 3, 4), t(2, 2, 4, 3)
        return [a, b], lambda: ad.tsum(ad.gelu(a @ b))
    if name == "sum_axis":
        a = t(3, 5)
        return [a], lambda: ad.tsum(ad.gelu(ad.tsum(a, axis=1)))
    if name == "mean":
        a = t(4, 3)
        return [a], lambda: ad.tsum(ad.mean(a, axis=0) * ad.mean(a, axis=0))
    if name == "reshape_transpose":
        a = t(2, 6)
        return [a], lambda: ad.tsum(
            ad.gelu(ad.transpose(ad.reshape(a, (2, 3, 2)), (1, 0, 2))) * 2.0)
    if name == "concat":
        a, b = t(2, 3), t(4, 3)
        return [a, b], lambda: ad.tsum(ad.gelu(ad.concat([a, b], axis=0)))
    if name == "concat_broadcast":
        a, b, w = t(2, 3, 4), t(2, 4), t(2, 5, 4)
        return [a, b], lambda: ad.tsum(ad.gelu(ad.concat([a, b], axis=-2)) * w)
    if name == "getitem":
        a = t(5, 4)
        return [a], lambda: ad.tsum(a[1:4] * a[1:4])
    if name == "getitem_basic":
        a, w = t(3, 4, 5), t(2, 4)
        return [a], lambda: ad.tsum(ad.gelu(a[..., 1:3]) * a[0, ..., 3:]) + (
            ad.tsum(a[1, :, -1] * a[2, :, 0]) + ad.tsum(a[:2, 0, 0] * w[:, 0]))
    if name == "getitem_repeat":
        a = t(4, 3)
        pick = (np.array([0, 2, 0, 3, 0]), np.array([1, 1, 1, 0, 2]))
        return [a], lambda: ad.tsum(ad.gelu(a[[0, 0, 3]]) * 1.5) + ad.tsum(
            a[pick] * a[pick])
    if name == "stack":
        a, b = t(4), t(4)
        return [a, b], lambda: ad.tsum(ad.gelu(ad.stack_rows([a, b, a])))
    if name == "softmax":
        a, w = t(6), t(6)
        return [a, w], lambda: ad.tsum(softmax(a) * w)
    if name == "layer_norm":
        a, g, b2 = t(3, 8), t(8), t(8)
        return [a, g, b2], lambda: ad.tsum(ad.gelu(ad.layer_norm(a, g, b2)))
    if name == "cosine":
        a, b = t(5), t(5)
        return [a, b], lambda: cosine_similarity(a, b)
    if name == "cosine_broadcast":
        a, b = t(3, 1, 5), t(4, 5)
        return [a, b], lambda: ad.tsum(ad.gelu(cosine_similarity(a, b)))
    if name == "attention":
        q, k, v = t(4, 6), t(4, 6), t(4, 6)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[3, 0] = True
        return [q, k, v], lambda: ad.tsum(
            ad.gelu(masked_attention(q, k, v, mask=mask, heads=2)[0]))
    if name == "attention_batched":
        q, k, v = t(2, 4, 6), t(2, 4, 6), t(2, 4, 6)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[3, 0] = True
        return [q, k, v], lambda: ad.tsum(
            ad.gelu(masked_attention(q, k, v, mask=mask, heads=2)[0]))
    raise KeyError(name)


PRIMITIVES = [
    "add", "add_broadcast", "sub", "mul", "div", "exp", "log", "sqrt",
    "gelu", "gelu_batched", "matmul_22", "matmul_12",
    "matmul_33", "matmul_32", "matmul_44", "sum_axis", "mean",
    "reshape_transpose", "concat", "concat_broadcast", "getitem",
    "getitem_basic", "getitem_repeat", "stack",
    "softmax", "layer_norm", "cosine", "cosine_broadcast", "attention",
    "attention_batched",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_gradients_match_finite_differences(name):
    # >= 100 random instances split across the primitive set; every
    # primitive individually sees several seeds
    for seed in range(6):
        params, make_loss = _scenario(name, seed)
        ad.zero_grads(params)
        backward(make_loss())
        fd = finite_difference_gradient(lambda: make_loss().item(), params)
        for p, g in zip(params, fd):
            assert max_relative_error(p.grad, g) < 1e-4, name


def _gelu_vjp_expression(x, g):
    """The GELU VJP written as one expression, the form the library's
    in-place VJP must reproduce bit for bit."""
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    d_inner = GELU_C * (1.0 + 3.0 * GELU_A * x * x)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)


@pytest.mark.parametrize("shape", [(4, 21, 64), (1, 21, 64), (7,)],
                         ids=["batched", "one_image", "flat"])
def test_gelu_vjp_equals_the_expression_form_bitwise(shape):
    rng = np.random.default_rng(7)
    x = rng.uniform(-12.0, 12.0, size=shape)
    g = rng.normal(size=shape)
    x.flat[:6] = [0.0, -0.0, 12.0, -12.0, 1e-300, -1e-300]
    g.flat[::5] = -0.0                    # signed zeros must survive too
    (got,) = ad.gelu(Tensor(x, requires_grad=True)).node.vjp(g)
    want = _gelu_vjp_expression(x, g)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gelu_is_within_two_eps_of_a_longdouble_reference():
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    rng = np.random.default_rng(8)
    x = np.concatenate([np.linspace(-12.0, 12.0, 100001),
                        rng.normal(size=800_000),
                        [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0]])
    # tanh-GELU (Hendrycks & Gimpel) from its exact constants, in 80 bits
    xl = x.astype(np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    c, a = np.sqrt(np.longdouble(2) / pi), np.longdouble("0.044715")
    ref = np.longdouble(0.5) * xl * (1 + np.tanh(c * (xl + a * xl ** 3)))
    got = ad.gelu(x).data
    err = np.abs(got.astype(np.longdouble) - ref)
    bound = 2 * np.finfo(np.float64).eps * np.maximum(np.abs(x), 1.0)
    assert np.all(err <= bound), float(np.max(err / bound))
    assert oracle_gelu(x).tobytes() == got.tobytes()


def _add_at_cotangent(a, idx, g):
    """The reference scatter: ``np.add.at`` of ``g`` into zeros like ``a``."""
    full = np.zeros_like(a.data)
    np.add.at(full, idx, np.reshape(g, np.shape(a.data[idx])))
    return full


@pytest.mark.parametrize("idx", [
    (slice(None), slice(1, 26)), (Ellipsis, 0), 3, -1, np.int64(2),
    (0, slice(2, 5), -1), (Ellipsis, slice(None, None, -2)),
    (1, Ellipsis, slice(3, 4))],
    ids=["slices", "ellipsis_int", "int", "negative_int", "numpy_int",
         "mixed_tuple", "ellipsis_step", "int_ellipsis_slice"])
def test_getitem_basic_index_scatter_equals_add_at_bitwise(idx):
    a = Tensor(RNG.normal(size=(4, 29, 6)), requires_grad=True)
    out = a[idx]
    g = RNG.normal(size=out.shape)
    g.flat[::3] = -0.0                    # signed zeros must survive too
    (got,) = out.node.vjp(g)
    want = _add_at_cotangent(a, idx, g)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_getitem_scalar_element_scatter():
    a = Tensor(RNG.normal(size=5), requires_grad=True)
    out = a[2]                            # stored as (1,), scattered as ()
    backward(ad.tsum(out * 3.0))
    assert a.grad.tolist() == [0.0, 0.0, 3.0, 0.0, 0.0]


@pytest.mark.parametrize("idx", [
    [0, 2, 0, 0], np.array([1, 1]), (np.array([0, 1, 0]), np.array([2, 2, 2])),
    (slice(None), [3, 3]), np.array([True, False, True, False])],
    ids=["list_repeats", "array_repeats", "pair_repeats", "slice_list",
         "bool_mask"])
def test_getitem_advanced_index_accumulates_repeats(idx):
    a = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    out = a[idx]
    g = RNG.normal(size=out.shape)
    (got,) = out.node.vjp(g)
    assert np.array_equal(got, _add_at_cotangent(a, idx, g))
    backward(ad.tsum(a[idx]))
    counts = np.zeros(a.shape)
    np.add.at(counts, idx, 1.0)
    assert np.array_equal(a.grad, counts)
    assert counts.max() >= 1


# tsum with and without keepdims; mean, which has no keepdims
REDUCTIONS = [
    pytest.param(reduce, shape, axis, keepdims,
                 id=f"{keepdims}-{axis}-shape{i}-{reduce.__name__}")
    for keepdims in (False, True) for axis in (None, 0, -1)
    for i, shape in enumerate([(4,), (3, 4)])
    for reduce in ((ad.tsum,) if keepdims else (ad.tsum, ad.mean))]


@pytest.mark.parametrize("reduce, shape, axis, keepdims", REDUCTIONS)
def test_reduction_axis_gradients_match_finite_differences(reduce, shape,
                                                            axis, keepdims):
    rng = np.random.default_rng(len(shape))
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    kw = {"keepdims": True} if keepdims else {}
    w = Tensor(rng.normal(size=reduce(a, axis=axis, **kw).shape))

    def make_loss():
        return ad.tsum(ad.gelu(reduce(a, axis=axis, **kw)) * w)

    backward(make_loss())
    fd = finite_difference_gradient(lambda: make_loss().item(), [a])[0]
    assert max_relative_error(a.grad, fd) < 1e-6


def test_gradcheck_instance_count():
    # spec-level property: at least 100 random instances overall
    assert len(PRIMITIVES) * 6 >= 100


# ------------------------------------------------------- constant inputs

def _never_called(*args):
    raise AssertionError("a constant input's VJP ran")


# primitives whose inputs may be learnable or constant, with input shapes;
# every non-empty proper subset of the inputs is made constant in turn
MIXED = [
    pytest.param(ad.matmul, [(3, 4), (4, 2)], id="matmul_22"),
    pytest.param(ad.matmul, [(2, 3, 4), (4, 2)], id="matmul_32"),
    pytest.param(ad.matmul, [(4,), (4, 3)], id="matmul_12"),
    pytest.param(ad.matmul, [(2, 3, 4), (2, 4, 3)], id="matmul_33"),
    pytest.param(ad.add, [(3, 4), (4,)], id="add"),
    pytest.param(ad.sub, [(4,), (3, 4)], id="sub"),
    pytest.param(ad.mul, [(3, 4), (3, 1)], id="mul"),
    pytest.param(ad.div, [(3, 4), (4,)], id="div"),
    pytest.param(ad.layer_norm, [(2, 3, 8), (8,), (8,)], id="layer_norm"),
    pytest.param(lambda *parts: ad.concat(parts, axis=-2),
                 [(2, 3, 4), (5, 4), (2, 1, 4)], id="concat"),
    pytest.param(lambda *parts: ad.stack_rows(parts), [(4,), (4,), (4,)],
                 id="stack_rows"),
]


@pytest.mark.parametrize("op, shapes", MIXED)
def test_constant_inputs_run_no_vjp_and_leave_live_gradients_unchanged(
        op, shapes):
    rng = np.random.default_rng(np.random.Philox(len(shapes)))
    datas = [rng.uniform(0.5, 2.0, size=s) for s in shapes]  # div-safe
    live = op(*[Tensor(d, requires_grad=True) for d in datas])
    g = rng.normal(size=live.shape)
    want = live.node.vjp(g)
    n = len(datas)
    for mask in range(1, 2 ** n - 1):
        constant = {k for k in range(n) if mask >> k & 1}
        node = op(*[Tensor(d, requires_grad=k not in constant)
                    for k, d in enumerate(datas)]).node
        node.vjps = tuple(_never_called if k in constant else vjp
                          for k, vjp in enumerate(node.vjps))
        got = node.vjp(g)
        for k in range(n):
            if k in constant:
                assert got[k] is None
            else:
                assert got[k].shape == want[k].shape
                assert got[k].tobytes() == want[k].tobytes()


@pytest.mark.parametrize("op, arity", [
    (ad.add, 2), (ad.sub, 2), (ad.mul, 2), (ad.div, 2), (ad.matmul, 2),
    (ad.exp, 1), (ad.log, 1), (ad.sqrt, 1), (ad.gelu, 1),
    (softmax, 1), (ad.tsum, 1), (lambda a: ad.reshape(a, (9,)), 1),
    (lambda a: ad.transpose(a, (1, 0)), 1), (lambda a: a[1:], 1),
    (ad.layer_norm, 3), (lambda *p: ad.concat(p), 2),
    (lambda *p: ad.stack_rows(p), 2)])
def test_op_without_learnable_input_records_no_node(op, arity):
    out = op(*[Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)))] * arity)
    assert out.node is None and not out.requires_grad
