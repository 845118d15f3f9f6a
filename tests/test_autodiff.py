import numpy as np
import pytest

from morphtask.nn import autodiff as ad


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check_op(build, x0, rtol=1e-6, atol=1e-8):
    """build(t) -> scalar Tensor; compare backward against finite differences."""
    t = ad.parameter(x0)
    loss = build(t)
    loss.backward()
    analytic = t.grad

    def f(x):
        return build(ad.Tensor(x)).data.item()

    np.testing.assert_allclose(analytic, numeric_grad(f, x0), rtol=rtol, atol=atol)


rng = np.random.default_rng(0)


def test_add_broadcast():
    b = rng.normal(size=(4,))
    check_op(lambda t: ad.tsum(ad.add(t, b)), rng.normal(size=(3, 4)))
    # gradient flows to the broadcast side too
    t = ad.parameter(b)
    loss = ad.tsum(ad.add(rng.normal(size=(3, 4)), t))
    loss.backward()
    np.testing.assert_allclose(t.grad, np.full(4, 3.0))


def test_mul_and_sub():
    w = rng.normal(size=(3, 4))
    check_op(lambda t: ad.tsum(ad.mul(t, w)), rng.normal(size=(3, 4)))
    check_op(lambda t: ad.tsum(ad.sub(t, w)), rng.normal(size=(3, 4)))


def test_matmul_2d():
    b = rng.normal(size=(4, 2))
    check_op(lambda t: ad.tsum(ad.matmul(t, b)), rng.normal(size=(3, 4)))
    a = rng.normal(size=(3, 4))
    check_op(lambda t: ad.tsum(ad.matmul(a, t)), rng.normal(size=(4, 2)))


def test_matmul_batched_against_shared_weight():
    # (B, n, k) @ (k, m): weight gradient sums over the batch
    w0 = rng.normal(size=(4, 2))
    x = rng.normal(size=(5, 3, 4))
    check_op(lambda t: ad.tsum(ad.matmul(x, t)), w0)
    check_op(lambda t: ad.tsum(ad.matmul(t, w0)), x, rtol=1e-5)


def test_relu_tanh():
    check_op(lambda t: ad.tsum(ad.relu(t)), rng.normal(size=(6,)) + 0.3)
    check_op(lambda t: ad.tsum(ad.tanh(t)), rng.normal(size=(6,)))


def test_softmax_rows_sum_to_one_and_grad():
    x = rng.normal(size=(3, 5))
    y = ad.softmax(ad.Tensor(x))
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(3), atol=1e-12)
    w = rng.normal(size=(3, 5))
    check_op(lambda t: ad.tsum(ad.mul(ad.softmax(t), w)), x, rtol=1e-5)


def test_log_softmax_grad():
    x = rng.normal(size=(2, 7))
    w = rng.normal(size=(2, 7))
    check_op(lambda t: ad.tsum(ad.mul(ad.log_softmax(t), w)), x, rtol=1e-5)


def test_reshape_concat_slice():
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 3))
    check_op(lambda t: ad.tsum(ad.mul(ad.reshape(t, (4, 3)), w)), x)
    a = rng.normal(size=(3, 2))
    check_op(lambda t: ad.tsum(ad.concat([t, ad.Tensor(a)], axis=1)),
             rng.normal(size=(3, 5)))
    check_op(lambda t: ad.tsum(ad.gather_rows(t, np.arange(1, 3))), rng.normal(size=(5, 2)))


def test_layer_norm_matches_finite_differences():
    x = rng.normal(size=(4, 6))
    gamma = ad.parameter(rng.normal(size=(6,)))
    beta = ad.parameter(rng.normal(size=(6,)))
    w = rng.normal(size=(4, 6))

    def build(t):
        return ad.tsum(ad.mul(ad.layer_norm(t, gamma, beta), w))

    check_op(build, x, rtol=1e-5)
    # and parameter gradients
    gamma.zero_grad()
    beta.zero_grad()
    t = ad.parameter(x)
    loss = build(t)
    loss.backward()

    def f_gamma(gm):
        return ad.tsum(ad.mul(ad.layer_norm(ad.Tensor(x), ad.Tensor(gm),
                                            ad.Tensor(beta.data)), w)).data.item()

    np.testing.assert_allclose(gamma.grad, numeric_grad(f_gamma, gamma.data),
                               rtol=1e-5, atol=1e-8)


def test_grad_accumulates_across_backwards():
    w = ad.parameter(np.array([2.0]))
    for _ in range(3):
        loss = ad.tsum(ad.mul(w, 4.0))
        loss.backward()
    np.testing.assert_allclose(w.grad, [12.0])
    w.zero_grad()
    assert w.grad is None


def test_backward_requires_scalar():
    t = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.mul(t, 2.0).backward()


def test_shared_subexpression_gradient():
    # y = x*x + x used twice: dy/dx = 2x + 1
    x = ad.parameter(np.array([3.0]))
    y = ad.add(ad.mul(x, x), x)
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_check_finite_raises():
    t = ad.Tensor(np.array([1.0, np.inf]))
    with pytest.raises(ad.NumericError, match="embed"):
        ad.check_finite("embed", t)


# --- fused attention --------------------------------------------------------

SEGMENTS = [(0, 2, 3), (6, 1, 5), (11, 3, 2)]     # (offset, B, n): 17 rows


def attention_reference(qkv: np.ndarray, segments, heads: int) -> np.ndarray:
    """Per sample and head: softmax(q k^T / sqrt(dk)) v in plain numpy."""
    E = qkv.shape[1] // 3
    dk = E // heads
    out = np.zeros((qkv.shape[0], E))
    for off, B, n in segments:
        for b in range(B):
            rows = slice(off + b * n, off + (b + 1) * n)
            for h in range(heads):
                q, k, v = (qkv[rows, part * E + h * dk: part * E + (h + 1) * dk]
                           for part in range(3))
                scores = q @ k.T / np.sqrt(dk)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                out[rows, h * dk:(h + 1) * dk] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_forward_matches_reference(heads):
    qkv = rng.normal(size=(17, 12))
    mixed, weights = ad.attention(ad.Tensor(qkv), SEGMENTS, heads)
    np.testing.assert_allclose(mixed.data, attention_reference(qkv, SEGMENTS, heads),
                               rtol=1e-12, atol=1e-14)
    assert [w.shape for w in weights] == [(B, heads, n, n) for _, B, n in SEGMENTS]
    for w in weights:
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_gradcheck_over_ragged_segments(heads):
    w = rng.normal(size=(17, 4))
    check_op(lambda t: ad.tsum(ad.mul(ad.attention(t, SEGMENTS, heads)[0], w)),
             rng.normal(size=(17, 12)), rtol=1e-6, atol=1e-9)


def test_attention_keeps_leading_axes():
    # a (B, n, 3E) input is the one-segment case of its flattened rows
    qkv = rng.normal(size=(3, 4, 12))
    mixed, _ = ad.attention(ad.Tensor(qkv), [(0, 3, 4)], 2)
    flat, _ = ad.attention(ad.Tensor(qkv.reshape(12, 12)), [(0, 3, 4)], 2)
    assert mixed.shape == (3, 4, 4)
    np.testing.assert_array_equal(mixed.data.reshape(12, 4), flat.data)


# --- grad mode ------------------------------------------------------------------

NO_GRAD_OPS = {
    "add": lambda x, w: ad.add(x, w),
    "matmul/reshape": lambda x, w: ad.matmul(x, ad.reshape(w, (4, 6))),
    "linear": lambda x, w: ad.linear(x, ad.gather_rows(w, np.arange(4)), ad.tsum(w, axis=0)),
    "tanh/relu": lambda x, w: ad.relu(ad.tanh(ad.mul(x, w))),
    "softmax/log_softmax": lambda x, w: ad.add(ad.softmax(x), ad.log_softmax(w)),
    "layer_norm": lambda x, w: ad.layer_norm(x, ad.mul(ad.tsum(w, axis=0), 1.0 / 6),
                                            ad.tsum(w, axis=0)),
    "concat/slice/gather": lambda x, w: ad.gather_rows(
        ad.gather_rows(ad.concat([x, w], axis=0), np.arange(1, 8)), np.array([0, 6, 6])),
    "attention": lambda x, w: ad.attention(ad.concat([x, w, x], axis=1),
                                           [(0, 2, 3)], 2)[0],
}


@pytest.mark.parametrize("name", list(NO_GRAD_OPS))
def test_no_grad_matches_grad_mode_and_records_no_graph(name):
    x0 = rng.normal(size=(6, 4))
    w = ad.parameter(rng.normal(size=(6, 4)))
    x = ad.parameter(x0)
    with_graph = NO_GRAD_OPS[name](x, w)
    assert with_graph.requires_grad and with_graph._parents
    with ad.no_grad():
        constant = NO_GRAD_OPS[name](x, w)
    np.testing.assert_array_equal(constant.data, with_graph.data)
    assert not constant.requires_grad
    assert constant._parents == () and constant._backward is None


def test_no_grad_restores_grad_mode_after_errors():
    w = ad.parameter(np.ones(3))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad.mul(w, 2.0)._parents
