"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every op computes its result eagerly and builds it through one constructor,
``_result``.  In grad mode (the default) a result that depends on a tensor
needing a gradient keeps its parents and a backward closure, so it becomes a
node of the computation graph; `backward()` walks that graph in reverse
topological order and accumulates exact gradients.  Inside ``with
no_grad():`` every result is a plain constant that keeps no parents and no
closure, which is what inference wants.

The op set is just large enough for the policy architectures: broadcasting
arithmetic, matmul with batch dims, activations, softmax/log-softmax, layer
statistics, reshapes, concatenation and row lookups, plus three fused ops with
hand-written backward passes: ``linear`` (GEMM plus an in-place bias),
``layer_norm``, and ``transformer_block`` (Q|K|V, attention over ragged row
segments, output projection, two residual layer norms and the ReLU FFN).
The block keeps only the arrays its backward reads, and its arithmetic is
that of the ops it fuses, so its results and gradients are the same bits.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NumericError(ArithmeticError):
    """Non-finite value produced where finite math was required."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block build constants: no parents, no backward."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_grad_owned", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._grad_owned = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None
        self._grad_owned = False

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add to the gradient, copy-on-write.

        The first contribution is stored as-is; a second contribution into a
        borrowed buffer allocates instead of mutating it, since the producer
        may have handed the same array to several parents.
        """
        if self.grad is None:
            self.grad = g
            self._grad_owned = owned and g.flags.owndata
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _result(data, parents: tuple, backward) -> Tensor:
    """An op's output: a graph node holding its parents and backward closure
    in grad mode when some parent needs a gradient, else a constant."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


# OpenBLAS cuts a reduction longer than its K block (256 on its x86-64
# kernels) into different pieces when it runs threaded, so one GEMM over all
# rows of a batch would change its last bits with the BLAS thread count.
_ROW_BLOCK = 256


def _row_product(x2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """x2.T @ g2 for (R, k) and (R, m), summed over fixed blocks of
    _ROW_BLOCK rows in order: a weight gradient whose bits do not depend on
    the BLAS thread count."""
    out = x2[:_ROW_BLOCK].T @ g2[:_ROW_BLOCK]
    for start in range(_ROW_BLOCK, len(x2), _ROW_BLOCK):
        out += x2[start:start + _ROW_BLOCK].T @ g2[start:start + _ROW_BLOCK]
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _result(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))
    return _result(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _result(a.data * b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2) if b.ndim > 1 else np.outer(g, b.data)
            a._accumulate(_unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim >= 2:
                # shared weight: collapse batch dims into rows
                gb = _row_product(a.data.reshape(-1, a.shape[-1]),
                                  g.reshape(-1, g.shape[-1]))
            elif a.ndim == 1:
                gb = np.outer(a.data, g)
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            b._accumulate(gb, owned=True)
    return _result(a.data @ b.data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """Fused x @ w + b for 2-D weights and 1-D bias, the bias added in place.

    A 2-D x is one GEMM.  For x of shape (B, ..., k) numpy runs one GEMM
    per leading index, so a sample's outputs never depend on what else is
    in the batch; one GEMM over all rows would not guarantee that, since
    BLAS picks its kernels by matrix shape.  Weight and bias gradients
    reduce over the 2-D view of all rows (``_row_product``).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y = x.data @ w.data
    y += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate(g @ w.data.T, owned=True)
        if w.requires_grad:
            w._accumulate(_row_product(x.data.reshape(-1, x.shape[-1]), g2), owned=True)
        if b.requires_grad:
            b._accumulate(np.add.reduce(g2, axis=0), owned=True)
    return _result(y, (x, w, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))
    return _result(np.maximum(a.data, 0.0), (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))
    return _result(y, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())
    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in x's buffer."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    y = _softmax_last(a.data.copy())

    def backward(g):
        if a.requires_grad:
            a._accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))
    return _result(y, (a,), backward)


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))
    return _result(y, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))
    return _result(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(part)
    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tuple(tensors), backward)


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Row lookup a[index] with scatter-add gradient (embedding tables).

    Each row's gradient sums its contributions in index order, starting
    from +0.0: the bits of ``np.add.at``, with one sequential sum per
    distinct row instead of one per index.
    """
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            flat = index.reshape(-1) % len(a.data)
            order = np.argsort(flat, kind="stable")
            rows, starts = np.unique(flat[order], return_index=True)
            parts = g.reshape((len(flat),) + a.shape[1:])[order]
            full = np.zeros_like(a.data)
            for row, part in zip(rows, np.split(parts, starts[1:])):
                # accumulate adds in order for any row width; a reduce over
                # one column would sum pairwise
                full[row] = np.add.accumulate(part, axis=0)[-1]
            # Starting from the first term instead of +0.0 differs only in a
            # row whose terms are all -0.0; adding +0.0 makes that row +0.0.
            full += 0.0
            a._accumulate(full)
    return _result(a.data[index], (a,), backward)


def _ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
                out: np.ndarray | None = None):
    """Layer norm over the last axis: (y, xhat, inv) with y = xhat*gamma +
    beta and xhat = (x - mean) * inv.  xhat is written to ``out``, which
    may be x itself.

    Means are ``np.add.reduce(...) / E``, the same bits as ``np.mean``.
    """
    E = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= E
    xhat = np.subtract(x, mu, out=out)
    sq = xhat * xhat
    inv = np.add.reduce(sq, axis=-1, keepdims=True)
    inv /= E
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    y = np.multiply(xhat, gamma, out=sq)
    y += beta
    return y, xhat, inv


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                 out: np.ndarray | None = None):
    """(dx, dgamma, dbeta) of _ln_forward for the output gradient g; dx is
    written to ``out``, which may be g itself."""
    E = g.shape[-1]
    g2 = g.reshape(-1, E)
    dgamma = np.add.reduce(g2 * xhat.reshape(-1, E), axis=0)
    dbeta = np.add.reduce(g2, axis=0)
    dx = np.multiply(g, gamma, out=out)
    m1 = np.add.reduce(dx, axis=-1, keepdims=True)
    m1 /= E
    tmp = dx * xhat
    m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
    m2 /= E
    np.multiply(xhat, m2, out=tmp)
    dx -= m1
    dx -= tmp
    dx *= inv
    return dx, dgamma, dbeta


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (biased variance), then scale and shift."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    y, xhat, inv = _ln_forward(a.data, gamma.data, beta.data, eps)

    def backward(g):
        dx, dgamma, dbeta = _ln_backward(g, xhat, inv, gamma.data)
        if gamma.requires_grad:
            gamma._accumulate(dgamma, owned=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, owned=True)
        if a.requires_grad:
            a._accumulate(dx, owned=True)
    return _result(y, (a, gamma, beta), backward)


def _attention_forward(qkv: np.ndarray, segments, heads: int):
    """Scaled dot-product self-attention over ragged row segments.

    qkv is (..., 3E): each row holds its query, key and value, and each of
    those splits into ``heads`` slices of E/heads columns.  Over the rows
    flattened to (R, 3E), ``segments`` lists (offset, B, n): rows offset ..
    offset + B*n are B samples of n consecutive rows that attend only among
    themselves.  Returns the mixed values (..., E) and, per segment, the
    q, k, v views (B, H, n, dk) and attention weights (B, H, n, n) that
    _attention_backward reads.
    """
    flat = qkv.reshape(-1, qkv.shape[-1])
    E = flat.shape[1] // 3
    H = heads
    dk = E // H
    scale = 1.0 / np.sqrt(dk)
    mixed = np.empty(qkv.shape[:-1] + (E,))
    mixed_flat = mixed.reshape(-1, E)
    saved = []
    for off, B, n in segments:
        rows = slice(off, off + B * n)
        q, k, v = flat[rows].reshape(B, n, 3, H, dk).transpose(2, 0, 3, 1, 4)
        weights = q @ k.transpose(0, 1, 3, 2)
        weights *= scale
        _softmax_last(weights)
        np.matmul(weights, v,
                  out=mixed_flat[rows].reshape(B, n, H, dk).transpose(0, 2, 1, 3))
        saved.append((q, k, v, weights))
    return mixed, saved


def _attention_backward(g: np.ndarray, saved, segments) -> np.ndarray:
    """The gradient (R, 3E) of _attention_forward's rows for the gradient g
    of its mixed values: softmax's Jacobian-vector product and the four
    batched matmuls."""
    _, H, _, dk = saved[0][0].shape
    E = H * dk
    scale = 1.0 / np.sqrt(dk)
    g = g.reshape(-1, E)
    dqkv = np.empty((len(g), 3 * E))
    for (off, B, n), (q, k, v, weights) in zip(segments, saved):
        rows = slice(off, off + B * n)
        gm = g[rows].reshape(B, n, H, dk).transpose(0, 2, 1, 3)
        dq, dk_, dv = dqkv[rows].reshape(B, n, 3, H, dk).transpose(2, 0, 3, 1, 4)
        np.matmul(weights.transpose(0, 1, 3, 2), gm, out=dv)
        dw = gm @ v.transpose(0, 1, 3, 2)
        dscores = dw - (dw * weights).sum(axis=-1, keepdims=True)
        dscores *= weights
        dscores *= scale
        np.matmul(dscores, k, out=dq)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk_)
    return dqkv


def transformer_block(z, weights, segments, heads: int,
                      eps: float) -> tuple[Tensor, list[np.ndarray]]:
    """One post-norm transformer block over ragged row segments:
    u = layer_norm(z + attention(z) Wo + bo), out = layer_norm(u +
    ffn(u)), with ffn(u) = relu(u W1 + b1) W2 + b2.

    weights are (Wqkv, bqkv, Wo, bo, ln1 gamma, ln1 beta, W1, b1, W2, b2,
    ln2 gamma, ln2 beta); Wqkv | bqkv are the concatenated Q|K|V weights of
    one GEMM.  z is (B, n, E), a sample's GEMMs per leading index as in
    ``linear``, or stacked rows (R, E) with ``segments`` as in
    _attention_forward.  Returns the output and, per segment, the attention
    weights (B, H, n, n).

    Each step runs the arithmetic of the op it fuses (``linear``, ``add``,
    ``layer_norm``, ``relu``) in the same order, so outputs and gradients
    are bit for bit those of the op chain.  The forward works in place
    where the chain allocates, and keeps only what the backward reads.
    """
    z = as_tensor(z)
    weights = tuple(as_tensor(w) for w in weights)
    w_qkv, b_qkv, wo, bo, g1, be1, w1, b1, w2, b2, g2, be2 = (w.data for w in weights)
    x = z.data
    qkv = x @ w_qkv
    qkv += b_qkv
    mixed, saved = _attention_forward(qkv, segments, heads)
    r1 = mixed @ wo
    r1 += bo
    r1 += x
    u, xhat1, inv1 = _ln_forward(r1, g1, be1, eps, out=r1)
    h = u @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    r2 = h @ w2
    r2 += b2
    r2 += u
    y, xhat2, inv2 = _ln_forward(r2, g2, be2, eps, out=r2)

    def rows(a):
        return a.reshape(-1, a.shape[-1])

    def backward(g):
        dr2, dg2, dbe2 = _ln_backward(g, xhat2, inv2, g2)
        dh = dr2 @ w2.T
        dw2, db2 = _row_product(rows(h), rows(dr2)), np.add.reduce(rows(dr2), axis=0)
        np.multiply(dh, h > 0.0, out=dh)       # h > 0 exactly where relu's input is
        du = dh @ w1.T
        dw1, db1 = _row_product(rows(u), rows(dh)), np.add.reduce(rows(dh), axis=0)
        du += dr2
        dr1, dg1, dbe1 = _ln_backward(du, xhat1, inv1, g1, out=du)
        dmixed = dr1 @ wo.T
        dwo, dbo = _row_product(rows(mixed), rows(dr1)), np.add.reduce(rows(dr1), axis=0)
        dqkv = _attention_backward(dmixed, saved, segments).reshape(qkv.shape)
        dw_qkv = _row_product(rows(x), rows(dqkv))
        db_qkv = np.add.reduce(rows(dqkv), axis=0)
        if z.requires_grad:
            dx = dqkv @ w_qkv.T
            dx += dr1
            z._accumulate(dx, owned=True)
        for w, dw in zip(weights, (dw_qkv, db_qkv, dwo, dbo, dg1, dbe1,
                                   dw1, db1, dw2, db2, dg2, dbe2)):
            if w.requires_grad:
                w._accumulate(dw, owned=True)
    return (_result(y, (z,) + weights, backward),
            [weights for _, _, _, weights in saved])


def check_finite(name: str, t: Tensor) -> Tensor:
    """Raise NumericError naming the layer if the activation went non-finite."""
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {name}")
    return t
