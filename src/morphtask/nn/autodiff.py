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
statistics, reshapes, concatenation and row lookups, plus two fused ops with
hand-written backward passes: ``linear`` (GEMM plus an in-place bias) and
``attention`` (scores, softmax and value mixing over ragged row segments).
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
                 "_grad_owned")

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

    # Convenience arithmetic used all over the policies.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


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


def power(a, p: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * p * np.power(a.data, p - 1.0))
    return _result(np.power(a.data, p), (a,), backward)


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


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))
    return _result(a.data.transpose(axes), (a,), backward)


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
    """Row lookup a[index] with scatter-add gradient (embedding tables)."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            a._accumulate(full)
    return _result(a.data[index], (a,), backward)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (biased variance), then scale and shift.

    Means are ``np.add.reduce(...) / E``, the same bits as ``np.mean``, and
    the forward and backward passes reuse their temporaries in place.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    E = a.shape[-1]
    mu = np.add.reduce(a.data, axis=-1, keepdims=True)
    mu /= E
    xhat = a.data - mu
    sq = xhat * xhat
    inv = np.add.reduce(sq, axis=-1, keepdims=True)
    inv /= E
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    y = np.multiply(xhat, gamma.data, out=sq)
    y += beta.data

    def backward(g):
        g2 = g.reshape(-1, E)
        if gamma.requires_grad:
            gamma._accumulate(np.add.reduce(g2 * xhat.reshape(-1, E), axis=0),
                              owned=True)
        if beta.requires_grad:
            beta._accumulate(np.add.reduce(g2, axis=0), owned=True)
        if a.requires_grad:
            dxhat = g * gamma.data
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m1 /= E
            tmp = dxhat * xhat
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
            m2 /= E
            np.multiply(xhat, m2, out=tmp)
            dxhat -= m1
            dxhat -= tmp
            dxhat *= inv
            a._accumulate(dxhat, owned=True)
    return _result(y, (a, gamma, beta), backward)


def attention(qkv, segments, heads: int) -> tuple[Tensor, list[np.ndarray]]:
    """Scaled dot-product self-attention over ragged row segments.

    qkv is (..., 3E): each row holds its query, key and value, and each of
    those splits into ``heads`` slices of E/heads columns.  Over the rows
    flattened to (R, 3E), ``segments`` lists (offset, B, n): rows offset ..
    offset + B*n are B samples of n consecutive rows that attend only among
    themselves.  Returns the mixed values (..., E) and, per segment, the
    attention weights (B, H, n, n).  The backward pass is written by hand:
    softmax's Jacobian-vector product and the four batched matmuls.
    """
    qkv = as_tensor(qkv)
    lead = qkv.shape[:-1]
    flat = qkv.data.reshape(-1, qkv.shape[-1])
    E = flat.shape[1] // 3
    H = heads
    dk = E // H
    scale = 1.0 / np.sqrt(dk)
    mixed = np.empty(lead + (E,))
    mixed_flat = mixed.reshape(-1, E)
    saved = []          # per segment: q, k, v (B, H, n, dk) and weights
    for off, B, n in segments:
        rows = slice(off, off + B * n)
        q, k, v = flat[rows].reshape(B, n, 3, H, dk).transpose(2, 0, 3, 1, 4)
        weights = q @ k.transpose(0, 1, 3, 2)
        weights *= scale
        _softmax_last(weights)
        np.matmul(weights, v,
                  out=mixed_flat[rows].reshape(B, n, H, dk).transpose(0, 2, 1, 3))
        saved.append((q, k, v, weights))

    def backward(g):
        g = g.reshape(-1, E)
        dqkv = np.empty(flat.shape)
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
        qkv._accumulate(dqkv.reshape(qkv.shape), owned=True)
    return (_result(mixed, (qkv,), backward),
            [weights for _, _, _, weights in saved])


def check_finite(name: str, t: Tensor) -> Tensor:
    """Raise NumericError naming the layer if the activation went non-finite."""
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {name}")
    return t
