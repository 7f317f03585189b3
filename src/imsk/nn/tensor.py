"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar result walks the graph in reverse topological
order and accumulates gradients into every tensor with ``requires_grad``.
Only the operations needed by the recognizer are provided: elementwise
arithmetic, matmul, activations, reductions, shape surgery, gathering,
2-D/1-D convolution, ceil-mode max pooling and a windowed running sum.

All data stays in whatever float dtype the caller supplies; training code
uses float32, gradient checks and decoding use float64.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node is not self and node._parents:
                # interior activations are not needed once propagated
                node.grad = None

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self.dtype))

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor with a name used in checkpoints and diagnostics."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "param"):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name


# Column-block width and size threshold of `BlockedMatrix`: constants, so a
# row's product depends only on the row and on the matrix shapes.
BLOCK_COLUMNS = 128
BLOCK_MIN_BYTES = 2 << 20


class BlockedMatrix(Tensor):
    """A constant (I, O) matrix, O a multiple of BLOCK_COLUMNS, that also
    holds its columns as one contiguous (O / BLOCK_COLUMNS, I, BLOCK_COLUMNS)
    array of blocks, which `matmul` multiplies rows by."""

    __slots__ = ("_blocks",)

    def __init__(self, data):
        super().__init__(data)
        self._blocks = None

    @property
    def blocks(self) -> np.ndarray:
        # copied at the first product, so a matrix only indexed (an
        # embedding table) costs no second copy
        if self._blocks is None:
            I, O = self.data.shape
            self._blocks = np.ascontiguousarray(
                self.data.reshape(I, O // BLOCK_COLUMNS, BLOCK_COLUMNS).transpose(1, 0, 2)
            )
        return self._blocks


def constant(data: np.ndarray) -> Tensor:
    """A tensor outside any graph; an (I, O) matrix of more than
    BLOCK_MIN_BYTES whose O is a multiple of BLOCK_COLUMNS is a
    `BlockedMatrix`."""
    if data.ndim == 2 and data.nbytes > BLOCK_MIN_BYTES and data.shape[1] % BLOCK_COLUMNS == 0:
        return BlockedMatrix(data)
    return Tensor(data)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _toposort(root: Tensor) -> list[Tensor]:
    # iterative DFS: graph depth grows with sequence length, so no recursion
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor._result(a.data - b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return Tensor._result(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._result(a.data / b.data, (a, b), backward)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Row-stable product: each item along the leading axis is multiplied
    on its own, so a row's bits depend only on the row and on the matrix
    shapes.

    `a` is (N, I), taken row by row, or (N, M, I), taken item by item; `b`
    is a shared (I, O), or (N, I, O) or (1, I, O) with one matrix per item
    or one shared by all. np.matmul computes every leading-axis slice of
    stacked operands with its own BLAS call, so an item's result never
    depends on how many items share the call; a single 2-D product would
    not give that, since BLAS may sum an M=1 product differently from an
    M>1 one. This is what keeps batched decoding bit-identical to
    sequential decoding.

    Rows against a `BlockedMatrix` are multiplied block by block, so each
    block stays in cache while every row passes over it; a row still gets
    its own BLAS call per block. OpenBLAS sums each output column from the
    row and that column alone, in a kernel picked by the column's offset in
    the call and in the call's thread chunk. Blocks start at multiples of
    BLOCK_COLUMNS and O is a multiple of it, so at one or two BLAS threads
    every column meets the kernel, and so gets the bits, of one call over
    all O columns (tests/test_tensor.py holds the two products equal).
    """
    A, B = a.data, b.data
    shared = B.ndim == 2 or B.shape[0] == 1
    if A.ndim not in (2, 3) or B.ndim not in (2, 3) or (B.ndim == 3 and A.ndim == 2):
        raise ValueError(f"matmul expects (N, I) or (N, M, I) @ (I, O) or (N|1, I, O): {A.shape} @ {B.shape}")
    if A.shape[-1] != B.shape[-2] or not (shared or B.shape[0] == A.shape[0]):
        raise ValueError(f"matmul shape mismatch: {A.shape} @ {B.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, np.swapaxes(B, -1, -2)))
        if b.requires_grad:
            if shared:
                gb = A.reshape(-1, A.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(A, 1, 2), g)
            b._accumulate(gb.reshape(B.shape))

    if A.ndim == 3:
        out = np.matmul(A, B)
    elif isinstance(b, BlockedMatrix):
        # (O / w, N, 1, w): each block in turn meets every row
        out = np.matmul(A[None, :, None, :], b.blocks[:, None])
        out = out.transpose(1, 0, 2, 3).reshape(A.shape[0], -1)
    else:
        out = np.matmul(A[:, None, :], B)[:, 0]
    return Tensor._result(out, (a, b), backward)


# -- activations --------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return Tensor._result(y, (a,), backward)


def tanh_addmm(a: Tensor, x: Tensor, w: Tensor, c: Tensor) -> Tensor:
    """tanh((a + x @ w) + c), bit for bit as `tanh(add(add(a, matmul(x, w)),
    c))` computes it, forward and backward, but with one array for the
    product, both sums and the result: the sums are added in that order in
    place into the product, which only this op sees (the product's backward
    reads its operands, never its output), and tanh writes over them. `a`
    and `c` broadcast to the product's shape and share its dtype.
    """
    xw = matmul(x, w)
    y = xw.data
    if a.dtype != y.dtype or c.dtype != y.dtype:
        raise ValueError(f"tanh_addmm dtypes differ: {a.dtype}, {y.dtype}, {c.dtype}")
    y += a.data
    y += c.data
    np.tanh(y, out=y)

    def backward(g):
        g = g * (1.0 - y * y)
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if xw.requires_grad:
            xw._accumulate(g)
        if c.requires_grad:
            c._accumulate(_unbroadcast(g, c.data.shape))

    # parents in the order the composition's graph visits them
    return Tensor._result(y, (a, xw, c), backward)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return Tensor._result(y, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor._result(a.data * mask, (a,), backward)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y)

    return Tensor._result(y, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return Tensor._result(np.log(a.data), (a,), backward)


def sqrt_clamped(a: Tensor, grad_floor: float = 1e-6) -> Tensor:
    """sqrt(max(a, 0)); the derivative denominator is floored at `grad_floor`.

    Used for standard deviations so that exactly-constant inputs yield
    exactly zero instead of a jittered epsilon.
    """
    y = np.sqrt(np.maximum(a.data, 0.0))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / (2.0 * np.maximum(y, grad_floor)))

    return Tensor._result(y, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Row-stable log-softmax along the last axis."""
    m = a.data.max(axis=-1, keepdims=True)
    z = a.data - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return Tensor._result(y, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    return exp(log_softmax(a))


# -- reductions ---------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    elif isinstance(axis, int):
        n = a.data.shape[axis]
    else:
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(np.asarray(1.0 / n, dtype=a.dtype)))


# -- shape surgery ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inv))

    return Tensor._result(a.data.transpose(axes), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    def backward(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._result(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def take(a: Tensor, idx) -> Tensor:
    """Numpy indexing (slices or integer arrays) with scatter-add backward."""

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)

    return Tensor._result(a.data[idx], (a,), backward)


# -- convolution and pooling --------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """'Same' 2-D convolution, stride 1.

    x: (B, H, W, Cin); w: (kh, kw, Cin, Cout); b: (Cout,)
    """
    B, H, W, Ci = x.data.shape
    kh, kw, wci, Co = w.data.shape
    if wci != Ci:
        raise ValueError(f"conv2d channel mismatch: input {Ci}, kernel {wci}")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # (B, H, W, Ci, kh, kw) -> (B*H*W, kh*kw*Ci)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(B * H * W, kh * kw * Ci)
    wmat = w.data.reshape(kh * kw * Ci, Co)
    out = cols @ wmat
    if b is not None:
        out = out + b.data
    out = out.reshape(B, H, W, Co)

    def backward(g):
        gflat = g.reshape(B * H * W, Co)
        if w.requires_grad:
            w._accumulate((cols.T @ gflat).reshape(kh, kw, Ci, Co))
        if b is not None and b.requires_grad:
            b._accumulate(gflat.sum(axis=0))
        if x.requires_grad:
            gcols = (gflat @ wmat.T).reshape(B, H, W, kh, kw, Ci)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i : i + H, j : j + W, :] += gcols[:, :, :, i, j, :]
            x._accumulate(gxp[:, ph : ph + H, pw : pw + W, :])

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._result(out, parents, backward)


def maxpool2d_ceil(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows/cols kept (ceil mode)."""
    B, H, W, C = x.data.shape
    Ho, Wo = (H + 1) // 2, (W + 1) // 2
    xp = np.pad(
        x.data,
        ((0, 0), (0, 2 * Ho - H), (0, 2 * Wo - W), (0, 0)),
        constant_values=-np.inf,
    )
    win = xp.reshape(B, Ho, 2, Wo, 2, C).transpose(0, 1, 3, 5, 2, 4).reshape(B, Ho, Wo, C, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        if not x.requires_grad:
            return
        gw = np.zeros_like(win)
        np.put_along_axis(gw, arg[..., None], g[..., None], axis=-1)
        gxp = gw.reshape(B, Ho, Wo, C, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(B, 2 * Ho, 2 * Wo, C)
        x._accumulate(gxp[:, :H, :W, :])

    return Tensor._result(out, (x,), backward)


def conv1d_single_channel(x: Tensor, w: Tensor) -> Tensor:
    """'Same' 1-D convolution of a (B, T) signal with a (K, C) kernel -> (B, T, C)."""
    B, T = x.data.shape
    K, C = w.data.shape
    p = K // 2
    xp = np.zeros((B, T + 2 * p), dtype=x.data.dtype)  # np.pad costs more than the product
    xp[:, p : p + T] = x.data
    cols = np.lib.stride_tricks.sliding_window_view(xp, K, axis=1)  # (B, T, K)
    out = np.matmul(cols, w.data)  # row-stable, as in matmul

    def backward(g):
        gflat = g.reshape(B * T, C)
        if w.requires_grad:
            w._accumulate(cols.reshape(B * T, K).T @ gflat)
        if x.requires_grad:
            gcols = (gflat @ w.data.T).reshape(B, T, K)
            gxp = np.zeros_like(xp)
            for k in range(K):
                gxp[:, k : k + T] += gcols[:, :, k]
            x._accumulate(gxp[:, p : p + T])

    return Tensor._result(out, (x, w), backward)


def windowed_sum(x: Tensor, radius: int) -> Tensor:
    """Running sum of rows over a clamped window [t-radius, t+radius].

    The operator is self-adjoint for a symmetric clamped window, so the
    backward pass is the same windowed sum applied to the gradient.
    """
    y = _windowed_sum_data(x.data, radius)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_windowed_sum_data(g, radius))

    return Tensor._result(y, (x,), backward)


def _windowed_sum_data(x: np.ndarray, radius: int) -> np.ndarray:
    T = x.shape[0]
    c = np.cumsum(x.astype(np.float64), axis=0)
    hi = np.minimum(np.arange(T) + radius, T - 1)
    lo = np.arange(T) - radius - 1
    out = c[hi]
    valid = lo >= 0
    out[valid] -= c[lo[valid]]
    return out.astype(x.dtype)


def window_counts(T: int, radius: int) -> np.ndarray:
    """Number of frames inside each clamped window; pairs with windowed_sum."""
    t = np.arange(T)
    return (np.minimum(t + radius, T - 1) - np.maximum(t - radius, 0) + 1).astype(np.float64)


__all__ = [
    "Tensor",
    "Parameter",
    "BlockedMatrix",
    "constant",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "tanh",
    "sigmoid",
    "relu",
    "exp",
    "log",
    "sqrt_clamped",
    "log_softmax",
    "softmax",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "take",
    "conv2d",
    "maxpool2d_ceil",
    "conv1d_single_channel",
    "windowed_sum",
    "window_counts",
]
