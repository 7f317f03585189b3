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

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

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


# Rows of the fixed GEMM tiles that `matmul` multiplies 2-D weights in.
# Not more: in tiles of 16 rows and up, OpenBLAS gave some float64 rows
# (O = 500, 1025, 1100) different bits at different positions.
TILE_ROWS = 8
# A 2-D weight whose output width is a multiple of this takes all its rows
# in one call, zero-padded to whole tiles, which gives each row the bits of
# its 8-row tile. Probed on OpenBLAS 0.3.31 (SkylakeX kernels), float32
# and float64, 1 and 2 threads: equal for O = 256, 512, 768, 1024, 1280,
# 2048 and 4096, I = 1 to 1088 and 1 to 2,000 rows; not for many other
# widths (8, 64, 128, 192, 200, 500, 504, 1000, 1016, 1025, 1100), nor
# without the padding: 1 row goes to GEMV, and 2-7 rows with
# n * I * O < 2**20 took other bits as well, which looks like OpenBLAS's
# small-matrix kernels.
SINGLE_CALL_WIDTH = 256


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


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Row-stable product: a row's bits depend only on the row and on the
    matrix shapes, never on which other rows share the call. This is what
    keeps batched decoding bit-identical to sequential decoding, and
    training on the same products as decoding.

    `a` is (N, I) or (N, M, I); `b` is a shared (I, O), or (N, I, O) or
    (1, I, O) with one matrix per item or one shared by all.

    A 2-D `b`, trainable or not, multiplies `a`'s rows, its leading axes
    flattened, in tiles of TILE_ROWS rows, the last one zero-padded. BLAS
    runs every row of a full GEMM tile through the same kernel code (Goto
    and van de Geijn, "Anatomy of High-Performance Matrix Multiplication",
    ACM TOMS 2008), so a row gets the same bits at any position in any
    tile. Where `b`'s output width is a multiple of SINGLE_CALL_WIDTH, the
    tiles are one BLAS call over all rows, which packs `b` once instead of
    once per tile; at those widths a row of that call gets its tile's bits
    (tests/test_tensor.py holds both at one and two BLAS threads).
    A 3-D `b` goes to np.matmul, which computes every leading-axis slice
    of stacked operands with its own BLAS call.
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

    out = _tiled(A, B) if B.ndim == 2 else np.matmul(A, B)
    return Tensor._result(out, (a, b), backward)


def _tiled(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B with A's rows in (TILE_ROWS, I) tiles. The full tiles are a
    view of A, and only the last n % TILE_ROWS rows are copied, into one
    zero-padded tile. An output width that is a multiple of
    SINGLE_CALL_WIDTH makes the tiles one call: A's rows as they are when
    they fill whole tiles, else a copy zero-padded to whole tiles."""
    rows = A.reshape(-1, A.shape[-1])
    n, O = rows.shape[0], B.shape[1]
    full = n - n % TILE_ROWS
    if O % SINGLE_CALL_WIDTH == 0:
        if full < n:
            rows = np.concatenate(
                (rows, np.zeros((full + TILE_ROWS - n, rows.shape[1]), rows.dtype)))
        return np.matmul(rows, B)[:n].reshape(*A.shape[:-1], O)
    out = np.empty((n, O), np.result_type(A, B))
    np.matmul(rows[:full].reshape(-1, TILE_ROWS, rows.shape[1]), B,
              out=out[:full].reshape(-1, TILE_ROWS, O))
    if full < n:
        tile = np.zeros((TILE_ROWS, rows.shape[1]), rows.dtype)
        tile[: n - full] = rows[full:]
        out[full:] = np.matmul(tile, B)[: n - full]
    return out.reshape(*A.shape[:-1], O)


# -- activations --------------------------------------------------------------


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


def lstm_gates(z: Tensor, c: Tensor, H: int) -> tuple[Tensor, Tensor]:
    """(h_new, c_new) of an LSTM cell from its (B, 4H) gate inputs `z` (gates
    i, f, g, o) and (B, H) state `c`: two graph nodes with the bits of the 13
    of `lstm_gates_composed` (tests/helpers.py); README's Determinism section
    says how. exp of a large negative gate input overflows to inf, which
    correctly gives 0."""
    zd = z.data
    with np.errstate(over="ignore"):
        i, f, o = [1.0 / (1.0 + np.exp(-zd[:, k * H : (k + 1) * H])) for k in (0, 1, 3)]
    g = np.tanh(zd[:, 2 * H : 3 * H])
    cd = f * c.data + i * g
    y = np.tanh(cd)

    def c_backward(gc):
        if z.requires_grad:
            gz = np.zeros_like(zd)
            gz[:, :H] += gc * g * i * (1.0 - i)
            gz[:, H : 2 * H] += gc * c.data * f * (1.0 - f)
            gz[:, 2 * H : 3 * H] += gc * i * (1.0 - g * g)
            z._accumulate(gz)
        if c.requires_grad:
            c._accumulate(gc * f)

    c_new = Tensor._result(cd, (z, c), c_backward)

    def h_backward(gh):
        if z.requires_grad:
            gz = np.zeros_like(zd)
            gz[:, 3 * H :] += gh * y * o * (1.0 - o)
            z._accumulate(gz)
        if c_new.requires_grad:
            c_new._accumulate(gh * o * (1.0 - y * y))

    return Tensor._result(o * y, (z, c_new), h_backward), c_new


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


def sqrt_clamped(a: Tensor) -> Tensor:
    """sqrt(max(a, 0)); the derivative denominator is floored at 1e-6.

    Used for standard deviations so that exactly-constant inputs yield
    exactly zero instead of a jittered epsilon.
    """
    y = np.sqrt(np.maximum(a.data, 0.0))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / (2.0 * np.maximum(y, 1e-6)))

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


def mean_(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        n = a.data.size
    elif isinstance(axis, int):
        n = a.data.shape[axis]
    else:
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    return mul(sum_(a, axis=axis), Tensor(np.asarray(1.0 / n, dtype=a.dtype)))


# -- shape surgery ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


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
    """Numpy indexing with scatter-add backward. A basic index (slices and
    ints) picks each element once, so its backward adds into zeros in place;
    np.add.at accumulates the repeats an integer array may hold."""
    basic = all(isinstance(p, (slice, int)) for p in (idx if isinstance(idx, tuple) else (idx,)))

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if basic:
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            a._accumulate(full)

    return Tensor._result(a.data[idx], (a,), backward)


# -- convolution and pooling --------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """'Same' 2-D convolution, stride 1.

    x: (B, H, W, Cin); w: (kh, kw, Cin, Cout); b: (Cout,)

    The input gradient adds g @ w[i, j].T tap by tap, with the bits of the
    (B H W, kh kw Cin) product it replaced (README, Determinism), but not at
    Cin = 1, whose only use, on the features, needs no input gradient, nor
    for some products with Co >= 64 and at most 1,200 outputs per tap,
    which `--vgg-channels` of a first width up to 16 and a second of 64 or
    more reaches (README, Determinism).
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
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i : i + H, j : j + W, :] += (gflat @ w.data[i, j].T).reshape(B, H, W, Ci)
            x._accumulate(gxp[:, ph : ph + H, pw : pw + W, :])

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._result(out, parents, backward)


# The taps of a 2x2 pooling window, in window (row-major) order.
_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2d_ceil(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows/cols kept (ceil mode).

    One pass over the taps in window order: a tap replaces the running
    maximum where it is greater, or where it is NaN and no NaN came before.
    So each output is its window's first maximum, as `argmax` picks it: of
    -0.0 and +0.0 the earlier tap wins, and a window holding a NaN gives its
    first NaN. The gradient goes to that one tap; the winning tap's index
    is recorded in the same pass."""
    out = x.data[:, ::2, ::2].copy()
    arg = np.zeros(out.shape, np.int8)
    for k, (i, j) in enumerate(_POOL_TAPS[1:], 1):
        v = x.data[:, i::2, j::2]
        m = out[:, : v.shape[1], : v.shape[2]]
        a = arg[:, : v.shape[1], : v.shape[2]]
        wins = ~(v <= m)
        wins &= m == m
        np.copyto(m, v, where=wins)
        # the last tap to win has the largest index
        np.maximum(a, wins.view(np.int8) * np.int8(k), out=a)

    def backward(g):
        gx = np.zeros_like(x.data)
        for k, (i, j) in enumerate(_POOL_TAPS):
            v = gx[:, i::2, j::2]
            h, w = v.shape[1:3]
            np.copyto(v, g[:, :h, :w], where=arg[:, :h, :w] == k)
        x._accumulate(gx)

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
    y = _windowed_sum_data(x.data, radius)[0]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_windowed_sum_data(g, radius)[0])

    return Tensor._result(y, (x,), backward)


def _windowed_sum_data(x: np.ndarray, radius: int, carry=None, last: bool = True):
    """(sums, running): the sums of x's rows over clamped windows [t-radius,
    t+radius] in x's dtype, and the float64 running sums they are the
    differences of.

    `x` may be one block of a longer sequence. `carry` is then the running
    sum of every row before the block (None when the block starts the
    sequence), and `last` is False when rows follow it. The block's first
    row adds `carry` before the running sum goes on, so the running sums
    have the bits of one pass over the whole sequence. Rows whose window
    crosses a block edge are left out: the sums start at row `radius` when
    `carry` is given and end `radius` rows early when not `last`.
    """
    c = x.astype(np.float64)
    if carry is not None:
        c[0] += carry
    np.cumsum(c, axis=0, out=c)
    m = x.shape[0]
    first = 0 if carry is None else radius
    stop = m if last else m - radius
    out = np.empty((stop - first, *x.shape[1:]))
    # window ends: row t + radius, or the sequence's last row past it
    inside = max(min(m - radius, stop), first)
    out[: inside - first] = c[first + radius : inside + radius]
    if inside < stop:
        out[inside - first :] = c[m - 1]
    # window starts: subtract the running sum before row t - radius
    if carry is not None:
        out[0] -= carry
    lo = max(radius + 1, first)
    if lo < stop:
        out[lo - first :] -= c[lo - radius - 1 : stop - radius - 1]
    return out.astype(x.dtype), c


def window_counts(T: int, radius: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Number of frames inside each clamped window of rows start..stop-1 of
    a T-row sequence; pairs with windowed_sum."""
    t = np.arange(start, T if stop is None else stop)
    return (np.minimum(t + radius, T - 1) - np.maximum(t - radius, 0) + 1).astype(np.float64)


__all__ = [
    "Tensor",
    "Parameter",
    "add",
    "sub",
    "neg",
    "mul",
    "matmul",
    "lstm_gates",
    "relu",
    "exp",
    "sqrt_clamped",
    "log_softmax",
    "softmax",
    "sum_",
    "mean_",
    "reshape",
    "concat",
    "stack",
    "take",
    "conv2d",
    "maxpool2d_ceil",
    "conv1d_single_channel",
    "windowed_sum",
    "window_counts",
]
