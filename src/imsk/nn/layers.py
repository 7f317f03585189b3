"""Neural layers: dense, LSTM/BLSTM, VGG-style conv blocks, statistics pooling.

Layers hold ``Parameter`` leaves and compose the ops from ``tensor``; all
parameters are initialized uniformly in [-init_scale, init_scale] from the
generator passed in, so a fixed seed reproduces a model bit for bit.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Parameter,
    Tensor,
    concat,
    conv2d,
    matmul,
    maxpool2d_ceil,
    mul,
    relu,
    sigmoid,
    sqrt_clamped,
    stack,
    take,
    tanh,
    windowed_sum,
    window_counts,
)

INIT_SCALE = 0.1
NEG_FILL = -1.0e30  # finite stand-in for -inf inside masked conv stacks


def uniform_init(rng: np.random.Generator, shape, dtype, scale: float = INIT_SCALE) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


class Module:
    """Minimal parameter container with dotted-path naming."""

    def named_params(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out: list[tuple[str, Parameter]] = []
        for key, val in vars(self).items():
            path = f"{prefix}{key}" if prefix else key
            if isinstance(val, Parameter):
                val.name = path
                out.append((path, val))
            elif isinstance(val, Module):
                out.extend(val.named_params(path + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_params(f"{path}.{i}."))
                    elif isinstance(item, Parameter):
                        item.name = f"{path}.{i}"
                        out.append((f"{path}.{i}", item))
        return out

    def params(self) -> list[Parameter]:
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data) for name, p in self.named_params()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        own = dict(self.named_params())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float32):
        self.w = Parameter(uniform_init(rng, (n_in, n_out), dtype))
        self.b = Parameter(np.zeros(n_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.w) + self.b


class LstmCell(Module):
    """Fused-weight LSTM cell; gate order i, f, g, o along the last axis."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.w = Parameter(uniform_init(rng, (n_in + n_hidden, 4 * n_hidden), dtype))
        self.b = Parameter(np.zeros(4 * n_hidden, dtype=dtype))

    def __call__(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        z = matmul(concat([x, h], axis=1), self.w) + self.b
        with np.errstate(over="ignore"):
            return self._apply_gates(z, c)

    def _apply_gates(self, z: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Callers hold np.errstate(over="ignore"): a sigmoid gate of a
        large negative input overflows exp to inf and correctly gives 0."""
        H = self.n_hidden
        i = sigmoid(take(z, (slice(None), slice(0, H))))
        f = sigmoid(take(z, (slice(None), slice(H, 2 * H))))
        g = tanh(take(z, (slice(None), slice(2 * H, 3 * H))))
        o = sigmoid(take(z, (slice(None), slice(3 * H, 4 * H))))
        c_new = f * c + i * g
        h_new = o * tanh(c_new)
        return h_new, c_new

    def zero_state(self, batch: int, dtype) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.n_hidden), dtype=dtype)
        return Tensor(z.copy()), Tensor(z.copy())


def _reverse_index(lengths: np.ndarray, T: int) -> np.ndarray:
    """Per-row index that reverses the first `length` entries; involution."""
    idx = np.tile(np.arange(T), (len(lengths), 1))
    for b, L in enumerate(lengths):
        idx[b, :L] = np.arange(L - 1, -1, -1)
    return idx


class Lstm(Module):
    """Unidirectional LSTM over padded (B, T, n_in) sequences."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, dtype=np.float32, reverse: bool = False):
        self.cell = LstmCell(n_in, n_hidden, rng, dtype)
        self.reverse = reverse

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        B, T, n_in = x.shape
        H = self.cell.n_hidden
        dtype = x.dtype
        bidx = np.arange(B)[:, None]
        if self.reverse:
            ridx = _reverse_index(lengths, T)
            x = take(x, (bidx, ridx))
        # project all inputs at once; recur only through the hidden term
        wx = take(self.cell.w, (slice(0, n_in), slice(None)))
        wh = take(self.cell.w, (slice(n_in, n_in + H), slice(None)))
        xw = matmul(x, wx)
        full = bool(np.all(lengths == T))
        h, c = self.cell.zero_state(B, dtype)
        outs = []
        with np.errstate(over="ignore"):
            for t in range(T):
                z = take(xw, (slice(None), t)) + matmul(h, wh) + self.cell.b
                h_new, c_new = self.cell._apply_gates(z, c)
                if full:
                    h, c = h_new, c_new
                else:
                    m = Tensor((t < lengths)[:, None].astype(dtype))
                    keep = Tensor((1.0 - m.data).astype(dtype))
                    h = h_new * m + h * keep
                    c = c_new * m + c * keep
                outs.append(h)
        y = stack(outs, axis=1)
        if self.reverse:
            y = take(y, (bidx, ridx))
        return y


class Blstm(Module):
    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.fw = Lstm(n_in, n_hidden, rng, dtype)
        self.bw = Lstm(n_in, n_hidden, rng, dtype, reverse=True)

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        return concat([self.fw(x, lengths), self.bw(x, lengths)], axis=2)


class VggBlock(Module):
    """Two same-padded 3x3 convolutions with ReLU, then ceil-mode 2x2 max pool.

    Time and frequency each shrink to ceil(n/2). Padded time frames are
    zeroed before and after every conv and excluded from pooling so batched
    and single-utterance forward passes agree regardless of pad contents.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, dtype=np.float32):
        self.w1 = Parameter(uniform_init(rng, (3, 3, c_in, c_out), dtype))
        self.b1 = Parameter(np.zeros(c_out, dtype=dtype))
        self.w2 = Parameter(uniform_init(rng, (3, 3, c_out, c_out), dtype))
        self.b2 = Parameter(np.zeros(c_out, dtype=dtype))

    def __call__(self, x: Tensor, lengths: np.ndarray) -> tuple[Tensor, np.ndarray]:
        B, T, F, _ = x.shape
        dtype = x.dtype
        full = bool(np.all(lengths == T))
        if not full:
            m = Tensor((np.arange(T)[None, :] < lengths[:, None]).astype(dtype)[:, :, None, None])
            x = x * m
        h = relu(conv2d(x, self.w1, self.b1))
        if not full:
            h = h * m
        h = relu(conv2d(h, self.w2, self.b2))
        if not full:
            h = h * m + Tensor(((1.0 - m.data) * NEG_FILL).astype(dtype))
        y = maxpool2d_ceil(h)
        new_lengths = (lengths + 1) // 2
        if not full:
            T2 = y.shape[1]
            m2 = Tensor((np.arange(T2)[None, :] < new_lengths[:, None]).astype(dtype)[:, :, None, None])
            y = y * m2
        return y, new_lengths


class Embedding(Module):
    def __init__(self, n_tokens: int, dim: int, rng: np.random.Generator, dtype=np.float32):
        self.table = Parameter(uniform_init(rng, (n_tokens, dim), dtype))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return take(self.table, np.asarray(ids, dtype=np.int64))


class StatsPooling(Module):
    """Append windowed mean and standard deviation to each frame.

    Input (T, D) -> output (T, 3D). The window is [t-radius, t+radius]
    clamped to the sequence; a constant input yields exactly zero stddev.
    """

    def __init__(self, radius: int):
        self.radius = radius

    def __call__(self, x: Tensor) -> Tensor:
        T = x.shape[0]
        inv_n = Tensor((1.0 / window_counts(T, self.radius))[:, None].astype(x.dtype))
        m1 = mul(windowed_sum(x, self.radius), inv_n)
        m2 = mul(windowed_sum(x * x, self.radius), inv_n)
        std = sqrt_clamped(m2 - m1 * m1)
        return concat([x, m1, std], axis=1)
