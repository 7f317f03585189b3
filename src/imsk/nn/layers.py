"""Neural layers: dense, LSTM/BLSTM, VGG-style conv blocks, statistics pooling.

Layers hold ``Parameter`` leaves and compose the ops from ``tensor``. Their
weights are drawn uniformly in [-INIT_SCALE, INIT_SCALE] from the generator
passed in, so a fixed seed reproduces a model bit for bit; with no
generator, as in a model that is to be loaded, every parameter starts at
zero and nothing is drawn.
"""

from __future__ import annotations

import copy

import numpy as np

from .tensor import (
    Parameter,
    Tensor,
    concat,
    conv2d,
    lstm_gates,
    matmul,
    maxpool2d_ceil,
    mul,
    relu,
    sqrt_clamped,
    stack,
    take,
    windowed_sum,
    window_counts,
)

INIT_SCALE = 0.1


def uniform_init(rng: np.random.Generator | None, shape, dtype) -> np.ndarray:
    if rng is None:
        return np.zeros(shape, dtype)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)


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
            shape = np.shape(state[name])
            if shape != p.data.shape:
                raise ValueError(f"shape mismatch for '{name}': {shape} vs {p.data.shape}")
            p.data = np.array(state[name], dtype=p.data.dtype)


def frozen(module: Module, dtype, keep=()) -> Module:
    """A deep copy of `module` for inference: every parameter becomes a
    constant `Tensor` cast to `dtype`, so calls on the copy build no
    autograd graph. Parameters under the attributes named in `keep` keep
    their own dtype and share the module's arrays."""
    memo = {}
    for path, p in module.named_params():
        kept = path.split(".")[0] in keep
        memo[id(p)] = Tensor(p.data if kept else p.data.astype(dtype))
    twin = copy.deepcopy(module, memo)
    twin.dtype = dtype
    return twin


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None, dtype=np.float32):
        self.w = Parameter(uniform_init(rng, (n_in, n_out), dtype))
        self.b = Parameter(np.zeros(n_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.w) + self.b


class LstmCell(Module):
    """Fused-weight LSTM cell; gate order i, f, g, o along the last axis."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator | None, dtype=np.float32):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.w = Parameter(uniform_init(rng, (n_in + n_hidden, 4 * n_hidden), dtype))
        self.b = Parameter(np.zeros(4 * n_hidden, dtype=dtype))

    def __call__(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        return lstm_gates(matmul(concat([x, h], axis=1), self.w) + self.b, c, self.n_hidden)

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
    """Unidirectional LSTM; the backward direction reads each sequence
    reversed and returns its outputs in input order.

    The input projection `x @ wx` is taken out of the frame loop, which
    then recurs only through the hidden term, one step for all rows.
    """

    def __init__(
        self, n_in: int, n_hidden: int, rng: np.random.Generator | None, dtype=np.float32, reverse: bool = False
    ):
        self.cell = LstmCell(n_in, n_hidden, rng, dtype)
        self.reverse = reverse

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        """Padded (B, T, n_in) -> (B, T, H), projected as one batch. Outputs
        past a row's length carry no meaning; callers ignore them
        (attention masks those frames, CTC slices them off)."""
        B, T, _ = x.shape
        if self.reverse:
            # reverses each row's first `length` frames; an involution
            flip = (np.arange(B)[:, None], _reverse_index(lengths, T))
            x = take(x, flip)
        n_in, H = self.cell.n_in, self.cell.n_hidden
        xw = matmul(x, take(self.cell.w, (slice(0, n_in), slice(None))))
        wh = take(self.cell.w, (slice(n_in, n_in + H), slice(None)))
        h, c = self.cell.zero_state(B, xw.dtype)
        outs = []
        for t in range(T):
            z = take(xw, (slice(None), t)) + matmul(h, wh) + self.cell.b
            h, c = lstm_gates(z, c, H)
            outs.append(h)
        y = stack(outs, axis=1)
        return take(y, flip) if self.reverse else y


class Blstm(Module):
    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator | None, dtype=np.float32):
        self.fw = Lstm(n_in, n_hidden, rng, dtype)
        self.bw = Lstm(n_in, n_hidden, rng, dtype, reverse=True)

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        return concat([self.fw(x, lengths), self.bw(x, lengths)], axis=2)


class VggBlock(Module):
    """Two same-padded 3x3 convolutions with ReLU, then ceil-mode 2x2 max pool.

    Time and frequency each shrink to ceil(n/2). Nothing is masked, so a
    (B, T, F, C) input holds utterances of T frames each; the recognizer
    passes one utterance at a time.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator | None, dtype=np.float32):
        self.w1 = Parameter(uniform_init(rng, (3, 3, c_in, c_out), dtype))
        self.b1 = Parameter(np.zeros(c_out, dtype=dtype))
        self.w2 = Parameter(uniform_init(rng, (3, 3, c_out, c_out), dtype))
        self.b2 = Parameter(np.zeros(c_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(conv2d(x, self.w1, self.b1))
        return maxpool2d_ceil(relu(conv2d(h, self.w2, self.b2)))


class Embedding(Module):
    def __init__(self, n_tokens: int, dim: int, rng: np.random.Generator | None, dtype=np.float32):
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
        s1, s2 = windowed_sum(x, self.radius), windowed_sum(x * x, self.radius)
        return self.stats(x, s1, s2, window_counts(x.shape[0], self.radius))

    @staticmethod
    def stats(x: Tensor, s1: Tensor, s2: Tensor, counts: np.ndarray) -> Tensor:
        """[x, mean, std] per row, from the sums s1 of x and s2 of x * x
        over windows of `counts` rows each."""
        inv_n = Tensor((1.0 / counts)[:, None].astype(x.dtype))
        m1 = mul(s1, inv_n)
        m2 = mul(s2, inv_n)
        std = sqrt_clamped(m2 - m1 * m1)
        return concat([x, m1, std], axis=1)
