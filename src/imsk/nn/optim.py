"""Optimizers, gradient clipping, and the training loop of every model.

AdaDelta is the main training optimizer (rho=0.95, eps=1e-8 defaults); the
eps member is mutable so the training loop can halve it when validation
accuracy stalls. SGD and Adam exist for the language models.
"""

from __future__ import annotations

import time

import numpy as np

from .tensor import Parameter

CLIP = 5.0  # global gradient-norm threshold of every trainer


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient contained NaN or infinity."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss or parameter."""


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(params, threshold: float) -> float:
    """Scale all gradients so the global L2 norm is at most `threshold`.

    Returns the pre-clip norm. Idempotent: a second call sees a norm equal
    to the threshold and leaves the gradients alone.
    """
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    norm = global_grad_norm(params)
    if norm > threshold:
        scale = threshold / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def _check_finite_grad(p: Parameter, g: np.ndarray):
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError(f"non-finite gradient in parameter '{p.name}'")


class AdaDelta:
    """Per-parameter adaptive steps from running squared-gradient/update averages."""

    def __init__(self, params, rho: float = 0.95, eps: float = 1e-8):
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.params = list(params)
        self.rho = rho
        self.eps = eps
        self.acc_grad = [np.zeros_like(p.data) for p in self.params]
        self.acc_update = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, eg2, ex2 in zip(self.params, self.acc_grad, self.acc_update):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            _check_finite_grad(p, g)
            eg2 *= self.rho
            eg2 += (1.0 - self.rho) * g * g
            update = -np.sqrt(ex2 + self.eps) / np.sqrt(eg2 + self.eps) * g
            ex2 *= self.rho
            ex2 += (1.0 - self.rho) * update * update
            p.data += update
            if not np.all(np.isfinite(p.data)):
                raise DivergedError(f"non-finite values in parameter '{p.name}' after update")
            p.grad = None

    def halve_eps(self):
        self.eps *= 0.5


class Sgd:
    def __init__(self, params, lr: float = 0.5):
        self.params = list(params)
        self.lr = lr

    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            _check_finite_grad(p, p.grad)
            p.data -= self.lr * p.grad
            p.grad = None


class Adam:
    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            _check_finite_grad(p, g)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p.grad = None


def make_optimizer(kind: str, params, **kwargs):
    kind = kind.lower()
    if kind == "adadelta":
        return AdaDelta(params, **kwargs)
    if kind == "sgd":
        return Sgd(params, **kwargs)
    if kind == "adam":
        return Adam(params, **kwargs)
    raise ValueError(f"unknown optimizer kind '{kind}'")


def make_batches(items: list, batch_size: int, length=lambda item: len(item[0])) -> list[list]:
    """Length-sorted batches so padding inside a batch stays small; by
    default an item is (input, ...), sorted by the input's length."""
    order = sorted(range(len(items)), key=lambda i: (length(items[i]), i))
    return [[items[i] for i in order[s : s + batch_size]] for s in range(0, len(order), batch_size)]


def fit(params, opt, batches, rng, loss_of, epochs: int, clip: float = CLIP):
    """Visit `batches` in a new random order each epoch, taking one clipped
    step per batch on loss_of(batch) = (scalar loss, weight in the epoch's
    mean); after each epoch yield (epoch, weighted mean loss, largest
    pre-clip gradient norm, wall seconds of its steps), and resume only
    when asked for the next."""
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        total = weight_sum = norm_max = 0.0
        for bi in rng.permutation(len(batches)):
            loss, weight = loss_of(batches[bi])
            if not np.isfinite(loss.item()):
                raise DivergedError(f"non-finite training loss at epoch {epoch}, batch {bi}")
            for p in params:
                p.grad = None
            loss.backward()
            norm_max = max(norm_max, clip_gradients(params, clip))
            opt.step()
            total += loss.item() * weight
            weight_sum += weight
        yield epoch, total / weight_sum, norm_max, time.perf_counter() - started
