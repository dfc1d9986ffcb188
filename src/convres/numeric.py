"""Dense numeric kernels: seeded PRNG, activations, Adam, gradient checking.

Everything runs in float64. All randomness flows through SeededRng, so any
run is reproducible bit for bit from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import ConfigError, ShapeError, TrainingError

# splitmix64 constants (Steele, Lea & Flood's SplittableRandom mixer)
_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


class SeededRng:
    """Counter-based splitmix64 stream.

    Draw number i (1-based) of a stream with key s is mix64(s + i*PHI),
    the canonical splitmix64 sequence started at state s. Identical seeds
    therefore give identical draw sequences on every platform. Uniform
    doubles take the top 53 bits of a draw.
    """

    def __init__(self, seed: int):
        self._key = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws."""
        with np.errstate(over="ignore"):
            idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
            out = _mix64(self._key + idx * _PHI)
        self._count += n
        return out

    def give_back(self, n: int) -> None:
        """Return the last n draws to the stream: the next draw is the one
        that followed the draw n places back."""
        if not 0 <= n <= self._count:
            raise ConfigError(f"give_back: cannot return {n} of the {self._count} draws made")
        self._count -= n

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None) -> np.ndarray | float:
        """Uniform draws in [lo, hi)."""
        n = 1 if size is None else int(np.prod(size))
        u = (self.raw(n) >> _U64(11)) * (2.0 ** -53)
        v = lo + u * (hi - lo)
        if size is None:
            return float(v[0])
        return v.reshape(size)

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n)."""
        u = self.uniform(size=size)
        if size is None:
            return min(int(u * n), n - 1)
        return np.minimum((u * n).astype(np.int64), n - 1)

    def bernoulli(self, p: float, size) -> np.ndarray:
        return self.uniform(size=size) < p

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.

        Step i (from len - 1 down to 1) swaps items[i] with items[j],
        j = min(int(u * (i + 1)), i), for the stream's next uniform u; all
        the uniforms are drawn in one call.
        """
        n = len(items)
        if n < 2:
            return
        i = np.arange(n - 1, 0, -1)
        j = np.minimum((self.uniform(size=n - 1) * (i + 1)).astype(np.int64), i)
        for a, b in zip(i.tolist(), j.tolist()):
            items[a], items[b] = items[b], items[a]

    def spawn(self, tag: int) -> "SeededRng":
        """Derived stream with a key decorrelated from this one by `tag`."""
        with np.errstate(over="ignore"):
            key = _mix64(np.atleast_1d(self._key ^ _mix64(np.atleast_1d(_U64(tag) * _PHI + _MIX2))[0]))[0]
        return SeededRng(int(key))


@dataclass
class ParamTensor:
    """A named trainable array with its gradient and Adam moments."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    step: int = field(init=False, default=0)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)  # C-ordered, so flat views write through
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b for a single vector x."""
    x = np.asarray(x, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if W.ndim != 2 or x.shape != (W.shape[1],):
        raise ShapeError(f"affine: weights {W.shape} do not accept input {x.shape}")
    if b.shape != (W.shape[0],):
        raise ShapeError(f"affine: bias {b.shape} does not match weights {W.shape}")
    return W @ x + b


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; no overflow for any finite z."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(np.asarray(z, dtype=np.float64))
    if kind == "sigmoid":
        return sigmoid(z)
    raise ConfigError(f"unknown activation kind: {kind!r}")


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logsumexp(a: np.ndarray, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return float(out.reshape(())) if axis is None else np.squeeze(out, axis=axis)


def uniform_init(rng: SeededRng, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
    """I.i.d. uniform matrix in [lo, hi), deterministic per rng state."""
    if not lo < hi:
        raise ConfigError(f"uniform_init: need lo < hi, got [{lo}, {hi})")
    return rng.uniform(lo, hi, (rows, cols))


def adam_step(
    p: ParamTensor,
    lr: float = 2e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamTensor:
    """Bias-corrected Adam update in place; increments p.step.

    p.m, p.v and p.value are updated in place through two scratch arrays,
    with the operations of the textbook expression in the same order, so the
    result is the same to the last bit. The caller owns zeroing p.grad
    afterwards.
    """
    if not np.isfinite(p.grad).all():
        raise TrainingError(f"non-finite gradient in tensor '{p.name}'")
    p.step += 1
    g = p.grad
    a = np.multiply(1.0 - beta1, g)
    p.m *= beta1
    p.m += a
    b = np.multiply(g, g)
    b *= 1.0 - beta2
    p.v *= beta2
    p.v += b
    np.divide(p.m, 1.0 - beta1 ** p.step, out=a)  # m_hat
    np.divide(p.v, 1.0 - beta2 ** p.step, out=b)  # v_hat
    a *= lr
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p.value -= a
    return p


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: Sequence[ParamTensor],
    delta: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Each p.grad must already hold the analytic gradient of loss_fn; loss_fn
    must be a pure, deterministic forward evaluation (dropout disabled).
    The relative error of one entry is |a - n| / max(1, |a|, |n|).
    """
    worst = 0.0
    for p in params:
        flat_v = p.value.reshape(-1)
        flat_g = p.grad.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + delta
            up = loss_fn()
            flat_v[i] = orig - delta
            down = loss_fn()
            flat_v[i] = orig
            numeric = (up - down) / (2.0 * delta)
            analytic = flat_g[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst
