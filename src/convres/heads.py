"""Label classifiers over the encoded sentence vector.

Three backprop-trained heads share the same parameter inventory:

  logistic      p = sigmoid(W0 x + b0)
  residual      z_0 = W0 x + b0
                q_i = G_i^T sigmoid(z_{i-1}) + c_i
                z_i = W0 x + b_i + sum_{t<=i} W_t sigmoid(q_t)
  plain         z_0 = W0 x + b0
                q_i = G_i^T sigmoid(z_{i-1}) + c_i
                z_i = W_i sigmoid(q_i) + b_i

The residual recurrence re-adds the base projection W0 x and every earlier
layer's W_t sigmoid(q_t) term at each depth; the plain recurrence keeps the
identical parameter set but drops those shortcut terms. All three are one
StackedHead class that branches on its `shortcut` flag: the logistic head is
the stack at depth 0, its base term z_0 alone. Forward and backward operate
on batches, one row per document.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .numeric import ParamTensor, SeededRng, sigmoid


def _init_matrix(rng: SeededRng, name: str, rows: int, cols: int) -> ParamTensor:
    return ParamTensor(name, rng.uniform(-0.01, 0.01, (rows, cols)))


def _zero_vector(name: str, n: int) -> ParamTensor:
    return ParamTensor(name, np.zeros(n))


class StackedHead:
    """Logistic, residual and plain heads: one parameter layout, one forward/backward.

    `shortcut` is the only difference between residual and plain: with it,
    every depth re-adds the base projection W0 x and the running sum of
    W_t sigmoid(q_t). At depth 0 both are the logistic head.
    """

    shortcut: bool

    def __init__(self, n_labels: int, input_dim: int, n_layers: int,
                 hidden_sizes: tuple[int, ...] | None, rng: SeededRng):
        if hidden_sizes is None:
            hidden_sizes = (n_labels,) * n_layers
        if len(hidden_sizes) != n_layers:
            raise ConfigError(
                f"{n_layers} layers but {len(hidden_sizes)} hidden sizes given"
            )
        self.n_labels = n_labels
        self.input_dim = input_dim
        self.n_layers = n_layers
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.W0 = _init_matrix(rng, "head_w0", n_labels, input_dim)
        self.b = [_zero_vector(f"head_b{i}", n_labels) for i in range(n_layers + 1)]
        depths = list(enumerate(self.hidden_sizes, start=1))
        self.W = [_init_matrix(rng, f"head_w{i}", n_labels, h) for i, h in depths]
        self.G = [_init_matrix(rng, f"head_g{i}", n_labels, h) for i, h in depths]
        self.c = [_zero_vector(f"head_c{i}", h) for i, h in depths]

    def params(self) -> list[ParamTensor]:
        out = [self.W0, self.b[0]]
        for i in range(self.n_layers):
            out += [self.W[i], self.G[i], self.c[i], self.b[i + 1]]
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, X: np.ndarray):
        base = X @ self.W0.value.T
        Z = [base + self.b[0].value]
        S = [sigmoid(Z[0])]
        Q, U = [], []
        acc = 0.0
        for i in range(self.n_layers):
            q = S[i] @ self.G[i].value + self.c[i].value
            u = sigmoid(q)
            if self.shortcut:
                acc = acc + u @ self.W[i].value.T
                z = base + self.b[i + 1].value + acc
            else:
                z = u @ self.W[i].value.T + self.b[i + 1].value
            Q.append(q)
            U.append(u)
            Z.append(z)
            S.append(sigmoid(z))
        P = S[-1]
        return P, {"X": X, "Z": Z, "S": S, "U": U, "Q": Q}

    def backward(self, cache, dZn: np.ndarray) -> np.ndarray:
        X, S, U = cache["X"], cache["S"], cache["U"]
        g_z = dZn
        # gradient reaching each W_t sigmoid(q_t) term (and finally W0 x):
        # with shortcuts it is the sum of dL/dz over this and every deeper z
        running = 0.0
        for i in range(self.n_layers, 0, -1):
            running = running + g_z if self.shortcut else g_z
            du = running @ self.W[i - 1].value
            dq = du * U[i - 1] * (1.0 - U[i - 1])
            self.W[i - 1].grad += running.T @ U[i - 1]
            self.G[i - 1].grad += S[i - 1].T @ dq
            self.c[i - 1].grad += dq.sum(axis=0)
            self.b[i].grad += g_z.sum(axis=0)
            g_z = (dq @ self.G[i - 1].value.T) * S[i - 1] * (1.0 - S[i - 1])
        self.b[0].grad += g_z.sum(axis=0)
        running = running + g_z if self.shortcut else g_z
        self.W0.grad += running.T @ X
        return running @ self.W0.value


class LogisticHead(StackedHead):
    """Independent per-label logistic regression on the encoded vector."""

    shortcut = False

    def __init__(self, n_labels: int, input_dim: int, rng: SeededRng):
        super().__init__(n_labels, input_dim, n_layers=0, hidden_sizes=(), rng=rng)


class ResidualHead(StackedHead):
    shortcut = True


class PlainHead(StackedHead):
    shortcut = False
