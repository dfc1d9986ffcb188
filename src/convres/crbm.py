"""Conditional RBM over the label layer, driven by the encoded sentence vector.

Energy terms for labels y in {0,1}^L and hidden units h in {0,1}^J:

    E_con(y, x) = -y^T W x
    E_rbm(y, h) = -y^T G h - y^T b - c^T h

Summing h out analytically gives the unnormalized conditional mass

    M(y) = exp(y^T W x + y^T b) * prod_j (1 + exp(y^T G[:,j] + c_j)),

which supports exact marginals for small label counts. With the labels
split into halves A and B, the y^T (W x + b) term factorizes over them and

    Z = sum_{a,b} exp(a^T d_A) * Phi[b, a] * exp(b^T d_B),   Phi = exp(phi[b, a]),
    phi[b, a] = sum_j softplus(a^T G_A[:,j] + b^T G_B[:,j] + c_j),

where phi, the x-free term, is built from the two 2^(L/2)-row halves of the
label configs and cached per (G, c) value; no 2^L-row table is ever formed.
One note costs two 2^(L/2)-entry exponentials and two products with Phi. A
note whose factors spread too far for that product sums the same terms in
log space instead.
Mean field inference and the CD-1 training chain use the closed-form conditionals

    P(h_j = 1 | y, x) = sigmoid(y^T G[:,j] + c_j)
    P(y_l = 1 | h, x) = sigmoid(G[l,:] h + b_l + W[l,:] x)
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import CapacityError
from .numeric import ParamTensor, SeededRng, logsumexp, sigmoid, softplus

EXACT_LABEL_LIMIT = 20
# softplus entries per block of phi rows, so a block's few temporaries stay in
# cache: a 16-label, 16-hidden phi rebuilt in 11 ms at 2^14-2^15 entries, 20 ms
# at 2^16 and 30 ms at 2^17-2^18 (2-vCPU Xeon, 2 MiB L2 per core)
_PHI_BLOCK = 2**14
MEANFIELD_SWEEPS = 20  # alternating updates of crbm_meanfield_predict
# summed spread (max - min) of the three shifted factors of the split sum past
# which a product of their exps could underflow; such a row is summed in log space
SPLIT_SPREAD_LIMIT = 700.0


class _SplitTerms(NamedTuple):
    """The x-free half of the split sum, for L labels split at h = L // 2."""

    configs_a: np.ndarray  # all_label_configs(h): the low h bits of a config index
    configs_b: np.ndarray  # all_label_configs(L - h): the high bits
    phi: np.ndarray  # (2^(L-h), 2^h): [b, a] is the x-free term of config a + 2^h b
    mass: np.ndarray  # exp(phi - phi_max)
    phi_max: float
    phi_spread: float


class CrbmHead:
    def __init__(self, n_labels: int, input_dim: int, n_hidden: int, rng: SeededRng):
        self.n_labels = n_labels
        self.input_dim = input_dim
        self.n_hidden = n_hidden
        self.W = ParamTensor("crbm_w", rng.uniform(-0.01, 0.01, (n_labels, input_dim)))
        self.G = ParamTensor("crbm_g", rng.uniform(-0.01, 0.01, (n_labels, n_hidden)))
        self.b = ParamTensor("crbm_b", np.zeros(n_labels))
        self.c = ParamTensor("crbm_c", np.zeros(n_hidden))
        # exact inference only: the split terms, built on first use, and the
        # G and c values they were computed from
        self._split: _SplitTerms | None = None
        self._split_key: tuple[np.ndarray, np.ndarray] | None = None

    def params(self) -> list[ParamTensor]:
        return [self.W, self.G, self.b, self.c]

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, X: np.ndarray):
        """Label marginals, row per encoded vector; no backward, so no cache."""
        return predict_marginals(X, self), None

    def _split_terms(self) -> _SplitTerms:
        """The x-free factors of the split sum, rebuilt whenever G or c changes value.

        Keyed on values because parameters are written in place (Adam, early
        stopping's restore, checkpoint loading, finite differences).
        """
        G, c = self.G.value, self.c.value
        key = self._split_key
        if key is None or not (np.array_equal(key[0], G) and np.array_equal(key[1], c)):
            h = self.n_labels // 2
            configs_a = all_label_configs(h)
            configs_b = all_label_configs(self.n_labels - h)
            z_a = configs_a @ G[:h]
            z_b = configs_b @ G[h:] + c
            phi = np.empty((len(z_b), len(z_a)))
            rows = max(1, _PHI_BLOCK // z_a.size)
            for lo in range(0, len(z_b), rows):
                phi[lo : lo + rows] = softplus(z_a + z_b[lo : lo + rows, None]).sum(axis=2)
            top = float(phi.max())
            mass = np.exp(phi - top)
            for table in (configs_a, configs_b, phi, mass):
                table.flags.writeable = False
            self._split = _SplitTerms(configs_a, configs_b, phi, mass, top, top - float(phi.min()))
            self._split_key = (G.copy(), c.copy())
        return self._split


def all_label_configs(n_labels: int) -> np.ndarray:
    """All 2^L binary label vectors, row i being the bits of i (LSB first).

    Filled one column at a time, so building it takes little more memory
    than the table itself.
    """
    codes = np.arange(2 ** n_labels, dtype=np.int64)
    out = np.empty((codes.size, n_labels))
    for l in range(n_labels):
        out[:, l] = (codes >> l) & 1
    return out


def crbm_cond_h(Y: np.ndarray, head: CrbmHead) -> np.ndarray:
    """P(h_j = 1 | y, x) for every hidden unit, row per y; it does not depend on x."""
    return sigmoid(np.asarray(Y, dtype=np.float64) @ head.G.value + head.c.value)


def crbm_cond_y(H: np.ndarray, X: np.ndarray, head: CrbmHead) -> np.ndarray:
    """P(y_l = 1 | h, x) for every label, row per (h, x) pair."""
    H = np.asarray(H, dtype=np.float64)
    return sigmoid(H @ head.G.value.T + head.b.value + X @ head.W.value.T)


def crbm_exact_marginals(x: np.ndarray, head: CrbmHead) -> tuple[np.ndarray, float]:
    """Exact label marginals and log partition, summed over label configs in two halves.

    Each half's drive term and the x-free mass are shifted by their maxima;
    a row whose summed spread passes SPLIT_SPREAD_LIMIT takes the logsumexp
    of the unshifted terms instead.
    """
    if head.n_labels > EXACT_LABEL_LIMIT:
        raise CapacityError(
            f"exact enumeration supports at most {EXACT_LABEL_LIMIT} labels, "
            f"got {head.n_labels}"
        )
    split = head._split_terms()
    drive = head.W.value @ x + head.b.value
    h = split.configs_a.shape[1]
    s_a = split.configs_a @ drive[:h]
    s_b = split.configs_b @ drive[h:]
    max_a, max_b = s_a.max(), s_b.max()
    if split.phi_spread + (max_a - s_a.min()) + (max_b - s_b.min()) > SPLIT_SPREAD_LIMIT:
        log_mass = split.phi + s_a + s_b[:, None]
        log_z = logsumexp(log_mass)
        probs = np.exp(log_mass - log_z)
        marginals = np.concatenate(
            (probs.sum(axis=0) @ split.configs_a, probs.sum(axis=1) @ split.configs_b)
        )
        return marginals, log_z
    e_a = np.exp(s_a - max_a)
    e_b = np.exp(s_b - max_b)
    u = split.mass @ e_a  # sum over a, per b
    v = e_b @ split.mass  # sum over b, per a
    z = e_b @ u
    marginals = np.concatenate(((e_a * v) @ split.configs_a, (e_b * u) @ split.configs_b)) / z
    return marginals, float(np.log(z) + max_a + max_b + split.phi_max)


def crbm_meanfield_predict(x: np.ndarray, head: CrbmHead) -> np.ndarray:
    """Fixed-point marginal estimate by alternating expectation updates."""
    drive = head.W.value @ x + head.b.value
    mu_y = sigmoid(drive)
    for _ in range(MEANFIELD_SWEEPS):
        mu_h = sigmoid(mu_y @ head.G.value + head.c.value)
        mu_y = sigmoid(head.G.value @ mu_h + drive)
    return mu_y


def _row_marginals(x: np.ndarray, head: CrbmHead) -> np.ndarray:
    if head.n_labels <= EXACT_LABEL_LIMIT:
        marginals, _ = crbm_exact_marginals(x, head)
        return marginals
    return crbm_meanfield_predict(x, head)


def predict_marginals(X: np.ndarray, head: CrbmHead) -> np.ndarray:
    """Label marginals of each row of a (B, d) batch, as a (B, L) array.

    Exact when the label count permits, else mean field. Rows are scored one
    at a time, so a row's marginals do not depend on the rest of the batch.
    """
    out = np.empty((len(X), head.n_labels))
    for i, row in enumerate(X):
        out[i] = _row_marginals(row, head)
    return out


def crbm_cd_gradient(X: np.ndarray, Y: np.ndarray, head: CrbmHead, rng: SeededRng) -> None:
    """Add the batch-mean CD-1 estimate of the gradient of -log P(y | x) to the head's grads.

    Row i of X and Y is one note's encoding and truth. Each note's Gibbs
    chain starts at its observed labels and samples h, then y, once; hidden
    statistics are Rao-Blackwellized through P(h | y, x). One (B, J + L)
    block of uniforms holds every chain's draws: row i is note i's J hidden
    draws followed by its L label draws, the order a per-note chain takes them.
    """
    Y = np.asarray(Y, dtype=np.float64)
    B, J = len(Y), head.n_hidden
    U = rng.uniform(size=(B, J + head.n_labels))
    H_pos = crbm_cond_h(Y, head)
    H = (U[:, :J] < H_pos).astype(np.float64)
    Y_neg = (U[:, J:] < crbm_cond_y(H, X, head)).astype(np.float64)
    H_neg = crbm_cond_h(Y_neg, head)
    dY = Y_neg - Y
    head.W.grad += dY.T @ X / B
    head.G.grad += (Y_neg.T @ H_neg - Y.T @ H_pos) / B
    head.b.grad += dY.sum(axis=0) / B
    head.c.grad += (H_neg - H_pos).sum(axis=0) / B
