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
Per hidden unit, softplus of a sum is the log of 1 plus a product of the
halves' exponentials, so phi is the log of products over runs of units,
built with one exp per half-config entry and one log per phi entry and run.
Notes are scored in blocks: each costs two 2^(L/2)-entry exponentials and
two products with Phi, and the block's GEMMs are padded to whole BLAS
tiles, so that a note's marginals do not depend on its batch. A note whose
factors spread too far for that product sums the same terms in log space
instead.
Mean field inference and the CD-1 training chain use the closed-form conditionals

    P(h_j = 1 | y, x) = sigmoid(y^T G[:,j] + c_j)
    P(y_l = 1 | h, x) = sigmoid(G[l,:] h + b_l + W[l,:] x)
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numeric import ParamTensor, SeededRng, logsumexp, sigmoid, softplus

EXACT_LABEL_LIMIT = 20
# phi entries per block of phi rows: a block's product and factor (128 KiB
# each) stay in cache; a 16-label, 16-hidden phi rebuilt in 2.5 ms at 2^13 to
# 2^16 entries, 3.1 ms at 2^12 and 4.9 ms at 2^11 (2-vCPU Xeon, 2 MiB L2 per core)
_PHI_BLOCK = 2**14
MEANFIELD_SWEEPS = 20  # alternating updates of crbm_meanfield_predict
# summed spread (max - min) of the three shifted factors of the split sum past
# which a product of their exps could underflow; such a row is summed in log
# space. phi's runs of per-unit factors keep their log bounds under it likewise.
SPLIT_SPREAD_LIMIT = 700.0
# A row block's GEMMs take rows padded to a multiple of _ROW_TILE and
# contiguous right operands whose columns are padded with zeros to a multiple
# of _COL_TILE: OpenBLAS rounds a partial tile's elements, and a one-row
# product (GEMV), differently, so every element comes from a whole tile and a
# row's bytes do not depend on its batch.
_ROW_TILE = 2
_COL_TILE = 8
# float64 entries of a row block's widest temporary, (rows, configs of both
# halves): 120 KiB, below glibc's 128 KiB mmap threshold, so repeated blocks
# reuse the heap instead of faulting in fresh pages
_ROW_BLOCK = 15 * 2**10


def _tiled(n: int, tile: int = _COL_TILE) -> int:
    return -(-n // tile) * tile


class _SplitTerms(NamedTuple):
    """The x-free half of the split sum, for L labels split at h = L // 2.

    Half A's n_a = 2^h configs sit in columns [0, n_a) of the config axis,
    half B's in [cols_a, cols_a + 2^(L-h)), where cols_a is n_a padded to
    whole tiles; K, the axis's length, is padded likewise.
    """

    configs_a: np.ndarray  # all_label_configs(h): the low h bits of a config index
    configs_b: np.ndarray  # all_label_configs(L - h): the high bits
    # exp(phi - max phi), (2^(L-h), 2^h) padded with zeros to whole tiles;
    # None when phi_spread passes SPLIT_SPREAD_LIMIT
    mass: np.ndarray | None
    # phi[b, a], the x-free term of config a + 2^h b, kept only when mass is
    # None; otherwise log(mass) stands in for it (mass has not underflowed): it
    # is phi less a constant, which the normalised probabilities do not see
    phi: np.ndarray | None
    # (L padded, K): a drive's product with it is each config's sum less its
    # half's midpoint (column a holds a - 1/2 on half A's labels)
    to_halves: np.ndarray
    # (K, L + 1 padded): the configs back on their labels, and in column L a 1
    # per config of half A, so a weighted sum over half A lands there too
    from_halves: np.ndarray
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
        # exact inference only: the split terms, built on first use and keyed
        # on the bytes of the G and c values they came from
        self._split: _SplitTerms | None = None
        self._split_key: tuple[bytes, bytes] | None = None

    def params(self) -> list[ParamTensor]:
        return [self.W, self.G, self.b, self.c]

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, X: np.ndarray):
        """Label marginals, row per encoded vector; no backward, so no cache."""
        return predict_marginals(X, self), None

    def _split_terms(self) -> _SplitTerms:
        """The x-free factors of the split sum, rebuilt whenever G or c changes.

        Keyed on values because parameters are written in place (Adam, early
        stopping's restore, checkpoint loading, finite differences); equal
        bytes are equal values, so the key is never stale.
        """
        key = (self.G.value.tobytes(), self.c.value.tobytes())
        if key != self._split_key:
            self._split = _build_split_terms(self.n_labels, self.G.value, self.c.value)
            self._split_key = key
        return self._split


def _build_split_terms(L: int, G: np.ndarray, c: np.ndarray) -> _SplitTerms:
    h = L // 2
    configs_a = all_label_configs(h)
    configs_b = all_label_configs(L - h)
    n_a, n_b = len(configs_a), len(configs_b)
    cols_a, K = _tiled(n_a), _tiled(n_a) + _tiled(n_b)
    # phi is built in the top-left corner of mass, which then holds its exp
    mass = np.zeros((K - cols_a, cols_a))
    phi = _x_free_term(configs_a @ G[:h], configs_b @ G[h:] + c, mass[:n_b, :n_a])
    top = float(phi.max())
    spread = top - float(phi.min())
    if spread > SPLIT_SPREAD_LIMIT:  # every row is summed in log space; no mass is used
        mass = None
    else:
        np.exp(np.subtract(phi, top, out=phi), out=phi)
        phi = None
    to_halves = np.zeros((_tiled(L), K))
    to_halves[:h, :n_a] = configs_a.T - 0.5
    to_halves[h:L, cols_a : cols_a + n_b] = configs_b.T - 0.5
    from_halves = np.zeros((K, _tiled(L + 1)))
    from_halves[:n_a, :h] = configs_a
    from_halves[cols_a : cols_a + n_b, h:L] = configs_b
    from_halves[:n_a, L] = 1.0
    tables = (configs_a, configs_b, mass, phi, to_halves, from_halves)
    for table in tables:
        if table is not None:
            table.flags.writeable = False
    return _SplitTerms(*tables, spread)


def _x_free_term(z_a: np.ndarray, z_b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Fill phi[b, a] = sum_j softplus(z_a[a, j] + z_b[b, j]), as the log of products.

    Shifting unit j by M_j = max(max_a z_a + max_b z_b, 0) gives
    softplus(z_a + z_b) = M_j + log(exp(-M_j) + e_a e_b), where e_a and e_b
    are per-half exponentials in (0, 1], so each factor lies between
    exp(-M_j) and 1 + exp(-M_j). The units' factors are multiplied in runs;
    a run's log is added to phi before a unit that would take its summed
    shifts or its summed log(1 + exp(-M_j)) past SPLIT_SPREAD_LIMIT, so no
    product under- or overflows. A unit whose shift passes the limit alone
    adds its softplus column directly. Costs one exp per entry of z_a and z_b
    and one log per entry of phi and run; returns phi.
    """
    top_a, top_b = z_a.max(axis=0), z_b.max(axis=0)
    shift = np.maximum(top_a + top_b, 0.0)
    e_a = np.exp(z_a - top_a).T.copy()  # (J, 2^h), a row per unit
    e_b = np.exp(z_b - top_b + (top_a + top_b - shift)).T.copy()
    floor = np.exp(-shift)
    alone = shift > SPLIT_SPREAD_LIMIT
    new_run = np.zeros(len(shift), dtype=bool)  # the run so far is logged before unit j
    total = low = high = 0.0
    for j in np.flatnonzero(~alone):
        s, top = float(shift[j]), float(np.log1p(floor[j]))
        if low + s > SPLIT_SPREAD_LIMIT or high + top > SPLIT_SPREAD_LIMIT:
            new_run[j] = True
            low = high = 0.0
        low, high, total = low + s, high + top, total + s
    n_b, n_a = phi.shape
    rows = max(1, _PHI_BLOCK // n_a)
    product = np.empty((min(rows, n_b), n_a))
    factor = np.empty_like(product)
    for lo in range(0, n_b, rows):
        block = phi[lo : lo + rows]
        prod, fac = product[: len(block)], factor[: len(block)]
        prod.fill(1.0)
        block.fill(total)
        for j in range(len(shift)):
            if alone[j]:
                block += softplus(z_b[lo : lo + rows, j, None] + z_a[:, j])
                continue
            if new_run[j]:
                block += np.log(prod, out=fac)
                prod.fill(1.0)
            np.multiply.outer(e_b[j, lo : lo + rows], e_a[j], out=fac)
            fac += floor[j]
            prod *= fac
        block += np.log(prod, out=prod)
    return phi


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


def _score_blocks(
    X: np.ndarray, head: CrbmHead, split: _SplitTerms, marginals: np.ndarray
) -> list[int]:
    """Fill marginals block by block; return the rows left for log space.

    Per block, with the drive D = X W^T + b, each half's config sums S less
    their midpoint (half the half's drive sum), exponentiated to E_A and E_B:
    V = E_B Phi and U = E_A Phi^T, Z = sum_a E_A V, and the marginals are
    [E_A * V, E_B * U] times the configs, over Z. A half's shifted sums lie
    within half its spread of 0, so no term overflows or underflows while the
    summed spread stays within SPLIT_SPREAD_LIMIT. V and U are taken a row at
    a time (GEMVs on Phi): as a GEMM, U would need a contiguous copy of Phi^T,
    and streaming both tables slowed a lone note more than the GEMMs saved.
    """
    L, d = head.n_labels, head.input_dim
    drive = np.zeros((d + 1, _tiled(L)))  # W^T over b: [x, 1] times it is the drive W x + b
    drive[:d, :L] = head.W.value.T
    drive[d, :L] = head.b.value
    cols_a, K = split.mass.shape[1], len(split.from_halves)
    limit = SPLIT_SPREAD_LIMIT - split.phi_spread
    rows = max(_ROW_TILE, _ROW_BLOCK // max(K, d + 1) // _ROW_TILE * _ROW_TILE)
    wide = []
    for lo in range(0, len(X), rows):
        part = X[lo : lo + rows]
        n = len(part)
        padded = np.zeros((_tiled(n, _ROW_TILE), d + 1))  # [part, 1], zero rows to a tile
        padded[:, d] = 1.0
        padded[:n, :d] = part
        S = (padded @ drive) @ split.to_halves
        # a half's shifted sums peak at half its spread: 4 max S bounds the summed spread
        if 4 * S[:n].max() > limit:
            peaks = np.maximum.reduceat(S[:n], [0, cols_a], axis=1)
            far = np.flatnonzero(2 * peaks.sum(axis=1) > limit)
            S[far] = 0.0  # keeps their exps finite
            wide.extend(lo + far)
        # E = exp(S); a pad row is left as it is, and its products are dropped
        E = np.exp(S[:n], out=S[:n])
        for e_a, e_b in zip(E[:, :cols_a], E[:, cols_a:]):
            u = split.mass @ e_a
            e_a *= e_b @ split.mass
            e_b *= u
        sums = S @ split.from_halves
        np.divide(sums[:n, :L], sums[:n, L : L + 1], out=marginals[lo : lo + n])
    return wide


def _log_space_row(drive: np.ndarray, split: _SplitTerms) -> np.ndarray:
    h = split.configs_a.shape[1]
    n_a, n_b = len(split.configs_a), len(split.configs_b)
    phi = split.phi if split.mass is None else np.log(split.mass[:n_b, :n_a])
    log_mass = phi + split.configs_a @ drive[:h] + (split.configs_b @ drive[h:])[:, None]
    probs = np.exp(log_mass - logsumexp(log_mass))
    return np.concatenate(
        (probs.sum(axis=0) @ split.configs_a, probs.sum(axis=1) @ split.configs_b)
    )


def crbm_meanfield_predict(x: np.ndarray, head: CrbmHead) -> np.ndarray:
    """Fixed-point marginal estimate by alternating expectation updates."""
    drive = head.W.value @ x + head.b.value
    mu_y = sigmoid(drive)
    for _ in range(MEANFIELD_SWEEPS):
        mu_h = sigmoid(mu_y @ head.G.value + head.c.value)
        mu_y = sigmoid(head.G.value @ mu_h + drive)
    return mu_y


def predict_marginals(X: np.ndarray, head: CrbmHead) -> np.ndarray:
    """Label marginals of each row of a (B, d) batch, as a (B, L) array.

    Exact when the label count permits: rows are scored in blocks whose GEMMs
    are padded to whole BLAS tiles, so a row's marginals do not depend on the
    rest of the batch (see _score_blocks), and a row whose summed spread
    passes SPLIT_SPREAD_LIMIT takes the logsumexp of the unshifted terms
    instead. Else mean field, one row at a time.
    """
    out = np.empty((len(X), head.n_labels))
    if head.n_labels > EXACT_LABEL_LIMIT:
        for i, row in enumerate(X):
            out[i] = crbm_meanfield_predict(row, head)
        return out
    split = head._split_terms()
    # phi alone spreads past the limit when no mass was kept
    wide = range(len(X)) if split.mass is None else _score_blocks(X, head, split, out)
    for i in wide:
        out[i] = _log_space_row(head.W.value @ X[i] + head.b.value, split)
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
