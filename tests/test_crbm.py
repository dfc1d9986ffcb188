import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convres import crbm
from convres.crbm import (
    EXACT_LABEL_LIMIT,
    SPLIT_SPREAD_LIMIT,
    CrbmHead,
    all_label_configs,
    crbm_cd_gradient,
    crbm_cond_h,
    crbm_cond_y,
    crbm_meanfield_predict,
    predict_marginals,
)
from convres.numeric import SeededRng, adam_step, sigmoid, logsumexp, softplus
from oracles import (
    crbm_cond_h_enumeration,
    crbm_cond_y_enumeration,
    crbm_cd_gradient_per_note,
    crbm_exact_gradient,
    crbm_joint_enumeration,
    crbm_log_likelihood,
    crbm_marginals_enumeration,
    finite_diff_check,
)


def _random_head(L, vw, J, seed, scale=0.5):
    head = CrbmHead(L, vw, J, SeededRng(seed))
    r = SeededRng(seed + 10_000)
    for p in head.params():
        p.value[...] = r.uniform(-scale, scale, p.value.shape)
    return head


def _zero_head(L, vw, J):
    head = CrbmHead(L, vw, J, SeededRng(0))
    for p in head.params():
        p.value[...] = 0.0
    return head


class TestConditionals:
    def test_cond_h_zero_params(self):
        head = _zero_head(2, 2, 3)
        assert np.array_equal(crbm_cond_h(np.zeros(2), head), [0.5] * 3)

    def test_cond_h_zero_labels_gives_sigmoid_c(self):
        head = _zero_head(2, 2, 3)
        head.c.value[...] = [-1.0, 0.0, 2.0]
        out = crbm_cond_h(np.zeros(2), head)
        assert np.allclose(out, sigmoid(np.array([-1.0, 0.0, 2.0])), atol=1e-15)

    def test_cond_h_hand_case(self):
        head = _zero_head(2, 2, 1)
        head.G.value[...] = [[1.0], [2.0]]
        head.c.value[...] = [-1.0]
        out = crbm_cond_h(np.array([1.0, 1.0]), head)
        assert abs(out[0] - sigmoid(np.array(2.0))) < 1e-15

    def test_cond_y_zero_params(self):
        head = _zero_head(3, 2, 2)
        assert np.array_equal(crbm_cond_y(np.zeros(2), np.zeros(2), head), [0.5] * 3)

    def test_cond_y_bias_only(self):
        head = _zero_head(2, 2, 2)
        head.b.value[...] = [1.0, -2.0]
        out = crbm_cond_y(np.zeros(2), np.ones(2), head)
        assert np.allclose(out, sigmoid(np.array([1.0, -2.0])), atol=1e-15)

    def test_cond_y_hand_case(self):
        head = _zero_head(1, 2, 1)
        head.G.value[...] = [[1.0]]
        head.W.value[...] = [[1.0, 0.0]]
        out = crbm_cond_y(np.array([1.0]), np.array([1.0, 0.0]), head)
        assert abs(out[0] - sigmoid(np.array(2.0))) < 1e-15

    def test_conditionals_match_bayes_enumeration(self):
        for trial in range(10):
            head = _random_head(3, 2, 2, 600 + trial)
            rng = SeededRng(700 + trial)
            x = rng.uniform(-1, 1, (2,))
            y = (rng.uniform(size=(3,)) < 0.5).astype(float)
            h = (rng.uniform(size=(2,)) < 0.5).astype(float)
            args = (head.W.value, head.G.value, head.b.value, head.c.value)
            ours_h = crbm_cond_h(y, head)
            for j in range(2):
                assert abs(ours_h[j] - crbm_cond_h_enumeration(y, x, *args, j)) < 1e-10
            ours_y = crbm_cond_y(h, x, head)
            for l in range(3):
                assert abs(ours_y[l] - crbm_cond_y_enumeration(h, x, *args, l)) < 1e-10


class TestExactMarginals:
    def test_zero_model_uniform(self):
        L, J = 4, 3
        head = _zero_head(L, 2, J)
        marg = predict_marginals(np.zeros((1, 2)), head)[0]
        assert np.array_equal(marg, [0.5] * L)

    def test_no_hidden_coupling_factorizes(self):
        head = _random_head(5, 3, 2, 42)
        head.G.value[...] = 0.0
        x = SeededRng(43).uniform(-1, 1, (3,))
        marg = predict_marginals(x[None, :], head)[0]
        expected = sigmoid(head.W.value @ x + head.b.value)
        assert np.allclose(marg, expected, atol=1e-12)

    def test_matches_joint_double_enumeration(self):
        for trial in range(25):
            head = _random_head(6, 4, 3, trial)
            x = SeededRng(trial + 5000).uniform(-1, 1, (4,))
            ours = predict_marginals(x[None, :], head)[0]
            ref = crbm_joint_enumeration(
                x, head.W.value, head.G.value, head.b.value, head.c.value
            )
            assert np.abs(ours - ref).max() < 1e-10

    @pytest.mark.parametrize("L", range(1, 10))
    def test_split_form_matches_joint_enumeration(self, L):
        # the first half holds L // 2 labels: none at L = 1, one fewer at odd L
        for trial in range(3):
            head = _random_head(L, 3, 3, 100 * L + trial, scale=1.0)
            x = SeededRng(100 * L + trial + 5000).uniform(-1, 1, (3,))
            ours = predict_marginals(x[None, :], head)[0]
            ref = crbm_joint_enumeration(
                x, head.W.value, head.G.value, head.b.value, head.c.value
            )
            assert np.abs(ours - ref).max() <= 1e-12

    def test_split_form_matches_enumeration_at_sixteen_labels(self):
        for trial in range(3):
            head = _random_head(16, 16, 16, 300 + trial, scale=1.5)
            assert head._split_terms().phi_spread > 10
            for x in SeededRng(400 + trial).uniform(-1, 1, (8, 16)):
                ours = predict_marginals(x[None, :], head)[0]
                ref = crbm_marginals_enumeration(x, head)
                assert np.abs(ours - ref).max() <= 1e-12

    @pytest.mark.parametrize("wide", ["W", "G"])
    def test_rows_past_the_spread_limit_are_summed_in_log_space(self, wide):
        # a wide W spreads the drive of both halves, a wide G the x-free term
        head = _random_head(7, 4, 3, 71, scale=1.0)
        getattr(head, wide).value[...] *= 400
        x = SeededRng(72).uniform(-1, 1, (4,))
        split = head._split_terms()
        drive = head.W.value @ x + head.b.value
        spread = (
            np.ptp(split.configs_a @ drive[:3])
            + np.ptp(split.configs_b @ drive[3:])
            + split.phi_spread
        )
        assert spread > SPLIT_SPREAD_LIMIT
        # a wide G keeps phi itself; a wide W keeps the mass, whose log is phi less its maximum
        assert (split.mass is None) == (wide == "G")
        ours = predict_marginals(x[None, :], head)[0]
        ref = crbm_marginals_enumeration(x, head)
        assert np.abs(ours - ref).max() <= 1e-12


class TestMeanField:
    def test_zero_model(self):
        head = _zero_head(3, 2, 2)
        assert np.array_equal(crbm_meanfield_predict(np.zeros(2), head), [0.5] * 3)

    def test_factorized_case_exact_after_one_sweep(self):
        # with G = 0 the first sweep lands on the fixed point and the rest stay there
        head = _random_head(4, 3, 2, 77)
        head.G.value[...] = 0.0
        x = SeededRng(78).uniform(-1, 1, (3,))
        mf = crbm_meanfield_predict(x, head)
        exact = predict_marginals(x[None, :], head)[0]
        assert np.allclose(mf, exact, atol=1e-12)

    def test_close_to_exact_on_moderate_weights(self):
        gaps = []
        for trial in range(100):
            head = _random_head(6, 3, 3, 8000 + trial)
            x = SeededRng(9000 + trial).uniform(-1, 1, (3,))
            exact = predict_marginals(x[None, :], head)[0]
            mf = crbm_meanfield_predict(x, head)
            gaps.append(np.abs(mf - exact).mean())
        assert float(np.mean(gaps)) <= 0.05

    def test_predict_marginals_auto_dispatch(self):
        head = _random_head(5, 3, 2, 1)
        x = SeededRng(2).uniform(-1, 1, (3,))
        ref = crbm_joint_enumeration(x, head.W.value, head.G.value, head.b.value, head.c.value)
        assert np.abs(predict_marginals(x[None, :], head)[0] - ref).max() < 1e-10
        big = CrbmHead(25, 3, 2, SeededRng(3))
        out = predict_marginals(SeededRng(4).uniform(-1, 1, (1, 3)), big)
        assert out.shape == (1, 25)  # falls back to mean field past the limit


class TestGradients:
    def test_exact_gradient_matches_finite_differences(self):
        for trial in range(5):
            head = _random_head(5, 4, 3, 40 + trial)
            rng = SeededRng(50 + trial)
            x = rng.uniform(-1, 1, (4,))
            y = (rng.uniform(size=(5,)) < 0.5).astype(float)
            g = crbm_exact_gradient(x, y, head)
            head.W.grad[...] = -g.dW
            head.G.grad[...] = -g.dG
            head.b.grad[...] = -g.db
            head.c.grad[...] = -g.dc
            err = finite_diff_check(lambda: -crbm_log_likelihood(x, y, head), head.params())
            assert err < 1e-4

    def test_cd_gradient_deterministic(self):
        head = _random_head(4, 3, 2, 7)
        X = SeededRng(8).uniform(-1, 1, (5, 3))
        Y = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        runs = []
        for _ in range(2):
            for p in head.params():
                p.zero_grad()
            crbm_cd_gradient(X, Y, head, SeededRng(5))
            runs.append([p.grad.copy() for p in head.params()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    @given(
        L=st.integers(1, 6),
        J=st.integers(1, 6),
        d=st.integers(1, 6),
        B=st.integers(1, 8),
        seed=st.integers(0, 2**32),
    )
    @example(L=1, J=1, d=1, B=1, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_batched_call_equals_the_per_note_chains(self, L, J, d, B, seed):
        head = _random_head(L, d, J, seed, scale=1.0)
        data = SeededRng(seed + 1)
        X = data.uniform(-1, 1, (B, d))
        Y = (data.uniform(size=(B, L)) < 0.5).astype(float)
        rng, ref_rng = SeededRng(seed + 2), SeededRng(seed + 2)
        crbm_cd_gradient(X, Y, head, rng)
        per_note = [crbm_cd_gradient_per_note(X[i], Y[i], head, ref_rng) for i in range(B)]
        for p, field in zip(head.params(), ("dW", "dG", "db", "dc")):
            ref = -np.mean([getattr(g, field) for g in per_note], axis=0)
            assert np.abs(p.grad - ref).max() <= 1e-12
        assert rng.uniform() == ref_rng.uniform()  # both consumed the same draws

    def test_cd_expectation_vanishes_at_the_model(self):
        # when data comes from the model itself, CD-1 is unbiased toward zero
        head = _random_head(4, 3, 2, 11, scale=0.4)
        rng = SeededRng(12)
        x = rng.uniform(-1, 1, (3,))
        configs = all_label_configs(4)
        drive = head.W.value @ x + head.b.value
        log_mass = configs @ drive + softplus(configs @ head.G.value + head.c.value).sum(axis=1)
        probs = np.exp(log_mass - logsumexp(log_mass))
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        n = 4000
        Y = configs[np.searchsorted(cum, rng.uniform(size=n), side="right")]
        crbm_cd_gradient(np.tile(x, (n, 1)), Y, head, rng)
        assert np.abs(head.b.grad).max() < 0.05

    def test_cd_infinite_limit_matches_exact_gradient(self):
        # replacing the chain's negative phase with the exact expectation
        # must reproduce the enumerated gradient: check the shared machinery
        head = _random_head(6, 3, 3, 21)
        rng = SeededRng(22)
        x = rng.uniform(-1, 1, (3,))
        y = (rng.uniform(size=(6,)) < 0.5).astype(float)
        g = crbm_exact_gradient(x, y, head)
        head.W.grad[...] = -g.dW
        head.G.grad[...] = -g.dG
        head.b.grad[...] = -g.db
        head.c.grad[...] = -g.dc
        err = finite_diff_check(lambda: -crbm_log_likelihood(x, y, head), head.params())
        assert err < 1e-4


def _in_place_writes():
    """Every way the library writes G or c in place, as (description, write)."""
    def adam(head):
        head.G.grad[...] = 0.3
        head.c.grad[...] = -0.2
        adam_step(head.G, lr=0.05)
        adam_step(head.c, lr=0.05)

    def flat(head):
        head.G.value.reshape(-1)[4] += 0.25

    def restore(head):
        head.G.value[...] = SeededRng(77).uniform(-1, 1, head.G.value.shape)

    def subtract(head):
        head.c.value -= 0.125

    return [("adam_step", adam), ("flat index", flat), ("[...] =", restore), ("-=", subtract)]


def _fresh_copy(head):
    copy = CrbmHead(head.n_labels, head.input_dim, head.n_hidden, SeededRng(0))
    for mine, theirs in zip(copy.params(), head.params()):
        mine.value[...] = theirs.value
    return copy


class TestBatchedInference:
    @pytest.mark.parametrize("n_labels", [6, EXACT_LABEL_LIMIT + 5])
    def test_batch_equals_stacked_rows(self, n_labels):
        head = _random_head(n_labels, 4, 3, 60)
        X = SeededRng(61).uniform(-1, 1, (7, 4))
        rows = np.concatenate([predict_marginals(x[None, :], head) for x in X])
        assert np.array_equal(predict_marginals(X, head), rows)
        assert np.array_equal(head.forward(X)[0], rows)

    # below 6 labels a half has fewer configs than a column tile; odd counts split unevenly
    @pytest.mark.parametrize("n_labels", [1, 2, 3, 6, 7, 16])
    # up to 64 rows: a row block holds 30 rows at 16 labels, so a batch spans up to three
    @given(B=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pieces_of_a_batch_stack_to_the_whole(self, n_labels, B, seed, data):
        head = _random_head(n_labels, 5, 4, seed % 1000, scale=1.0)
        X = SeededRng(seed).uniform(-1, 1, (B, 5))
        cuts = sorted(data.draw(st.lists(st.integers(0, B), unique=True), label="cuts"))
        pieces = [predict_marginals(part, head) for part in np.split(X, cuts)]
        assert np.array_equal(np.concatenate(pieces), predict_marginals(X, head))

    @pytest.mark.parametrize("n_labels, rows", [(16, 30), (EXACT_LABEL_LIMIT, 6)])
    def test_rows_across_row_blocks_equal_their_lone_calls(self, n_labels, rows):
        # rows per block at 5 inputs; 2 rows + 3 spans three blocks, the last one partial
        head = _random_head(n_labels, 5, 4, 90 + n_labels, scale=1.0)
        X = SeededRng(91).uniform(-1, 1, (2 * rows + 3, 5))
        whole = predict_marginals(X, head)
        for x, p in zip(X, whole):
            assert np.array_equal(p, predict_marginals(x[None, :], head)[0])
        cuts = [1, rows // 2, rows, 2 * rows - 1]
        pieces = [predict_marginals(part, head) for part in np.split(X, cuts)]
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_empty_batch(self):
        head = _random_head(4, 3, 2, 62)
        assert predict_marginals(np.zeros((0, 3)), head).shape == (0, 4)

    def test_batch_matches_joint_enumeration(self):
        head = _random_head(5, 3, 3, 63)
        X = SeededRng(64).uniform(-1, 1, (4, 3))
        P, _ = head.forward(X)
        for x, p in zip(X, P):
            ref = crbm_joint_enumeration(
                x, head.W.value, head.G.value, head.b.value, head.c.value
            )
            assert np.abs(p - ref).max() < 1e-10

    def test_in_place_writes_refresh_the_x_free_term(self):
        head = _random_head(6, 4, 3, 65)
        X = SeededRng(66).uniform(-1, 1, (5, 4))
        before, _ = head.forward(X)
        mass_before = head._split.mass
        for what, write in _in_place_writes():
            write(head)
            after, _ = head.forward(X)
            fresh = _fresh_copy(head)
            assert np.array_equal(after, fresh.forward(X)[0]), what
            assert not np.array_equal(after, before), what
            # the split factor the forward used is the one a fresh head builds
            assert np.array_equal(head._split.mass, fresh._split.mass), what
            assert not np.array_equal(head._split.mass, mass_before), what
            before, mass_before = after, head._split.mass

    def test_rows_past_the_spread_limit_equal_their_lone_calls(self):
        head = _random_head(16, 4, 5, 85, scale=1.0)
        X = SeededRng(86).uniform(-1, 1, (9, 4))
        X[[1, 4, 5]] *= 300
        split = head._split_terms()
        wide = []
        for x in X:
            drive = head.W.value @ x + head.b.value
            spread = np.ptp(split.configs_a @ drive[:8]) + np.ptp(split.configs_b @ drive[8:])
            wide.append(split.phi_spread + spread > SPLIT_SPREAD_LIMIT)
        assert wide == [False, True, False, False, True, True, False, False, False]
        P = predict_marginals(X, head)
        for x, p in zip(X, P):
            assert np.array_equal(p, predict_marginals(x[None, :], head)[0])
        for i in (1, 4):
            ref = crbm_marginals_enumeration(X[i], head)
            assert np.abs(P[i] - ref).max() <= 1e-12

    def test_many_rows_at_the_label_limit_stay_small(self):
        # scored in blocks: a (4096, 2^10 + 2^10) table of exps would be 64 MiB
        head = _random_head(EXACT_LABEL_LIMIT, 3, 4, 87)
        X = SeededRng(88).uniform(-1, 1, (4096, 3))
        head.forward(X[:1])
        tracemalloc.start()
        try:
            out = predict_marginals(X, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert np.isfinite(out).all()

    def test_finite_differences_after_a_warm_forward(self):
        head = _random_head(5, 4, 3, 67)
        rng = SeededRng(68)
        x = rng.uniform(-1, 1, (4,))
        y = (rng.uniform(size=(5,)) < 0.5).astype(float)
        head.forward(x[None, :])
        g = crbm_exact_gradient(x, y, head)
        head.G.grad[...] = -g.dG
        head.c.grad[...] = -g.dc
        err = finite_diff_check(lambda: -crbm_log_likelihood(x, y, head), [head.G, head.c])
        assert err < 1e-4
        assert np.array_equal(head.forward(x[None, :])[0], _fresh_copy(head).forward(x[None, :])[0])

    def test_x_free_term_equals_the_whole_table_expression(self, monkeypatch):
        # phi spans four blocks of rows at 16 labels at the default size; at
        # 1000 entries a block holds 15 of the 128 rows at 13 labels, the last
        # one 8. An extreme unit's shift passes the limit alone, so it adds its
        # softplus column instead of joining the product
        for n_labels, extreme in itertools.product([1, 2, 7, 13, 16], [False, True]):
            configs = all_label_configs(n_labels)
            head = _random_head(n_labels, 3, 4, 69 + n_labels, scale=1.0)
            if extreme:
                head.c.value[1] = 1.5 * SPLIT_SPREAD_LIMIT
            G, c = head.G.value, head.c.value
            expected = softplus(configs @ G + c).sum(axis=1)
            h = n_labels // 2
            z_a, z_b = configs[: 2**h, :h] @ G[:h], configs[:: 2**h, h:] @ G[h:] + c
            for block in (crbm._PHI_BLOCK, 1000):
                monkeypatch.setattr(crbm, "_PHI_BLOCK", block)
                phi = crbm._x_free_term(z_a, z_b, np.empty((len(z_b), len(z_a))))
                # row b, column a is config a + 2^h b
                close = np.abs(phi.ravel() - expected) <= 1e-14 * np.abs(expected)
                assert close.all(), (n_labels, extreme, block)
                monkeypatch.undo()

    @pytest.mark.parametrize("alone", [[], [1], [0, 1, 2]])
    def test_units_past_the_product_limit(self, monkeypatch, alone):
        # none alone: two units shifted by just over half the limit each, so
        # the second starts a second product; the units alone are each
        # shifted past the limit by one label, whose bias cancels it, so the
        # joint enumeration stays finite, and add their softplus columns
        # while the rest join the product
        direct = []
        monkeypatch.setattr(crbm, "softplus", lambda z: direct.append(z.shape) or softplus(z))
        head = _random_head(4, 3, 3, 81, scale=0.05)
        if alone:
            labels = [0, 2, 3][: len(alone)]
            head.G.value[labels, alone] = 705.0
            head.b.value[labels] = -705.0
        else:
            head.c.value[:2] = SPLIT_SPREAD_LIMIT / 2 + 0.5
        X = SeededRng(82).uniform(-1, 1, (5, 3))
        P, _ = head.forward(X)
        assert len(direct) == len(alone)
        assert np.isfinite(P).all()
        for x, p in zip(X, P):
            ref = crbm_joint_enumeration(
                x, head.W.value, head.G.value, head.b.value, head.c.value
            )
            assert np.abs(p - ref).max() <= 1e-10

    @pytest.mark.parametrize("n_labels", [1, 4, 7])
    def test_many_hidden_units_near_zero_stay_finite(self, n_labels):
        # at initial scale every shift is near 0 and every factor near 2, so
        # 1200 units' factors would pass the float64 maximum in one product
        head = _random_head(n_labels, 3, 1200, 89, scale=0.01)
        G, c = head.G.value, head.c.value
        expected = softplus(all_label_configs(n_labels) @ G + c).sum(axis=1)
        h = n_labels // 2
        z_a, z_b = all_label_configs(h) @ G[:h], all_label_configs(n_labels - h) @ G[h:] + c
        phi = crbm._x_free_term(z_a, z_b, np.empty((len(z_b), len(z_a))))
        assert (np.abs(phi.ravel() - expected) <= 1e-14 * np.abs(expected)).all()
        for x in SeededRng(92).uniform(-1, 1, (3, 3)):
            ours = predict_marginals(x[None, :], head)[0]
            ref = crbm_marginals_enumeration(x, head)
            assert np.abs(ours - ref).max() <= 1e-10

    def test_table_builds_within_a_quarter_of_its_own_size(self):
        tracemalloc.start()
        try:
            table = all_label_configs(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table.nbytes, f"peak {peak / 2**20:.1f} MiB"
        codes = np.arange(2**16)
        assert table.dtype == np.float64
        assert np.array_equal(table, (codes[:, None] >> np.arange(16)) & 1)

    def test_split_terms_are_built_on_first_exact_use(self):
        head = _random_head(7, 3, 2, 73)
        assert head._split is None and head._split_key is None
        head.forward(SeededRng(74).uniform(-1, 1, (2, 3)))
        split = head._split
        assert split.configs_a.shape == (8, 3) and split.configs_b.shape == (16, 4)
        assert split.mass.shape == (16, 8)
        assert split.to_halves.shape == (8, 24)  # labels to a tile, configs of both halves
        assert split.phi is None  # kept only when mass would underflow
        assert head._split_key == (head.G.value.tobytes(), head.c.value.tobytes())

    def test_cached_split_terms_are_read_only(self):
        head = _random_head(6, 3, 2, 70)
        split = head._split_terms()
        assert split is head._split_terms()
        names = ("configs_a", "configs_b", "mass", "to_halves", "from_halves")
        for name in names:
            table = getattr(split, name)
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_first_exact_use_at_the_label_limit_stays_small(self):
        # the mass holds 8 MiB at 20 labels; a 2^20 x 20 config table alone is 160 MiB
        head = _random_head(EXACT_LABEL_LIMIT, 3, 20, 75)
        x = SeededRng(76).uniform(-1, 1, (1, 3))
        tracemalloc.start()
        try:
            out = predict_marginals(x, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert out.shape == (1, EXACT_LABEL_LIMIT) and np.isfinite(out).all()
