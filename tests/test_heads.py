import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres.exceptions import ConfigError
from convres.heads import LogisticHead, PlainHead, ResidualHead
from convres.numeric import SeededRng, sigmoid
from convres.training import _ce_batch
from oracles import finite_diff_check, residual_scalar_reference


def _one_row(x, head):
    """Marginals, z_0..z_n and q_1..q_n of one vector, scored as a one-row batch."""
    p, cache = head.forward(np.asarray(x, dtype=np.float64)[None, :])
    return p[0], [z[0] for z in cache["Z"]], [q[0] for q in cache["Q"]]


def _randomize(head, seed, scale=0.7):
    r = SeededRng(seed)
    for p in head.params():
        p.value[...] = r.uniform(-scale, scale, p.value.shape)


class TestLogistic:
    def test_zero_params_give_half(self):
        head = LogisticHead(3, 4, SeededRng(0))
        head.W0.value[...] = 0.0
        assert np.array_equal(_one_row(np.ones(4), head)[0], [0.5, 0.5, 0.5])

    def test_large_bias_saturates(self):
        head = LogisticHead(2, 3, SeededRng(0))
        head.W0.value[...] = 0.0
        head.b[0].value[...] = 50.0
        p = _one_row(np.zeros(3), head)[0]
        assert (p > 1.0 - 1e-12).all()

    def test_hand_case(self):
        head = LogisticHead(2, 2, SeededRng(0))
        head.W0.value[...] = [[1.0, 0.0], [0.0, -1.0]]
        head.b[0].value[...] = 0.0
        p = _one_row(np.array([2.0, 2.0]), head)[0]
        assert np.allclose(p, [sigmoid(np.array(2.0)), sigmoid(np.array(-2.0))], atol=1e-15)


class TestResidual:
    def test_zero_init_single_layer(self):
        head = ResidualHead(3, 4, 1, None, SeededRng(0))
        for p in head.params():
            p.value[...] = 0.0
        p, zs, qs = _one_row(np.ones(4), head)
        assert np.array_equal(zs[0], np.zeros(3))
        assert np.array_equal(qs[0], np.zeros(3))
        assert np.array_equal(p, [0.5, 0.5, 0.5])

    def test_shortcut_only_path_reduces_to_shifted_logistic(self):
        head = ResidualHead(3, 4, 1, None, SeededRng(5))
        head.W[0].value[...] = 0.0
        head.G[0].value[...] = 0.0
        x = SeededRng(6).uniform(-1, 1, (4,))
        p, zs, _ = _one_row(x, head)
        expected = sigmoid(head.W0.value @ x + head.b[1].value)
        assert np.allclose(p, expected, atol=1e-15)

    def test_matches_scalar_transcription(self):
        for trial in range(20):
            rng = SeededRng(1000 + trial)
            L = 2 + rng.integers(3)
            vw = 2 + rng.integers(3)
            n = 1 + rng.integers(3)
            hs = tuple(1 + rng.integers(3) for _ in range(n))
            head = ResidualHead(L, vw, n, hs, SeededRng(trial))
            _randomize(head, 2000 + trial)
            x = rng.uniform(-1, 1, (vw,))
            p, zs, qs = _one_row(x, head)
            p_ref, zs_ref, qs_ref = residual_scalar_reference(
                list(x),
                [list(r) for r in head.W0.value],
                [list(b.value) for b in head.b],
                [[list(r) for r in W.value] for W in head.W],
                [[list(r) for r in G.value] for G in head.G],
                [list(c.value) for c in head.c],
            )
            assert np.abs(np.array(p_ref) - p).max() < 1e-12
            for z, z_ref in zip(zs, zs_ref):
                assert np.abs(np.array(z_ref) - z).max() < 1e-12
            for q, q_ref in zip(qs, qs_ref):
                assert np.abs(np.array(q_ref) - q).max() < 1e-12

    def test_zero_stack_weights_reproduce_logistic_exactly(self):
        for trial in range(5):
            head = ResidualHead(4, 5, 3, None, SeededRng(trial))
            for i in range(head.n_layers):
                head.W[i].value[...] = 0.0
                head.b[i + 1].value[...] = head.b[0].value
            logistic = LogisticHead(4, 5, SeededRng(99))
            logistic.W0.value[...] = head.W0.value
            logistic.b[0].value[...] = head.b[0].value
            x = SeededRng(50 + trial).uniform(-2, 2, (5,))
            p_res, _, _ = _one_row(x, head)
            assert np.array_equal(p_res, _one_row(x, logistic)[0])


class TestPlain:
    def test_zero_params_eight_layers(self):
        head = PlainHead(3, 4, 8, None, SeededRng(0))
        for p in head.params():
            p.value[...] = 0.0
        p, _, _ = _one_row(np.ones(4), head)
        assert np.array_equal(p, [0.5, 0.5, 0.5])

    def test_differs_from_residual_by_shortcut_terms(self):
        rng = SeededRng(8)
        res = ResidualHead(3, 4, 1, (2,), SeededRng(1))
        plain = PlainHead(3, 4, 1, (2,), SeededRng(1))
        _randomize(res, 77)
        for p_res, p_plain in zip(res.params(), plain.params()):
            p_plain.value[...] = p_res.value
        x = rng.uniform(-1, 1, (4,))
        _, zs_res, qs_res = _one_row(x, res)
        _, zs_plain, qs_plain = _one_row(x, plain)
        assert np.allclose(qs_res[0], qs_plain[0], atol=1e-15)
        diff = zs_res[1] - zs_plain[1]
        assert np.allclose(diff, res.W0.value @ x, atol=1e-12)

    def test_rejects_bad_hidden_sizes(self):
        with pytest.raises(ConfigError):
            PlainHead(3, 4, 2, (5,), SeededRng(0))


class TestParameterParity:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_plain_equals_residual_count(self, n):
        L, vw = 7, 12
        hidden = tuple(3 + (i % 3) for i in range(n))
        res = ResidualHead(L, vw, n, hidden, SeededRng(0))
        plain = PlainHead(L, vw, n, hidden, SeededRng(0))
        assert res.param_count() == plain.param_count()
        res_shapes = sorted((p.name, p.value.shape) for p in res.params())
        plain_shapes = sorted((p.name, p.value.shape) for p in plain.params())
        assert res_shapes == plain_shapes


class TestBackward:
    @pytest.mark.parametrize("cls", [ResidualHead, PlainHead])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradients_match_finite_differences(self, cls, n):
        L, vw = 4, 5
        head = cls(L, vw, n, (3,) * n, SeededRng(n))
        _randomize(head, 300 + n)
        rng = SeededRng(400 + n)
        X = rng.uniform(-1, 1, (2, vw))
        Y = (rng.uniform(size=(2, L)) < 0.5).astype(float)

        def loss():
            P, _ = head.forward(X)
            s, _ = _ce_batch(P, Y)
            return s / X.shape[0]

        for p in head.params():
            p.zero_grad()
        P, cache = head.forward(X)
        _, dZ = _ce_batch(P, Y)
        head.backward(cache, dZ)
        assert finite_diff_check(loss, head.params()) < 1e-4

    def test_logistic_gradient(self):
        head = LogisticHead(3, 4, SeededRng(2))
        _randomize(head, 55)
        rng = SeededRng(56)
        X = rng.uniform(-1, 1, (3, 4))
        Y = (rng.uniform(size=(3, 3)) < 0.5).astype(float)

        def loss():
            P, _ = head.forward(X)
            s, _ = _ce_batch(P, Y)
            return s / X.shape[0]

        for p in head.params():
            p.zero_grad()
        P, cache = head.forward(X)
        _, dZ = _ce_batch(P, Y)
        head.backward(cache, dZ)
        assert finite_diff_check(loss, head.params()) < 1e-4

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_residual_input_gradient(self, seed):
        head = ResidualHead(3, 4, 2, (2, 2), SeededRng(seed))
        _randomize(head, seed + 1)
        rng = SeededRng(seed + 2)
        X = rng.uniform(-1, 1, (1, 4))
        Y = (rng.uniform(size=(1, 3)) < 0.5).astype(float)
        for p in head.params():
            p.zero_grad()
        P, cache = head.forward(X)
        _, dZ = _ce_batch(P, Y)
        dX = head.backward(cache, dZ)

        def loss():
            P2, _ = head.forward(X)
            s, _ = _ce_batch(P2, Y)
            return s

        num = np.zeros_like(X)
        d = 1e-6
        for j in range(4):
            orig = X[0, j]
            X[0, j] = orig + d
            up = loss()
            X[0, j] = orig - d
            down = loss()
            X[0, j] = orig
            num[0, j] = (up - down) / (2 * d)
        assert np.abs(dX - num).max() < 1e-5
