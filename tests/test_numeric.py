import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres.exceptions import ConfigError, TrainingError
from convres.heads import LogisticHead
from convres.numeric import ParamTensor, SeededRng, adam_step, logsumexp, sigmoid, softplus

from oracles import adam_step_rebinding, finite_diff_check

MASK64 = (1 << 64) - 1


def _splitmix64_reference(state: int, n: int) -> list[int]:
    """Textbook splitmix64, kept in pure Python ints as an independent oracle."""
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 123456789, MASK64 - 4])
    def test_matches_splitmix64_reference(self, seed):
        ours = [int(v) for v in SeededRng(seed).raw(16)]
        assert ours == _splitmix64_reference(seed, 16)

    def test_same_seed_same_sequence(self):
        a = SeededRng(7).uniform(size=100)
        b = SeededRng(7).uniform(size=100)
        assert np.array_equal(a, b)

    def test_uniform_mean(self):
        u = SeededRng(3).uniform(size=10_000)
        assert abs(u.mean() - 0.5) < 0.02
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_spawn_streams_differ(self):
        root = SeededRng(9)
        a = root.spawn(1).uniform(size=50)
        b = root.spawn(2).uniform(size=50)
        assert not np.array_equal(a, b)
        again = SeededRng(9).spawn(1).uniform(size=50)
        assert np.array_equal(a, again)

    def test_shuffle_deterministic(self):
        items = list(range(20))
        SeededRng(4).shuffle(items)
        items2 = list(range(20))
        SeededRng(4).shuffle(items2)
        assert items == items2
        assert sorted(items) == list(range(20))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 4, MASK64 - 4])
    def test_shuffle_equals_the_per_step_loop(self, n, seed):
        ref_rng, items_ref = SeededRng(seed), list(range(n))
        for i in range(n - 1, 0, -1):  # one draw per Fisher-Yates step
            j = ref_rng.integers(i + 1)
            items_ref[i], items_ref[j] = items_ref[j], items_ref[i]
        rng, items = SeededRng(seed), list(range(n))
        rng.shuffle(items)
        assert items == items_ref
        assert rng.uniform() == ref_rng.uniform()  # same stream position after

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, MASK64),
        n=st.integers(0, 50),
        data=st.data(),
    )
    def test_give_back_equals_drawing_fewer(self, seed, n, data):
        m = data.draw(st.integers(0, n))
        rng, ref = SeededRng(seed), SeededRng(seed)
        drawn = rng.raw(n)
        rng.give_back(m)
        assert np.array_equal(drawn[: n - m], ref.raw(n - m))
        assert np.array_equal(rng.raw(5), ref.raw(5))

    def test_give_back_refuses_negative_or_undrawn_counts(self):
        rng = SeededRng(3)
        rng.raw(4)
        rng.give_back(1)
        with pytest.raises(ConfigError):
            rng.give_back(-1)
        with pytest.raises(ConfigError):
            rng.give_back(4)  # 3 draws made since construction
        rng.give_back(3)
        assert np.array_equal(rng.raw(2), SeededRng(3).raw(2))
        with pytest.raises(ConfigError):
            SeededRng(3).give_back(1)


def _affine(X, W, b):
    """z_0 = X W^T + b for a batch X, as the depth-0 (logistic) head computes it."""
    head = LogisticHead(*np.shape(W), SeededRng(0))
    head.W0.value[...] = W
    head.b[0].value[...] = b
    _, cache = head.forward(np.asarray(X, dtype=np.float64))
    return cache["Z"][0]


class TestAffine:
    def test_zero_weights_returns_bias(self):
        out = _affine(np.array([[5.0, -2.0, 1.0]]), np.zeros((2, 3)), np.array([1.0, -1.0]))
        assert np.array_equal(out, [[1.0, -1.0]])

    def test_identity(self):
        out = _affine(np.array([[3.0, 4.0]]), np.eye(2), np.zeros(2))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_hand_case(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = _affine(np.array([[1.0, 1.0]]), W, np.array([1.0, 1.0]))
        assert np.array_equal(out, [[4.0, 8.0]])

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, rows, cols, alpha, beta, seed):
        rng = SeededRng(seed)
        W = rng.uniform(-1, 1, (rows, cols))
        b = rng.uniform(-1, 1, (rows,))
        x = rng.uniform(-1, 1, (1, cols))
        y = rng.uniform(-1, 1, (1, cols))
        lhs = _affine(alpha * x + beta * y, W, b)
        rhs = alpha * _affine(x, W, np.zeros(rows)) + beta * _affine(y, W, np.zeros(rows)) + b
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestActivation:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_deep_negative_is_finite_nonzero(self):
        v = sigmoid(np.array([-40.0]))[0]
        assert 0.0 < v <= 1e-17

    def test_sigmoid_no_overflow_for_large_inputs(self):
        z = np.array([-700.0, 700.0, -1e4, 1e4])
        out = sigmoid(z)
        assert np.isfinite(out).all()
        assert out[1] == 1.0 and out[3] == 1.0


class TestAdam:
    def test_zero_gradient_leaves_value(self):
        p = ParamTensor("w", np.array([[1.0, -2.0], [0.5, 3.0]]))
        before = p.value.copy()
        adam_step(p, lr=0.1)
        assert np.array_equal(p.value, before)
        assert p.step == 1

    def test_first_step_hand_case(self):
        p = ParamTensor("w", np.array([1.0]))
        p.grad[:] = 1.0
        adam_step(p, lr=0.1)
        assert abs(p.value[0] - 0.9) < 1e-6

    def test_deterministic_across_twins(self):
        a = ParamTensor("a", np.array([0.3, -0.7]))
        b = ParamTensor("b", np.array([0.3, -0.7]))
        for _ in range(5):
            a.grad[:] = [0.1, -0.4]
            b.grad[:] = [0.1, -0.4]
            adam_step(a, lr=0.01)
            adam_step(b, lr=0.01)
        assert np.array_equal(a.value, b.value)

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_in_place_update_equals_the_rebinding_expression(self, seed, rows, cols):
        rng = SeededRng(seed)
        value = rng.uniform(-2, 2, (rows, cols))
        p, ref = ParamTensor("p", value), ParamTensor("ref", value.copy())
        m, v = p.m, p.v
        for _ in range(5):
            # gradients spread over many binades, so rounding differences show
            g = rng.uniform(-1, 1, (rows, cols)) * 10.0 ** rng.uniform(-6, 3, (rows, cols))
            p.grad[...] = g
            ref.grad[...] = g
            adam_step(p, lr=0.01)
            adam_step_rebinding(ref, lr=0.01)
            assert np.array_equal(p.value, ref.value)
            assert np.array_equal(p.m, ref.m) and np.array_equal(p.v, ref.v)
        assert p.m is m and p.v is v and p.step == ref.step == 5

    def test_nonfinite_gradient_names_tensor(self):
        p = ParamTensor("conv_w3", np.array([1.0]))
        p.grad[:] = np.nan
        with pytest.raises(TrainingError) as exc:
            adam_step(p)
        assert "conv_w3" in str(exc.value)

    @given(st.integers(0, 2**32), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_zero_grad_invariance_property(self, seed, n):
        p = ParamTensor("p", SeededRng(seed).uniform(-2, 2, (n, n)))
        before = p.value.copy()
        adam_step(p)
        assert np.array_equal(p.value, before)


class TestFiniteDiff:
    def test_quadratic(self):
        p = ParamTensor("theta", np.array([3.0]))
        p.grad[:] = 3.0
        err = finite_diff_check(lambda: 0.5 * float(p.value[0]) ** 2, [p])
        assert err < 1e-9

    def test_constant_loss(self):
        p = ParamTensor("theta", np.array([1.0, 2.0]))
        err = finite_diff_check(lambda: 4.0, [p])
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        p = ParamTensor("theta", np.array([3.0]))
        p.grad[:] = 1.0  # analytic gradient should be 3
        err = finite_diff_check(lambda: 0.5 * float(p.value[0]) ** 2, [p])
        assert err > 0.5


class TestUniformInit:
    """Parameter init draws its matrices with `SeededRng.uniform(lo, hi, (rows, cols))`."""

    def test_range(self):
        m = SeededRng(0).uniform(-0.01, 0.01, (40, 25))
        assert m.shape == (40, 25)
        assert (m >= -0.01).all() and (m < 0.01).all()

    def test_determinism(self):
        a = SeededRng(5).uniform(-0.25, 0.25, (10, 10))
        b = SeededRng(5).uniform(-0.25, 0.25, (10, 10))
        assert np.array_equal(a, b)


class TestLogHelpers:
    def test_softplus_matches_naive_in_safe_range(self):
        z = np.linspace(-20, 20, 101)
        assert np.allclose(softplus(z), np.log1p(np.exp(z)), atol=1e-12)

    def test_softplus_large(self):
        assert softplus(np.array([1000.0]))[0] == 1000.0
        assert softplus(np.array([-1000.0]))[0] == 0.0

    def test_logsumexp_against_naive(self):
        a = SeededRng(2).uniform(-5, 5, (40,))
        assert abs(logsumexp(a) - np.log(np.exp(a).sum())) < 1e-12

    def test_logsumexp_with_neg_inf(self):
        a = np.array([-np.inf, 0.0, 1.0])
        assert abs(logsumexp(a) - np.log(1 + np.e)) < 1e-12
