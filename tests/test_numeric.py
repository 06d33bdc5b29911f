"""Core kernels: layers, losses, Adam, and the gradient checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.errors import NumericError, ShapeError, StateError, ValidationError
from fedsplit.numeric import (
    AdamState,
    DenseLayer,
    EmbeddingTable,
    GradCheckReport,
    Mlp,
    adam_step,
    bce_loss,
    bernoulli_kl,
    grad_check,
    log_sigmoid,
    sigmoid,
)

F32 = np.float32
F64 = np.float64


def fd_layer_grads(layer, x, upstream, step=1e-3):
    """Central-difference oracle on a float64 shadow copy of one layer.

    Evaluates loss = sum(upstream * forward(x)) so dloss/dout = upstream.
    """
    w64 = layer.weight.astype(F64)
    b64 = layer.bias.astype(F64)
    x64 = np.asarray(x, dtype=F64)
    up = np.asarray(upstream, dtype=F64)

    def loss_at(w, b):
        pre = x64 @ w + b
        out = np.maximum(pre, 0) if layer.activation == "relu" else pre
        return float((up * out).sum())

    grad_w = np.zeros_like(w64)
    for i in range(w64.shape[0]):
        for j in range(w64.shape[1]):
            wp = w64.copy(); wp[i, j] += step
            wm = w64.copy(); wm[i, j] -= step
            grad_w[i, j] = (loss_at(wp, b64) - loss_at(wm, b64)) / (2 * step)
    grad_b = np.zeros_like(b64)
    for j in range(b64.shape[0]):
        bp = b64.copy(); bp[j] += step
        bm = b64.copy(); bm[j] -= step
        grad_b[j] = (loss_at(w64, bp) - loss_at(w64, bm)) / (2 * step)
    return grad_w, grad_b


class TestDenseForward:
    def test_identity_weights_pass_input_through(self):
        layer = DenseLayer(weight=np.eye(2, dtype=F32), bias=np.zeros(2, dtype=F32),
                           activation="identity")
        out, _ = layer.forward(np.array([[1.0, 2.0]], dtype=F32))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_relu_clamps_negatives(self):
        layer = DenseLayer(weight=np.eye(2, dtype=F32), bias=np.zeros(2, dtype=F32),
                           activation="relu")
        out, _ = layer.forward(np.array([[-1.0, 2.0]], dtype=F32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_hand_matrix_multiply(self):
        # weight [[1],[1]], bias [0.5], input [[1,2]] -> 1*1 + 2*1 + 0.5 = 3.5
        layer = DenseLayer(weight=np.ones((2, 1), dtype=F32),
                           bias=np.array([0.5], dtype=F32), activation="identity")
        out, _ = layer.forward(np.array([[1.0, 2.0]], dtype=F32))
        np.testing.assert_allclose(out, [[3.5]])

    def test_shape_mismatch_raises(self):
        layer = DenseLayer.create(3, 2, "relu", np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, 5), dtype=F32))

    def test_output_shape(self):
        layer = DenseLayer.create(3, 7, "relu", np.random.default_rng(0))
        out, _ = layer.forward(np.zeros((5, 3), dtype=F32))
        assert out.shape == (5, 7)


class TestBackward:
    def test_identity_layer_input_grad_is_weight_transpose_times_ones(self):
        rng = np.random.default_rng(1)
        layer = DenseLayer.create(3, 2, "identity", rng)
        x = rng.normal(size=(4, 3)).astype(F32)
        out, cache = layer.forward(x)
        grad_x, _, _ = layer.backward(cache, np.ones_like(out))
        expected = np.ones_like(out) @ layer.weight.T
        np.testing.assert_allclose(grad_x, expected, rtol=1e-6)

    def test_dead_relu_blocks_gradient(self):
        # single unit with pre-activation forced to -1
        layer = DenseLayer(weight=np.eye(1, dtype=F32),
                           bias=np.array([0.0], dtype=F32), activation="relu")
        out, cache = layer.forward(np.array([[-1.0]], dtype=F32))
        grad_x, grad_w, grad_b = layer.backward(cache, np.ones_like(out))
        assert grad_x[0, 0] == 0.0
        assert grad_w[0, 0] == 0.0
        assert grad_b[0] == 0.0

    def test_random_layer_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        layer = DenseLayer.create(3, 4, "relu", rng)
        x = rng.normal(size=(5, 3)).astype(F32)
        # keep pre-activations away from the kink so the FD step cannot cross it
        layer.bias = (np.sign(rng.normal(size=4)) * 0.5).astype(F32)
        upstream = rng.normal(size=(5, 4)).astype(F32)

        out, cache = layer.forward(x.astype(F64))
        _, grad_w, grad_b = layer.backward(cache, upstream.astype(F64))
        fd_w, fd_b = fd_layer_grads(layer, x, upstream, step=1e-3)
        np.testing.assert_allclose(grad_w, fd_w, rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(grad_b, fd_b, rtol=1e-3, atol=1e-6)

    def test_backward_without_forward_is_state_error(self):
        layer = DenseLayer.create(2, 2, "relu", np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(None, np.ones((1, 2), dtype=F32))
        mlp = Mlp.create(2, [2], np.random.default_rng(0))
        with pytest.raises(StateError):
            mlp.backward(None, np.ones((1, 2), dtype=F32))

    def test_input_gradient_shape_matches_input(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer.create(6, 2, "relu", rng)
        x = rng.normal(size=(7, 6)).astype(F32)
        out, cache = layer.forward(x)
        grad_x, _, _ = layer.backward(cache, np.ones_like(out))
        assert grad_x.shape == x.shape


class TestAdam:
    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2 on step one, so the update is -lr * g/(|g|+eps)
        state = AdamState(lr=0.1, l2=0.0)
        params = {"w": np.array([0.0], dtype=F32)}
        grads = {"w": np.array([1.0], dtype=F32)}
        adam_step(state, params, grads)
        np.testing.assert_allclose(params["w"], [-0.1], atol=1e-6)

    def test_zero_gradient_leaves_param_unchanged(self):
        state = AdamState(lr=0.1, l2=0.0)
        params = {"w": np.array([3.0], dtype=F32)}
        adam_step(state, params, {"w": np.zeros(1, dtype=F32)})
        np.testing.assert_array_equal(params["w"], [3.0])

    def test_weight_decay_direction(self):
        state = AdamState(lr=0.1, l2=0.01)
        params = {"w": np.array([2.0], dtype=F32)}
        adam_step(state, params, {"w": np.zeros(1, dtype=F32)}, decay_full={"w"})
        assert params["w"][0] < 2.0

    def test_decay_skips_unlisted_params(self):
        state = AdamState(lr=0.1, l2=0.01)
        params = {"b": np.array([2.0], dtype=F32)}
        adam_step(state, params, {"b": np.zeros(1, dtype=F32)})
        np.testing.assert_array_equal(params["b"], [2.0])

    def test_decay_rows_only_touch_listed_rows(self):
        state = AdamState(lr=0.1, l2=0.01)
        table = np.ones((4, 2), dtype=F32)
        params = {"emb": table}
        grads = {"emb": np.zeros((4, 2), dtype=F32)}
        adam_step(state, params, grads, decay_rows={"emb": np.array([1, 3])})
        np.testing.assert_array_equal(table[0], [1.0, 1.0])
        np.testing.assert_array_equal(table[2], [1.0, 1.0])
        assert np.all(table[1] < 1.0) and np.all(table[3] < 1.0)

    def test_non_finite_gradient_names_parameter(self):
        state = AdamState(lr=0.1)
        params = {"layer0.weight": np.zeros(2, dtype=F32)}
        grads = {"layer0.weight": np.array([1.0, np.nan], dtype=F32)}
        with pytest.raises(NumericError, match="layer0.weight"):
            adam_step(state, params, grads)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_element_of_a_matrix_gradient_is_refused(self, bad):
        state = AdamState(lr=0.1)
        params = {"layer0.weight": np.zeros((3, 2), dtype=F32)}
        grads = {"layer0.weight": np.array([[1.0, 2.0], [3.0, bad], [4.0, 5.0]], dtype=F32)}
        with pytest.raises(NumericError, match="layer0.weight"):
            adam_step(state, params, grads)
        assert state.m == {} and not params["layer0.weight"].any()

    def test_finite_gradient_whose_squares_overflow_still_steps(self):
        # g·g overflows float32 here, so only the elementwise check can
        # tell that every element is finite
        rng = np.random.default_rng(3)
        start = rng.normal(size=(5, 4)).astype(F32)
        grads = {"w": (rng.normal(size=(5, 4)) * 1e30).astype(F32)}
        assert np.all(np.isfinite(grads["w"]))
        f = grads["w"].ravel()
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(f, f))
        ours, ref = AdamState(lr=1e-2), AdamState(lr=1e-2)
        p_ours, p_ref = {"w": start.copy()}, {"w": start.copy()}
        with np.errstate(over="ignore"):
            adam_step(ours, p_ours, grads)
            reference_adam_step(ref, p_ref, grads)
        assert p_ours["w"].tobytes() == p_ref["w"].tobytes()
        assert ours.m["w"].tobytes() == ref.m["w"].tobytes()
        assert ours.v["w"].tobytes() == ref.v["w"].tobytes()

    def test_bit_reproducible(self):
        def one_run():
            rng = np.random.default_rng(11)
            state = AdamState(lr=1e-2, l2=1e-4)
            params = {"w": rng.normal(size=(8, 4)).astype(F32)}
            for step in range(25):
                g = {"w": rng.normal(size=(8, 4)).astype(F32)}
                adam_step(state, params, g, decay_full={"w"})
            return params["w"].tobytes()

        assert one_run() == one_run()


def reference_adam_step(state, params, grads, *, decay_full=(), decay_rows=None):
    """The allocating textbook form of adam_step, kept as the oracle that the
    in-place implementation must match bit for bit."""
    decay_full = set(decay_full)
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if state.l2 > 0.0:
            if name in decay_full:
                g = g + state.l2 * p
            elif decay_rows is not None and name in decay_rows:
                rows = decay_rows[name]
                g = g.copy()
                g[rows] += state.l2 * p[rows]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


class TestAdamMatchesReference:
    @pytest.mark.parametrize("dtype", [F32, F64])
    @pytest.mark.parametrize("decay", ["none", "full", "rows"])
    def test_bit_identical_over_many_steps(self, decay, dtype):
        rng = np.random.default_rng(5)
        shapes = {"w": (6, 4), "b": (4,), "emb": (16, 3)}
        start = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        kwargs = {"lr": 3e-2, "l2": 0.0 if decay == "none" else 1e-2}
        ours, ref = AdamState(**kwargs), AdamState(**kwargs)
        p_ours = {k: a.copy() for k, a in start.items()}
        p_ref = {k: a.copy() for k, a in start.items()}
        for step in range(30):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            before = {k: g.tobytes() for k, g in grads.items()}
            decay_args = {}
            if decay == "full":
                decay_args["decay_full"] = {"w"}
            elif decay == "rows":
                # repeated rows, as a batch that hits one bucket twice gives
                decay_args["decay_rows"] = {"emb": rng.integers(0, 16, size=7)}
            if step == 12:
                # restore-best and set_params rebind a name to a new array
                fresh = rng.normal(size=shapes["w"]).astype(dtype)
                p_ours["w"], p_ref["w"] = fresh.copy(), fresh.copy()
            adam_step(ours, p_ours, grads, **decay_args)
            reference_adam_step(ref, p_ref, grads, **decay_args)
            assert {k: g.tobytes() for k, g in grads.items()} == before
            for name in shapes:
                assert p_ours[name].dtype == dtype
                assert p_ours[name].tobytes() == p_ref[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)

    def test_work_buffers_follow_the_names_of_the_last_step(self):
        state = AdamState(lr=0.1)
        params = {"a": np.ones(3, dtype=F32), "b": np.ones(2, dtype=F32)}
        grads = {k: np.ones_like(p) for k, p in params.items()}
        adam_step(state, params, grads)
        adam_step(state, {"a": params["a"]}, grads)
        assert set(state.work) == {"a"}

    def test_step_at_hashed_scale_allocates_less_than_one_table(self):
        # A 2^16 x 8 float32 table is 2 MiB. The textbook form allocates
        # several tables' worth of temporaries per step; the in-place update
        # with the dot-product finiteness screen allocates only row-sized
        # scratch (about 50 KB), well under an eighth of the table.
        import tracemalloc

        rng = np.random.default_rng(0)
        table = rng.normal(size=(1 << 16, 8)).astype(F32)
        params = {"emb": table}
        grads = {"emb": rng.normal(size=table.shape).astype(F32)}
        rows = {"emb": rng.integers(0, table.shape[0], size=512)}
        state = AdamState(lr=1e-3, l2=1e-4)
        adam_step(state, params, grads, decay_rows=rows)
        tracemalloc.start()
        try:
            adam_step(state, params, grads, decay_rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes // 8, peak


class TestLogSigmoid:
    def test_at_zero(self):
        np.testing.assert_allclose(log_sigmoid(np.array(0.0)), -math.log(2), rtol=1e-6)

    def test_saturation_positive(self):
        value = log_sigmoid(np.array(50.0))
        assert np.isfinite(value) and abs(value) < 1e-8

    def test_asymptote_negative(self):
        value = log_sigmoid(np.array(-50.0))
        assert np.isfinite(value)
        np.testing.assert_allclose(value, -50.0, atol=1e-8)

    def test_finite_over_extreme_logits(self):
        x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=F32)
        assert np.all(np.isfinite(log_sigmoid(x)))
        assert np.all(np.isfinite(sigmoid(x)))


class TestBceLoss:
    def test_logit_zero_label_one(self):
        loss, _ = bce_loss(np.array([0.0], dtype=F32), np.array([1.0], dtype=F32))
        np.testing.assert_allclose(loss, math.log(2), rtol=1e-6)

    def test_confident_correct(self):
        loss, _ = bce_loss(np.array([50.0], dtype=F32), np.array([1.0], dtype=F32))
        assert 0 <= loss < 1e-8

    def test_mean_of_symmetric_terms(self):
        loss, _ = bce_loss(np.array([0.0, 0.0], dtype=F32), np.array([1.0, 0.0], dtype=F32))
        np.testing.assert_allclose(loss, math.log(2), rtol=1e-6)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            bce_loss(np.zeros(2, dtype=F32), np.array([0.0, 1.5], dtype=F32))

    def test_soft_labels_allowed(self):
        loss, grad = bce_loss(np.zeros(3, dtype=F32), np.array([0.3, 0.5, 0.9], dtype=F32))
        assert np.isfinite(loss)
        np.testing.assert_allclose(grad, (0.5 - np.array([0.3, 0.5, 0.9])) / 3, rtol=1e-6)

    def test_finite_for_extreme_logits(self):
        logits = np.array([-1e4, 1e4], dtype=F32)
        loss, grad = bce_loss(logits, np.array([1.0, 0.0], dtype=F32))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=6)
        y = rng.random(6)
        _, grad = bce_loss(z, y)
        step = 1e-6
        for i in range(6):
            zp = z.copy(); zp[i] += step
            zm = z.copy(); zm[i] -= step
            fd = (bce_loss(zp, y)[0] - bce_loss(zm, y)[0]) / (2 * step)
            np.testing.assert_allclose(grad[i], fd, rtol=1e-4, atol=1e-9)


class TestBernoulliKl:
    def test_identical_distributions(self):
        kl, _ = bernoulli_kl(0.3, 0.3)
        assert kl == 0.0

    def test_near_one_vs_half(self):
        kl, _ = bernoulli_kl(1 - 1e-7, 0.5)
        np.testing.assert_allclose(kl, math.log(2), atol=1e-4)

    def test_gradient_zero_at_minimum(self):
        _, grad = bernoulli_kl(0.4, 0.4)
        assert grad == 0.0

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, p, q):
        kl, _ = bernoulli_kl(p, q)
        assert kl >= 0.0
        if kl == 0.0:
            assert np.isclose(p, q, rtol=0, atol=1e-12)
        if p == q:
            assert kl == 0.0


class TestEmbeddingTable:
    def test_lookup_returns_rows(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable.create(5, 3, rng)
        idx = np.array([0, 4, 4])
        np.testing.assert_array_equal(table.lookup(idx), table.table[[0, 4, 4]])

    def test_out_of_range_rejected(self):
        table = EmbeddingTable.create(5, 3, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            table.lookup(np.array([5]))

    def test_grad_scatter_adds_duplicates(self):
        table = EmbeddingTable.create(4, 2, np.random.default_rng(0))
        idx = np.array([1, 1, 2])
        grad_rows = np.ones((3, 2), dtype=F32)
        g = table.grad(idx, grad_rows)
        np.testing.assert_array_equal(g[1], [2.0, 2.0])
        np.testing.assert_array_equal(g[2], [1.0, 1.0])
        np.testing.assert_array_equal(g[0], [0.0, 0.0])


class _TinyModel:
    """Linear (or small MLP) scoring head for grad_check tests."""

    def __init__(self, mlp):
        self.mlp = mlp

    def params(self):
        return self.mlp.params()

    def set_params(self, mapping):
        self.mlp.set_params(mapping)


class TestGradCheck:
    def _bce_loss_fn(self, x, y):
        def loss_fn(model):
            out, caches = model.mlp.forward(x)
            loss, grad = bce_loss(out[:, 0], y)
            _, grads = model.mlp.backward(caches, grad.reshape(-1, 1))
            return loss, grads

        return loss_fn

    def test_linear_model_with_bce(self):
        rng = np.random.default_rng(2)
        model = _TinyModel(Mlp.create(4, [1], rng, final_activation="identity"))
        x = rng.normal(size=(12, 4)).astype(F32)
        y = (rng.random(12) > 0.5).astype(F32)
        report = grad_check(model, self._bce_loss_fn(x, y), tolerance=1e-4, step=1e-5)
        assert report.passed, report

    def test_two_layer_relu_off_kink(self):
        rng = np.random.default_rng(3)
        model = _TinyModel(Mlp.create(3, [5, 1], rng, final_activation="identity"))
        # push pre-activations away from zero
        model.mlp.layers[0].bias += np.sign(rng.normal(size=5)).astype(F32) * 0.7
        x = rng.normal(size=(9, 3)).astype(F32)
        y = (rng.random(9) > 0.5).astype(F32)
        report = grad_check(model, self._bce_loss_fn(x, y), tolerance=1e-3, step=1e-5)
        assert report.passed, report

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(4)
        model = _TinyModel(Mlp.create(4, [1], rng, final_activation="identity"))
        x = rng.normal(size=(8, 4)).astype(F32)
        y = (rng.random(8) > 0.5).astype(F32)
        honest = self._bce_loss_fn(x, y)

        def corrupted(m):
            loss, grads = honest(m)
            grads = {k: v * 1.5 for k, v in grads.items()}
            return loss, grads

        report = grad_check(model, corrupted, tolerance=1e-3, step=1e-5)
        assert not report.passed

    def test_restores_float32_params(self):
        rng = np.random.default_rng(5)
        model = _TinyModel(Mlp.create(2, [1], rng, final_activation="identity"))
        before = {k: v.copy() for k, v in model.params().items()}
        x = rng.normal(size=(4, 2)).astype(F32)
        y = np.array([0, 1, 0, 1], dtype=F32)
        grad_check(model, self._bce_loss_fn(x, y), step=1e-5)
        after = model.params()
        for name in before:
            assert after[name].dtype == F32
            np.testing.assert_array_equal(after[name], before[name])


class TestInitialization:
    def test_glorot_bound(self):
        layer = DenseLayer.create(30, 10, "relu", np.random.default_rng(0))
        bound = math.sqrt(6.0 / 40)
        assert np.all(np.abs(layer.weight) <= bound)
        np.testing.assert_array_equal(layer.bias, np.zeros(10, dtype=F32))

    def test_deterministic_given_seed(self):
        a = DenseLayer.create(8, 8, "relu", np.random.default_rng(42))
        b = DenseLayer.create(8, 8, "relu", np.random.default_rng(42))
        np.testing.assert_array_equal(a.weight, b.weight)
