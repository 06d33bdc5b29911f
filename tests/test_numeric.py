"""Core kernels: layers, losses, Adam, and the gradient checker."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsplit.errors import NumericError, ShapeError, StateError, ValidationError
from fedsplit.numeric import (
    DENSE_TABLE_ROWS,
    AdamState,
    DenseLayer,
    EmbeddingTable,
    Mlp,
    RowSparseGrad,
    adam_step,
    bce_loss,
    bernoulli_kl,
    log_sigmoid,
    sigmoid,
)
from oracles import dense_grad, grad_check, reference_adam_step, reference_logits

F32 = np.float32
F64 = np.float64


def snapshot(state, params):
    """Everything a refused Adam step must leave as it was."""
    return (state.step, state.layout,
            {k: v.tobytes() for k, v in params.items()},
            {k: v.tobytes() for k, v in state.m.items()},
            {k: v.tobytes() for k, v in state.v.items()},
            {k: v.tobytes() for k, v in state.live.items()})


def fd_layer_grads(layer, x, upstream, step=1e-3):
    """Central-difference oracle on a float64 copy of one layer.

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

    def test_float64_input_is_refused(self):
        layer = DenseLayer.create(3, 2, "relu", np.random.default_rng(0))
        with pytest.raises(ShapeError, match="layer input must be float32, got float64"):
            layer.forward(np.zeros((4, 3), dtype=F64))

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

        out, cache = layer.forward(x)
        _, grad_w, grad_b = layer.backward(cache, upstream)
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
        params = {"w": np.array([[2.0]], dtype=F32)}
        adam_step(state, params, {"w": np.zeros((1, 1), dtype=F32)})
        assert params["w"][0, 0] < 2.0

    def test_decay_skips_unlisted_params(self):
        state = AdamState(lr=0.1, l2=0.01)
        params = {"b": np.array([2.0], dtype=F32)}
        adam_step(state, params, {"b": np.zeros(1, dtype=F32)})
        np.testing.assert_array_equal(params["b"], [2.0])

    def test_bias_gets_no_decay_and_a_dense_matrix_gets_it_in_full(self):
        state = AdamState(lr=0.1, l2=0.01)
        params = {"b": np.full(3, 2.0, dtype=F32), "w": np.full((3, 2), 2.0, dtype=F32)}
        adam_step(state, params, {k: np.zeros_like(p) for k, p in params.items()})
        np.testing.assert_array_equal(params["b"], [2.0, 2.0, 2.0])
        assert np.all(params["w"] < 2.0)

    @pytest.mark.parametrize("buckets", [4, DENSE_TABLE_ROWS + 4])
    def test_row_sparse_decay_only_touches_its_rows(self, buckets):
        state = AdamState(lr=0.1, l2=0.01)
        table = np.ones((buckets, 2), dtype=F32)
        g = RowSparseGrad(np.array([1, 3]), np.zeros((2, 2), dtype=F32), table.shape)
        adam_step(state, {"emb": table}, {"emb": g})
        np.testing.assert_array_equal(table[0], [1.0, 1.0])
        np.testing.assert_array_equal(table[2], [1.0, 1.0])
        assert np.all(table[1] < 1.0) and np.all(table[3] < 1.0)
        assert np.all(table[4:] == 1.0)

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

    def test_refused_step_moves_nothing(self):
        # a is screened and would move first, and emb takes the live-row
        # path; b's NaN must refuse the step before either has moved
        rng = np.random.default_rng(8)
        params = {"a": rng.normal(size=(3, 2)).astype(F32),
                  "emb": rng.normal(size=(DENSE_TABLE_ROWS + 8, 2)).astype(F32),
                  "b": rng.normal(size=2).astype(F32)}
        state = AdamState(lr=0.1, l2=0.01)

        def grads(b_last):
            emb = EmbeddingTable(table=params["emb"]).grad(
                np.array([1, 5, 1]), np.ones((3, 2), dtype=F32))
            return {"a": np.ones((3, 2), dtype=F32), "emb": emb,
                    "b": np.array([0.5, b_last], dtype=F32)}

        adam_step(state, params, grads(0.5))
        before = snapshot(state, params)
        with pytest.raises(NumericError, match="'b'"):
            adam_step(state, params, grads(np.nan))
        assert snapshot(state, params) == before

    def test_a_later_non_finite_live_row_gradient_moves_nothing(self):
        # a live-row table's gradient is screened apart from the flat buffer
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(3, 2)).astype(F32),
                  "emb": rng.normal(size=(DENSE_TABLE_ROWS + 8, 2)).astype(F32)}
        state = AdamState(lr=0.1, l2=0.01)

        def grads(bad):
            rows = np.ones((3, 2), dtype=F32)
            rows[1, 0] = bad
            return {"w": np.ones((3, 2), dtype=F32),
                    "emb": EmbeddingTable(table=params["emb"]).grad(np.array([1, 5, 1]), rows)}

        adam_step(state, params, grads(0.5))
        assert list(state.live) == ["emb"]
        before = snapshot(state, params)
        with pytest.raises(NumericError, match="'emb'"):
            adam_step(state, params, grads(np.inf))
        assert snapshot(state, params) == before

    def test_gradient_or_param_of_another_dtype_is_refused(self):
        state = AdamState(lr=0.1)
        params = {"w": np.ones((2, 2), dtype=F32), "b": np.ones(2, dtype=F32)}
        with pytest.raises(ShapeError, match="'b' has a float64 gradient"):
            adam_step(state, params, {"w": np.ones((2, 2), dtype=F32), "b": np.ones(2)})
        params["b"] = np.ones(2)
        with pytest.raises(ShapeError, match="'b' has a float64 gradient for a float64 param"):
            adam_step(state, params, {"w": np.ones((2, 2), dtype=F32), "b": np.ones(2)})
        assert state.step == 0 and state.m == {} and np.all(params["w"] == 1.0)
        # a step of one dtype throughout is refused too, unless it is float32
        params64 = {k: v.astype(F64) for k, v in params.items()}
        with pytest.raises(ShapeError, match="must be float32"):
            adam_step(state, params64, {k: np.ones_like(v) for k, v in params64.items()})
        assert state.step == 0 and state.m == {} and state.layout is None
        assert all(np.all(v == 1.0) for v in params64.values())

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
                adam_step(state, params, g)
            return params["w"].tobytes()

        assert one_run() == one_run()


class TestAdamMatchesReference:
    @pytest.mark.parametrize("decay", ["none", "full", "rows"])
    def test_bit_identical_over_many_steps(self, decay):
        # "full": every 2-D gradient is dense, so w and emb get L2 in full;
        # "rows": emb's gradient is row-sparse, so only its rows get L2
        rng = np.random.default_rng(5)
        shapes = {"w": (6, 4), "b": (4,), "emb": (16, 3)}
        start = {k: rng.normal(size=s).astype(F32) for k, s in shapes.items()}
        kwargs = {"lr": 3e-2, "l2": 0.0 if decay == "none" else 1e-2}
        ours, ref = AdamState(**kwargs), AdamState(**kwargs)
        p_ours = {k: a.copy() for k, a in start.items()}
        p_ref = {k: a.copy() for k, a in start.items()}

        def raw(g):
            return g.values.tobytes() if isinstance(g, RowSparseGrad) else g.tobytes()

        for step in range(30):
            grads = {k: rng.normal(size=s).astype(F32) for k, s in shapes.items()}
            if decay == "rows":
                # repeated rows, as a batch that hits one bucket twice gives
                grads["emb"] = EmbeddingTable(table=p_ours["emb"]).grad(
                    rng.integers(0, 16, size=7), rng.normal(size=(7, 3)).astype(F32))
            before = {k: raw(g) for k, g in grads.items()}
            if step == 12:
                # a caller may rebind a name to a new array between steps
                fresh = rng.normal(size=shapes["w"]).astype(F32)
                p_ours["w"], p_ref["w"] = fresh.copy(), fresh.copy()
            adam_step(ours, p_ours, grads)
            reference_adam_step(ref, p_ref, grads)
            assert {k: raw(g) for k, g in grads.items()} == before
            for name in shapes:
                assert p_ours[name].dtype == F32
                assert p_ours[name].tobytes() == p_ref[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)

    @pytest.mark.parametrize("decay", ["none", "full", "rows"])
    def test_a_later_float64_step_is_refused_and_the_next_still_match(self, decay):
        # float32 is the one parameter dtype: a float64 gradient or param
        # after the layout is fixed moves nothing, and the steps after it
        # match a reference that never saw it
        rng = np.random.default_rng(7)
        shapes = {"w": (6, 4), "b": (4,), "emb": (16, 3)}
        start = {k: rng.normal(size=s).astype(F32) for k, s in shapes.items()}
        kwargs = {"lr": 3e-2, "l2": 0.0 if decay == "none" else 1e-2}
        ours, ref = AdamState(**kwargs), AdamState(**kwargs)
        p_ours = {k: a.copy() for k, a in start.items()}
        p_ref = {k: a.copy() for k, a in start.items()}

        def draw():
            grads = {k: rng.normal(size=s).astype(F32) for k, s in shapes.items()}
            if decay == "rows":
                grads["emb"] = EmbeddingTable(table=p_ours["emb"]).grad(
                    rng.integers(0, 16, size=7), rng.normal(size=(7, 3)).astype(F32))
            return grads

        for step in range(12):
            grads = draw()
            if step == 5:
                before = snapshot(ours, p_ours)
                g = grads["emb"]
                grads64 = dict(grads, emb=RowSparseGrad(g.rows, g.values.astype(F64), g.shape)
                               if isinstance(g, RowSparseGrad) else g.astype(F64))
                with pytest.raises(ShapeError, match="'emb' has a float64 gradient"):
                    adam_step(ours, p_ours, grads64)
                assert snapshot(ours, p_ours) == before
                with pytest.raises(StateError, match="same shapes and dtype"):
                    adam_step(ours, dict(p_ours, b=p_ours["b"].astype(F64)), grads)
                assert snapshot(ours, p_ours) == before
            adam_step(ours, p_ours, grads)
            reference_adam_step(ref, p_ref, grads)
            for name in shapes:
                assert p_ours[name].tobytes() == p_ref[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)

    # per step, a 6-index batch's row-sparse gradient ("s") or the same
    # gradient as a dense table ("d"), over a table above DENSE_TABLE_ROWS
    # rows, which takes the live-row path if its first step is row-sparse
    SCHEDULES = {
        "row-sparse": "s" * 30,
        "short-sparse-between-dense": "d" * 10 + "s" + "d" * 19,
    }

    @pytest.mark.parametrize("l2", [0.0, 1e-2])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_row_sparse_steps_match_the_reference_on_the_dense_gradient(self, schedule, l2):
        rng = np.random.default_rng(9)
        shape = (DENSE_TABLE_ROWS + 64, 3)
        start = {"emb": rng.normal(size=shape).astype(F32),
                 "w": rng.normal(size=(4, 2)).astype(F32)}
        ours, ref = AdamState(lr=3e-2, l2=l2), AdamState(lr=3e-2, l2=l2)
        p_ours = {k: a.copy() for k, a in start.items()}
        p_ref = {k: a.copy() for k, a in start.items()}
        for step, kind in enumerate(self.SCHEDULES[schedule]):
            idx = rng.zipf(1.5, size=6) % shape[0]  # repeated rows
            rows = rng.normal(size=(6, shape[1])).astype(F32)
            g = EmbeddingTable(table=p_ours["emb"]).grad(idx, rows)
            if kind == "d":
                g = dense_grad(g)
            w_grad = rng.normal(size=(4, 2)).astype(F32)
            if step == 12:
                # a caller may rebind a name to a new array between steps
                fresh = rng.normal(size=shape).astype(F32)
                p_ours["emb"], p_ref["emb"] = fresh.copy(), fresh.copy()
            adam_step(ours, p_ours, {"emb": g, "w": w_grad})
            reference_adam_step(ref, p_ref, {"emb": g, "w": w_grad})
            assert ("emb" in ours.live) == (self.SCHEDULES[schedule][0] == "s")
            for name in start:
                assert p_ours[name].dtype == F32
                assert p_ours[name].tobytes() == p_ref[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)

    @pytest.mark.parametrize("buckets", [DENSE_TABLE_ROWS, DENSE_TABLE_ROWS + 1])
    def test_tables_at_and_above_the_threshold_match_the_reference(self, buckets):
        # at the threshold every step is dense; above it every step runs
        # over the live rows
        rng = np.random.default_rng(13)
        start = rng.normal(size=(buckets, 2)).astype(F32)
        ours, ref = AdamState(lr=3e-2, l2=1e-2), AdamState(lr=3e-2, l2=1e-2)
        p_ours, p_ref = {"emb": start.copy()}, {"emb": start.copy()}
        for step in range(12):
            idx = rng.zipf(1.5, size=40) % buckets
            g = EmbeddingTable(table=p_ours["emb"]).grad(
                idx, rng.normal(size=(40, 2)).astype(F32))
            adam_step(ours, p_ours, {"emb": g})
            reference_adam_step(ref, p_ref, {"emb": g})
            assert ("emb" in ours.live) == (buckets > DENSE_TABLE_ROWS)
            assert p_ours["emb"].tobytes() == p_ref["emb"].tobytes(), step
            assert ours.m["emb"].tobytes() == ref.m["emb"].tobytes(), step
            assert ours.v["emb"].tobytes() == ref.v["emb"].tobytes(), step

    def test_a_dense_gradient_for_a_live_row_table_is_refused(self):
        rng = np.random.default_rng(2)
        n = DENSE_TABLE_ROWS + 100
        table = EmbeddingTable(table=rng.normal(size=(n, 2)).astype(F32))
        state = AdamState(lr=1e-2)
        for idx in ([5, 7, 5], [7, 9]):
            idx = np.array(idx)
            adam_step(state, {"emb": table.table},
                      {"emb": table.grad(idx, np.ones((idx.size, 2), dtype=F32))})
        np.testing.assert_array_equal(state.live["emb"], [5, 7, 9])
        assert state.layout.key == (("emb", (n, 2), F32),) and state.layout.m.size == 0
        before = snapshot(state, {"emb": table.table})
        with pytest.raises(ShapeError, match="'emb' takes the live-row path"):
            adam_step(state, {"emb": table.table}, {"emb": np.ones((n, 2), dtype=F32)})
        assert snapshot(state, {"emb": table.table}) == before

    def test_a_covered_table_stays_live_and_matches_the_reference(self):
        n = DENSE_TABLE_ROWS + 1
        ours, ref = AdamState(lr=1e-2, l2=1e-2), AdamState(lr=1e-2, l2=1e-2)
        p_ours = {"emb": np.ones((n, 2), dtype=F32)}
        p_ref = {"emb": np.ones((n, 2), dtype=F32)}
        for idx in (np.arange(n - 1), np.arange(1, n), np.arange(n)):
            g = EmbeddingTable(table=p_ours["emb"]).grad(
                idx, np.ones((idx.size, 2), dtype=F32))
            adam_step(ours, p_ours, {"emb": g})
            reference_adam_step(ref, p_ref, {"emb": g})
            assert p_ours["emb"].tobytes() == p_ref["emb"].tobytes()
            assert ours.m["emb"].tobytes() == ref.m["emb"].tobytes()
            assert ours.v["emb"].tobytes() == ref.v["emb"].tobytes()
        assert ours.live["emb"].size == n
        assert np.all(p_ours["emb"] < 1.0)

    @pytest.mark.parametrize("change", ["drop", "add", "reshape"])
    def test_a_step_over_other_parameters_is_refused(self, change):
        state = AdamState(lr=0.1)
        params = {"a": np.ones(3, dtype=F32), "b": np.ones(2, dtype=F32)}
        adam_step(state, params, {k: np.ones_like(p) for k, p in params.items()})
        assert [name for name, _, _ in state.layout.key] == ["a", "b"]
        assert state.layout.m.size == 5
        other = {"drop": {"a": params["a"]},
                 "add": {**params, "c": np.ones(2, dtype=F32)},
                 "reshape": {"a": params["a"], "b": np.ones(4, dtype=F32)}}[change]
        before = snapshot(state, params)
        with pytest.raises(StateError, match=r"\['a', 'b'\]"):
            adam_step(state, other, {k: np.ones_like(p) for k, p in other.items()})
        assert snapshot(state, params) == before

    # a bias, a weight and a table above DENSE_TABLE_ROWS; each 2-D
    # parameter's gradient may be row-sparse or dense
    CONTRACT_SHAPES = {"b": (2,), "w": (3, 2), "emb": (DENSE_TABLE_ROWS + 3, 2)}
    OTHER_SHAPES = {"b": (3,), "w": (4, 2), "emb": (DENSE_TABLE_ROWS + 4, 2)}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), l2=st.sampled_from([0.0, 1e-2]), seed=st.integers(0, 2**32 - 1))
    def test_legal_steps_match_the_reference_and_others_move_nothing(self, data, l2, seed):
        rng = np.random.default_rng(seed)
        names = data.draw(st.lists(st.sampled_from(sorted(self.CONTRACT_SHAPES)),
                                   min_size=1, unique=True), label="names")
        start = {n: rng.normal(size=self.CONTRACT_SHAPES[n]).astype(F32) for n in names}
        p_ours = {k: a.copy() for k, a in start.items()}
        p_ref = {k: a.copy() for k, a in start.items()}
        ours, ref = AdamState(lr=3e-2, l2=l2), AdamState(lr=3e-2, l2=l2)

        def grad(shape, sparse):
            if len(shape) == 1:
                return rng.normal(size=shape).astype(F32)
            g = EmbeddingTable(table=np.empty(shape, F32)).grad(
                rng.zipf(1.5, size=5) % shape[0], rng.normal(size=(5, 2)).astype(F32))
            return g if sparse else dense_grad(g)

        first_sparse = None
        for step in range(data.draw(st.integers(1, 6), label="steps")):
            kinds = ["legal"] if step == 0 else ["legal", "drop", "add", "reshape"]
            if "emb" in ours.live:
                kinds.append("dense")
            kind = data.draw(st.sampled_from(kinds), label=f"step {step}")
            sparse = {n: n in ours.live or data.draw(st.booleans(), label=f"{n} sparse")
                      for n in names}
            first_sparse = sparse if step == 0 else first_sparse
            params = dict(p_ours)
            if kind == "drop":
                params.pop(data.draw(st.sampled_from(names), label="dropped"))
            elif kind == "add":
                params["x"] = np.zeros(2, F32)
            elif kind == "reshape":
                name = data.draw(st.sampled_from(names), label="reshaped")
                params[name] = np.zeros(self.OTHER_SHAPES[name], F32)
            grads = {n: grad(p.shape, sparse.get(n, True)) for n, p in params.items()}
            if kind == "dense":
                grads["emb"] = dense_grad(grads["emb"])
            if kind != "legal":
                before = snapshot(ours, p_ours)
                error = ShapeError if kind == "dense" else StateError
                with pytest.raises(error):
                    adam_step(ours, params, grads)
                assert snapshot(ours, p_ours) == before
                continue
            adam_step(ours, p_ours, grads)
            reference_adam_step(ref, p_ref, grads)
            for name in names:
                assert p_ours[name].tobytes() == p_ref[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)
        assert sorted(ours.live) == (["emb"] if "emb" in names and first_sparse["emb"] else [])

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
        state = AdamState(lr=1e-3, l2=1e-4)
        adam_step(state, params, grads)
        tracemalloc.start()
        try:
            adam_step(state, params, grads)
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

    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_logit_gradient_is_float32_for_either_logit_dtype(self, dtype):
        rng = np.random.default_rng(6)
        z = rng.normal(size=7).astype(F32)
        y = rng.random(7).astype(F32)
        loss, grad = bce_loss(z.astype(dtype), y)
        ref_loss, ref_grad = bce_loss(z, y)
        assert grad.dtype == F32 and loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()


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
    @example(1e-6, 1.0000000000000002e-06)  # one ulp apart: rounded below zero
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
        # every table's gradient is row-sparse, however small the table
        table = EmbeddingTable.create(4, 2, np.random.default_rng(0))
        idx = np.array([1, 1, 2])
        grad_rows = np.ones((3, 2), dtype=F32)
        g = table.grad(idx, grad_rows)
        assert isinstance(g, RowSparseGrad) and g.shape == (4, 2)
        np.testing.assert_array_equal(g.rows, [1, 2])
        dense = dense_grad(g)
        np.testing.assert_array_equal(dense[1], [2.0, 2.0])
        np.testing.assert_array_equal(dense[2], [1.0, 1.0])
        np.testing.assert_array_equal(dense[0], [0.0, 0.0])
        np.testing.assert_array_equal(dense[3], [0.0, 0.0])
        assert g.nbytes == g.rows.nbytes + g.values.nbytes

    # one path for every table, on both sides of Adam's DENSE_TABLE_ROWS
    @pytest.mark.parametrize("buckets", [1000, DENSE_TABLE_ROWS + 1000])
    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_row_sparse_rows_are_bit_identical_to_the_dense_scatter_add(self, dtype, buckets):
        rng = np.random.default_rng(6)
        table = EmbeddingTable(table=rng.normal(size=(buckets, 5)).astype(F32))
        idx = rng.zipf(1.3, size=200) % buckets  # heavy repeats, as hashed IDs give
        grad_rows = rng.normal(size=(200, 5)).astype(dtype)
        grad_rows[::7] = -0.0  # a row of only -0.0 terms sums to +0.0 from zero
        g = table.grad(idx, grad_rows)
        dense = np.zeros((buckets, 5), dtype=dtype)
        np.add.at(dense, idx, grad_rows)
        assert g.values.dtype == dtype
        np.testing.assert_array_equal(g.rows, np.unique(idx))
        assert dense_grad(g).tobytes() == dense.tobytes()


class TestGradCheck:
    def _bce_loss_fn(self, x, y):
        def loss_fn(mlp):
            out, caches = mlp.forward(x)
            loss, grad = bce_loss(out[:, 0], y)
            _, grads = mlp.backward(caches, grad.reshape(-1, 1))
            return loss, grads

        return loss_fn

    def _check(self, mlp, x, y, loss_fn=None, **kwargs):
        loss_fn = loss_fn or self._bce_loss_fn(x, y)
        return grad_check(mlp, x, loss_fn, lambda z: bce_loss(z, y)[0], step=1e-5, **kwargs)

    def test_linear_model_with_bce(self):
        rng = np.random.default_rng(2)
        mlp = Mlp.create(4, [1], rng, final_activation="identity")
        x = rng.normal(size=(12, 4)).astype(F32)
        y = (rng.random(12) > 0.5).astype(F32)
        report = self._check(mlp, x, y, tolerance=1e-4)
        assert report.passed, report

    def test_two_layer_relu_off_kink(self):
        rng = np.random.default_rng(3)
        mlp = Mlp.create(3, [5, 1], rng, final_activation="identity")
        # push pre-activations away from zero
        mlp.layers[0].bias += np.sign(rng.normal(size=5)).astype(F32) * 0.7
        x = rng.normal(size=(9, 3)).astype(F32)
        y = (rng.random(9) > 0.5).astype(F32)
        report = self._check(mlp, x, y, tolerance=1e-3)
        assert report.passed, report

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(4)
        mlp = Mlp.create(4, [1], rng, final_activation="identity")
        x = rng.normal(size=(8, 4)).astype(F32)
        y = (rng.random(8) > 0.5).astype(F32)
        honest = self._bce_loss_fn(x, y)

        def corrupted(m):
            loss, grads = honest(m)
            grads = {k: v * 1.5 for k, v in grads.items()}
            return loss, grads

        report = self._check(mlp, x, y, corrupted, tolerance=1e-3)
        assert not report.passed

    def test_reference_logits_match_the_float32_forward(self):
        # the oracle's own forward agrees with the model's to float32
        # rounding at the model's parameters
        rng = np.random.default_rng(6)
        mlp = Mlp.create(5, [7, 4, 1], rng, final_activation="identity")
        x = rng.normal(size=(10, 5)).astype(F32)
        params = {k: v.astype(F64) for k, v in mlp.params().items()}
        ref = reference_logits(mlp, params, x)
        out, _ = mlp.forward(x)
        assert ref.dtype == F64 and ref.shape == (10,)
        np.testing.assert_allclose(out[:, 0], ref, rtol=1e-5, atol=1e-6)

    def test_restores_float32_params(self):
        # the oracle perturbs its own float64 copy and never writes the model
        rng = np.random.default_rng(5)
        mlp = Mlp.create(2, [1], rng, final_activation="identity")
        arrays = mlp.params()
        before = {k: v.copy() for k, v in arrays.items()}
        x = rng.normal(size=(4, 2)).astype(F32)
        y = np.array([0, 1, 0, 1], dtype=F32)
        self._check(mlp, x, y)
        after = mlp.params()
        for name in before:
            assert after[name] is arrays[name] and after[name].dtype == F32
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
