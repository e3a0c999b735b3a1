import os
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import _support
import qckt.autodiff as ad
from _support import Tape, grad_check
from qckt.autodiff import sigmoid
from qckt.errors import ShapeError


class TestScalarHelpers:
    def test_sigmoid_trivial_values(self):
        assert sigmoid(0.0) == 0.5
        np.testing.assert_allclose(sigmoid(np.log(3.0)), 0.75, rtol=1e-14)
        # extreme inputs stay finite and saturate
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0

    def test_sigmoid_matches_naive_formula(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 7)) * 3.0
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)


class TestForwardValues:
    def test_matmul_adds_its_bias_after_the_gemm(self):
        # the product first, then the bias added in place: the same
        # summation order as a GEMM followed by a separate bias add
        rng = np.random.default_rng(5)
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 6)), rng.normal(size=3)
        g = rng.normal(size=(3, 6))
        tape = Tape()
        wn, xn, bn = tape.leaf(w), tape.leaf(x), tape.leaf(b)
        out = tape.matmul(wn, xn, bn)
        np.testing.assert_array_equal(out.value, w @ x + b[:, None])
        # out reaches the loss times g exactly, so its gradient is g bit for bit
        tape.backward(_matrix_sum(tape, tape.mul(out, tape.leaf(g))))
        np.testing.assert_array_equal(wn.grad, g @ x.T)
        np.testing.assert_array_equal(xn.grad, w.T @ g)
        np.testing.assert_array_equal(bn.grad, g.sum(axis=1))

        tape = Tape()
        w, x = tape.leaf([[1.0, 2.0], [3.0, 4.0]]), tape.leaf([[5.0], [6.0]])
        out = tape.matmul(w, x, tape.leaf([0.5, -1.0]))
        np.testing.assert_array_equal(out.value, [[17.5], [38.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_with_relu_is_matmul_then_relu_bit_for_bit(self, dtype):
        # the relu applied in place: the value and the three gradients are
        # those of a matmul node followed by a relu node; an entry at
        # exactly 0 (column 0, row 1) is inactive, as in relu
        rng = np.random.default_rng(6)
        w, x, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 7)), rng.normal(size=4)
        x[:, 0], b[1] = 0.0, 0.0
        g = rng.normal(size=(4, 7))
        grads = []
        for fused in (True, False):
            tape = Tape(dtype)
            nodes = [tape.leaf(v) for v in (w, x, b)]
            out = tape.matmul(*nodes, relu=True) if fused else tape.relu(tape.matmul(*nodes))
            assert out.value[1, 0] == 0.0 and (out.value >= 0).all()
            tape.backward(_matrix_sum(tape, tape.mul(out, tape.leaf(g))))
            grads.append([out.value] + [n.grad for n in nodes])
        for fused, unfused in zip(*grads):
            assert fused.dtype == unfused.dtype == dtype
            np.testing.assert_array_equal(fused, unfused)

    def test_matmul_shape_error_names_both_shapes(self):
        tape = Tape()
        w = tape.leaf(np.zeros((2, 3)))
        x = tape.leaf(np.zeros(4))
        b = tape.leaf(np.zeros(2))
        with pytest.raises(ShapeError) as exc:
            tape.matmul(w, x, b)
        assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)
        # x must be a matrix and b must have one entry per row of W
        bad = [(np.zeros(3), np.zeros(2)), (np.zeros((3, 1)), np.zeros(3)),
               (np.zeros((3, 1)), np.zeros((2, 1)))]
        for xv, bv in bad:
            with pytest.raises(ShapeError):
                tape.matmul(w, tape.leaf(xv), tape.leaf(bv))

    def test_split_by_response_routes_columns_by_response(self):
        # [x * r; x * (1 - r)]: a correct response's column fills the top
        # half and a wrong one's the bottom half, and each gets its
        # gradient back from the half it filled
        rng = np.random.default_rng(9)
        x, g = rng.normal(size=(3, 5)), rng.normal(size=(6, 5))
        r = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        tape = Tape()
        xn = tape.leaf(x)
        out = tape.split_by_response(xn, r)
        np.testing.assert_array_equal(out.value, np.vstack([x * r, x * (1.0 - r)]))
        zeros = np.zeros_like(x)
        np.testing.assert_array_equal(
            out.value, np.where(r == 1.0, np.vstack([x, zeros]), np.vstack([zeros, x]))
        )
        tape.backward(_matrix_sum(tape, tape.mul(out, tape.leaf(g))))
        np.testing.assert_array_equal(xn.grad, np.where(r == 1.0, g[:3], g[3:]))
        for bad in (np.ones(4), np.ones((1, 5))):
            with pytest.raises(ShapeError):
                tape.split_by_response(xn, bad)
        with pytest.raises(ShapeError):
            tape.split_by_response(tape.leaf(np.ones(5)), r)

    def test_logistic_loss_is_log_2_per_entry_at_zero(self):
        # -ln(1/2) for a zero logit, either target, times each weight
        targets = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        tape = Tape()
        a, b = tape.leaf(np.zeros(5)), tape.leaf(np.zeros(5))
        loss = tape.logistic_loss([a, b], targets, [0.5, 2.0])
        np.testing.assert_allclose(loss.value, 2.5 * 5 * np.log(2.0), rtol=1e-15)
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, 0.5 * (0.5 - targets))
        np.testing.assert_array_equal(b.grad, 2.0 * (0.5 - targets))

    def test_logistic_loss_is_the_bce_of_the_sigmoid(self):
        rng = np.random.default_rng(3)
        z, t = rng.normal(size=50) * 4.0, (rng.random(50) < 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-z))
        tape = Tape()
        loss = tape.logistic_loss([tape.leaf(z)], t, [0.7])
        want = -0.7 * np.sum(t * np.log(p) + (1.0 - t) * np.log1p(-p))
        np.testing.assert_allclose(loss.value, want, rtol=1e-13)

    def test_logistic_loss_corrects_a_confidently_wrong_logit(self):
        # nothing is clamped: at |z| = 40 the wrong target costs 40 and the
        # gradient is still w (sigmoid(z) - t) = +-w, not 0
        w = 0.25
        tape = Tape()
        z = tape.leaf([40.0, -40.0])
        loss = tape.logistic_loss([z], [0.0, 1.0], [w])
        assert loss.value == 2 * 40.0 * w
        tape.backward(loss)
        np.testing.assert_array_equal(z.grad, [w, -w])

    def test_logistic_loss_shape_errors(self):
        tape = Tape()
        v, short = tape.leaf(np.zeros(3)), tape.leaf(np.zeros(2))
        for scores, targets, weights in (
            ([v], np.zeros((3, 1)), [1.0]),  # targets not a vector
            ([v, short], np.zeros(3), [1.0, 1.0]),  # a score of another length
            ([v, v], np.zeros(3), [1.0]),  # one weight for two scores
            ([], np.zeros(3), []),  # no score
        ):
            with pytest.raises(ShapeError):
                tape.logistic_loss(scores, targets, weights)

    def test_sum_pool_empty_vector_is_zero(self):
        tape = Tape()
        out = tape.sum_pool(tape.leaf(np.zeros(0)))
        assert out.value == 0.0

    def test_relu_gradient_is_zero_at_zero(self):
        tape = Tape()
        x = tape.leaf([-1.0, 0.0, 2.0])
        loss = tape.sum_pool(tape.relu(x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_backward_requires_scalar_loss(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ShapeError):
            tape.backward(tape.relu(x))

    def test_a_tape_is_swept_once(self):
        tape = Tape()
        x = tape.leaf([1.0, -2.0])
        loss = tape.sum_pool(tape.relu(x))
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])


class TestPrecision:
    """A tape computes in its one dtype; only leaves cast."""

    def _graph(self, tape, rng):
        # one op of each kind the model records, on float64 inputs
        w, x = tape.leaf(rng.normal(size=(8, 3))), tape.leaf(rng.normal(size=(3, 5)))
        h = tape.lstm_gates(tape.matmul(w, x, tape.leaf(rng.normal(size=8))),
                            tape.leaf(rng.normal(size=(8, 2))), (2, 2, 1))
        h = tape.matmul(tape.leaf(rng.normal(size=(2, 2))), h, tape.leaf(rng.normal(size=2)), relu=True)
        h = tape.split_by_response(h, [1.0, 0.0, 1.0, 1.0, 0.0])
        k = tape.embed_mean_flat(tape.leaf(rng.normal(size=(3, 4))), np.array([0, 2, 1]),
                                 np.array([0, 0, 1]), np.array([0.5, 0.5, 1.0]), 5)
        u = tape.vstack([h, k, tape.embed(tape.leaf(rng.normal(size=(4, 2))), [0, 3, 1, 1, 2])])
        a = tape.relu_pool(tape.leaf(rng.normal(size=(6, 10))), u,
                           tape.leaf(rng.normal(size=6)), tape.leaf(rng.normal(size=6)))
        z = tape.add(tape.dot_columns(tape.leaf(rng.normal(size=10)), u), tape.leaf(0.3))
        f = tape.dot_columns(tape.leaf(rng.normal(size=2)), tape.vstack([a, z]))
        logit = tape.add(f, z)
        tape.sigmoid(logit)
        return tape.logistic_loss([logit, a], [1.0, 0.0, 1.0, 0.0, 1.0], [0.2, 0.1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_value_and_gradient_has_the_tape_dtype(self, dtype):
        tape = ad.Tape(dtype)
        loss = self._graph(tape, np.random.default_rng(3))
        assert {node.value.dtype for node in tape.nodes} == {np.dtype(dtype)}
        leaves = [node for node in tape.nodes if node.op == "leaf"]
        tape.backward(loss)
        assert {ad.Tape.grad(node).dtype for node in leaves} == {np.dtype(dtype)}

    def test_float32_tape_agrees_with_float64(self):
        results = []
        for dtype in (np.float32, np.float64):
            tape = ad.Tape(dtype)
            loss = self._graph(tape, np.random.default_rng(3))
            leaves = [node for node in tape.nodes if node.op == "leaf"]
            tape.backward(loss)
            results.append((float(loss.value), [ad.Tape.grad(n) for n in leaves]))
        (l32, g32), (l64, g64) = results
        assert abs(l32 - l64) <= 1e-5 * abs(l64)
        for a, b in zip(g32, g64):
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()

    def test_an_op_that_promotes_raises_type_error(self):
        class Promoting(Tape):
            def up(self, x):
                return self._record("up", x.value.astype(np.float64), (x,), lambda g: (g,))

            def up_in_backward(self, x):
                return self._record("up_in_backward", x.value, (x,),
                                    lambda g: (g.astype(np.float64),))

        tape = Promoting(np.float32)
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(TypeError, match="float64 on a float32 tape"):
            tape.up(x)
        with pytest.raises(TypeError, match="float64 on a float32 tape"):
            tape.backward(tape.sum_pool(tape.up_in_backward(x)))
        # a constant that an op takes, like the response vector here, is cast
        y = tape.leaf(np.ones((2, 3)))
        assert tape.split_by_response(y, np.array([1.0, 0.0, 1.0])).value.dtype == np.float32

    def test_a_forward_only_tape_keeps_no_backward(self):
        full, fwd = ad.Tape(), ad.Tape(grad=False)
        loss_full = self._graph(full, np.random.default_rng(3))
        loss_fwd = self._graph(fwd, np.random.default_rng(3))
        assert [n.op for n in fwd.nodes] == [n.op for n in full.nodes]
        for a, b in zip(fwd.nodes, full.nodes):
            np.testing.assert_array_equal(a.value, b.value)
        assert all(node._backward is None for node in fwd.nodes)
        assert sum(node._backward is not None for node in full.nodes) > 10
        with pytest.raises(RuntimeError, match="forward-only"):
            fwd.backward(loss_fwd)
        full.backward(loss_full)

    def test_a_forward_only_recurrence_keeps_no_step_state(self):
        # the per-step gates, tanh c, c and h that the backward reads come to
        # 7 times the output's bytes; a forward-only lstm_gates holds its
        # output's pieces and their concatenation
        rng = np.random.default_rng(5)
        peaks = {}
        for grad in (True, False):
            tape = ad.Tape(grad=grad)
            proj, u = tape.leaf(rng.normal(size=(128, 1280))), tape.leaf(rng.normal(size=(128, 32)) / 8)
            tracemalloc.start()
            try:
                h = tape.lstm_gates(proj, u, (64,) * 20)
                peaks[grad] = tracemalloc.get_traced_memory()[1] / h.value.nbytes
            finally:
                tracemalloc.stop()
        assert peaks[False] <= 3.0 < 7.0 <= peaks[True], peaks


class TestStraightLineOracle:
    """Hand-written gradient formulas for a small dense composite."""

    def test_sigmoid_affine_chain(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=(3, 4))
        b = rng.normal(size=2)

        tape = Tape()
        wn, xn, bn = tape.leaf(w), tape.leaf(x), tape.leaf(b)
        loss = _matrix_sum(tape, tape.sigmoid(tape.matmul(wn, xn, bn)))
        tape.backward(loss)

        s = 1.0 / (1.0 + np.exp(-(w @ x + b[:, None])))
        ds = s * (1.0 - s)
        np.testing.assert_allclose(bn.grad, ds.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(wn.grad, ds @ x.T, rtol=1e-12)
        np.testing.assert_allclose(xn.grad, w.T @ ds, rtol=1e-12)

    def test_concat_routes_gradient_segments(self):
        # a vector part is one row of the stack, and its gradient comes back
        # as a vector
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([5.0, 6.0])
        joined = tape.vstack([a, b])
        np.testing.assert_array_equal(joined.value, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        weights = tape.leaf([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        loss = _matrix_sum(tape, tape.mul(joined, weights))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [[10.0, 20.0], [30.0, 40.0]])
        np.testing.assert_array_equal(b.grad, [50.0, 60.0])
        # vectors of unequal length are not rows of one matrix
        with pytest.raises(ValueError):
            tape.vstack([tape.leaf([1.0, 2.0]), tape.leaf([3.0])])

    def test_add_inputs_never_share_a_gradient_buffer(self):
        # the add's backward gives a and b their first gradients; the mul,
        # recorded earlier, then adds into a's, which must leave b's alone
        tape = Tape()
        a, b, c = tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]), tape.leaf([5.0, -1.0])
        ac = tape.mul(a, c)
        tape.backward(tape.sum_pool(tape.add(tape.add(a, b), ac)))
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, [6.0, 0.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_add_ops_pass_the_gradient_on_without_a_copy(self):
        # add hands the output's gradient to its parts that are not 0-d as
        # it is: one buffer, no copy, so both matrix leaves end up with the
        # same buffer; the 0-d part gets its sum.  The sweep keeps gradients
        # on the leaves only
        tape = Tape()
        x, y = tape.leaf(np.ones((2, 3))), tape.leaf(np.full((2, 3), 0.5))
        s = tape.leaf(0.3)
        zs = tape.add(x, y, s)
        tape.backward(_matrix_sum(tape, tape.tanh(zs)))
        assert np.shares_memory(x.grad, y.grad)
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh(zs.value) ** 2, rtol=1e-15)
        assert s.grad == x.grad.sum()
        assert all(node.grad is None for node in tape.nodes if node.op != "leaf")

    def test_add_sums_left_to_right_and_checks_shapes(self):
        tape = Tape()
        a, b, c = (tape.leaf(v) for v in ([1e16, 1.0], [-1e16, 1.0], [1.0, 1.0]))
        s = tape.leaf(2.0)
        np.testing.assert_array_equal(tape.add(a, b, c).value, [1.0, 3.0])  # not a + (b + c)
        np.testing.assert_array_equal(tape.add(s, a).value, [1e16 + 2.0, 3.0])
        assert tape.add(a) is a  # one part records nothing
        with pytest.raises(ShapeError, match="add shapes differ"):
            tape.add(a, s, tape.leaf([1.0, 2.0, 3.0]))

    def test_unreachable_parameter_gets_zero_gradient(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf([5.0])
        tape.backward(tape.sum_pool(x))
        np.testing.assert_array_equal(Tape.grad(unused), [0.0])
        assert unused.grad is None

    def test_fanout_accumulates(self):
        # y = x*x + x  =>  dy/dx = 2x + 1
        tape = Tape()
        x = tape.leaf([3.0, -1.5])
        loss = tape.sum_pool(tape.add(tape.mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0, -2.0], rtol=1e-14)


def _shift_from_zero(x, margin=0.15):
    return x + np.sign(x) * margin + (x == 0) * margin


def _matrix_sum(tape, x):
    """Sum of all entries of a matrix node."""
    return tape.sum_pool(tape.dot_columns(tape.leaf(np.ones(x.value.shape[0])), x))


class TestEmbed:
    """The row gather and its scatter-add backward."""

    def _table_grad(self, dtype, table, idx, G):
        # loss = sum(embed(table, idx) * G), so the table's gradient is G's
        # columns summed into the rows idx names
        tape = Tape(dtype)
        t = tape.leaf(table)
        tape.backward(_matrix_sum(tape, tape.mul(tape.embed(t, idx), tape.leaf(G))))
        return t.grad

    def _case(self, n=7, d=3, P=2000):
        rng = np.random.default_rng(31)
        idx = rng.integers(0, n - 1, size=P)  # row n - 1 is never used; every other repeats
        return rng.normal(size=(n, d)), idx, rng.normal(size=(d, P))

    def test_backward_is_add_at_bit_for_bit_at_float64(self):
        table, idx, G = self._case()
        want = np.zeros_like(table)
        np.add.at(want, idx, G.T)
        got = self._table_grad(np.float64, table, idx, G)
        assert got.shape == table.shape and got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_float32_backward_is_the_float64_sum_rounded(self):
        table, idx, G = self._case()
        G32 = G.astype(np.float32)
        want = np.zeros_like(table)
        np.add.at(want, idx, G32.astype(np.float64).T)
        got = self._table_grad(np.float32, table, idx, G32)
        assert got.shape == table.shape and got.dtype == np.float32
        assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))

    def test_negative_indices_raise_index_error(self):
        tape = Tape()
        table = tape.leaf(np.ones((3, 2)))
        with pytest.raises(IndexError):
            tape.embed(table, [0, -1])
        with pytest.raises(IndexError):
            tape.embed_mean_flat(table, np.array([0, -1]), np.array([0, 1]), np.ones(2), 2)


class TestFiniteDifferenceBattery:
    """Every op checked against central finite differences."""

    def test_dense_composite_example(self):
        rng = np.random.default_rng(42)
        params = {
            "W": rng.normal(size=(2, 3)),
            "x": rng.normal(size=(3, 2)),
            "b": rng.normal(size=2),
        }

        def build(tape, n):
            return _matrix_sum(tape, tape.sigmoid(tape.matmul(n["W"], n["x"], n["b"])))

        report = grad_check(build, params)
        assert report.passed, report
        assert report.worst() < 1e-6

    def test_elementwise_and_pool_ops(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            params = {
                "a": rng.normal(size=6),
                "b": _shift_from_zero(rng.normal(size=6)),
            }

            def build(tape, n):
                mixed = tape.mul(tape.tanh(n["a"]), tape.sigmoid(n["b"]))
                return tape.sum_pool(tape.add(mixed, tape.relu(n["b"])))

            report = grad_check(build, params)
            assert report.passed, (trial, report)

    def test_batched_matrix_ops(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            params = {
                "W": rng.normal(size=(3, 4)),
                "X": rng.normal(size=(4, 5)),
                "bias": rng.normal(size=3),
                "roww": rng.normal(size=2),
                "dotw": rng.normal(size=6),
            }
            # the split is linear in x for any constant r, 0/1 or not
            coeffs = rng.normal(size=5)

            def build(tape, n):
                y = tape.matmul(n["W"], n["X"], n["bias"])
                y = tape.split_by_response(tape.tanh(y), coeffs)
                per_col = tape.dot_columns(n["dotw"], y)
                stacked = tape.vstack([per_col, tape.tanh(per_col)])
                return tape.sum_pool(tape.dot_columns(n["roww"], stacked))

            report = grad_check(build, params)
            assert report.passed, (trial, report)

    def test_column_slice_and_stack_ops(self):
        rng = np.random.default_rng(13)
        params = {"X": rng.normal(size=(3, 6)), "Y": rng.normal(size=(2, 3))}

        def build(tape, n):
            # overlapping slices accumulate; column 5 of X is in no slice
            parts = [tape.col_slice(n["X"], 0, 3), tape.col_slice(n["X"], 2, 5), n["Y"]]
            return _matrix_sum(tape, tape.tanh(tape.vstack(parts)))

        report = grad_check(build, params)
        assert report.passed, report
        tape = Tape()
        x = tape.leaf(np.arange(12.0).reshape(2, 6))
        np.testing.assert_array_equal(tape.col_slice(x, 2, 4).value, [[2, 3], [8, 9]])
        joined = tape.vstack([tape.col_slice(x, 4, 6), tape.col_slice(x, 0, 2)])
        np.testing.assert_array_equal(joined.value, [[4, 5], [10, 11], [0, 1], [6, 7]])
        for start, stop in ((3, 3), (-1, 2), (4, 7)):
            with pytest.raises(ShapeError):
                tape.col_slice(x, start, stop)

    def test_relu_pool_op(self, monkeypatch):
        # 5 columns of float64 per row, 3 rows per block: 7 rows are worked
        # through in blocks of 3, 3 and 1
        monkeypatch.setattr(ad, "RELU_POOL_BLOCK_BYTES", 3 * 5 * 8)
        rng = np.random.default_rng(17)
        params = {
            "W": rng.uniform(0.5, 1.5, size=(7, 3)),
            "x": _shift_from_zero(rng.normal(size=(3, 5)), 0.5),
            "b": rng.normal(size=7) * 0.1,
            "w": rng.normal(size=7),
        }
        params["x"][:, 2] = -2.0  # with positive W, column 2 is inactive
        pre = params["W"] @ params["x"] + params["b"][:, None]
        assert np.all(pre[:, 2] < -1.0) and np.any(pre > 0.0)
        assert np.abs(pre).min() > 1e-3  # no entry sits on the kink

        def build(tape, n):
            return tape.sum_pool(tape.tanh(tape.relu_pool(n["W"], n["x"], n["b"], n["w"])))

        report = grad_check(build, params)
        assert report.passed, report

        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in params.items()}
        out = tape.relu_pool(nodes["W"], nodes["x"], nodes["b"], nodes["w"])
        np.testing.assert_allclose(out.value, params["w"] @ np.maximum(pre, 0.0), rtol=1e-14)
        # the backward keeps the activation pattern as a bool mask, and no
        # (r x N) float array
        held = [cell.cell_contents for cell in out._backward.__closure__]
        kept = [a.dtype for a in held if isinstance(a, np.ndarray) and a.shape == pre.shape]
        assert kept == [np.dtype(bool)]
        tape.backward(tape.sum_pool(out))
        np.testing.assert_array_equal(nodes["x"].grad[:, 2], 0.0)
        with pytest.raises(ShapeError):
            tape.relu_pool(nodes["W"], nodes["x"], nodes["b"], tape.leaf(np.ones(3)))

        # a preactivation of exactly 0 is inactive, as in relu: row 4, in the
        # middle block, gets no gradient through W or b
        kinked = {k: v.copy() for k, v in params.items()}
        kinked["W"][4], kinked["b"][4] = 0.0, 0.0
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in kinked.items()}
        tape.backward(tape.sum_pool(tape.relu_pool(nodes["W"], nodes["x"], nodes["b"], nodes["w"])))
        np.testing.assert_array_equal(nodes["W"].grad[4], 0.0)
        assert nodes["b"].grad[4] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad", [True, False])
    def test_relu_pool_on_lanes_is_the_one_lane_loop_bit_for_bit(self, monkeypatch, dtype, grad):
        # 40 columns of float64 per row, 3 rows per block: 19 rows are 7
        # blocks, run inline on one lane and in rounds of 3, 3 and 1 on
        # three lanes; the output and all four gradients are the same arrays
        monkeypatch.setattr(ad, "RELU_POOL_BLOCK_BYTES", 3 * 40 * 8)
        rng = np.random.default_rng(31)
        values = [rng.normal(size=s).astype(dtype) for s in ((19, 6), (6, 40), (19,), (19,))]
        g = rng.normal(size=40).astype(dtype)
        submitted, results = [], []
        with ThreadPoolExecutor(2) as pool:
            submit = pool.submit
            pool.submit = lambda *a: submitted.append(a[1]) or submit(*a)
            for lanes in ((os.getpid(), 1, None), (os.getpid(), 3, pool)):
                monkeypatch.setattr(ad, "_lanes", lanes)
                tape = ad.Tape(dtype, grad=grad)
                out = tape.relu_pool(*map(tape.leaf, values))
                results.append([out.value] + (list(out._backward(g)) if grad else []))
        # blocks 1, 2, 4 and 5 ran on the pool's threads, in the forward and
        # in the backward
        assert submitted == [slice(3, 6), slice(6, 9), slice(12, 15), slice(15, 18)] * (1 + grad)
        one, three = results
        assert len(one) == len(three) == (5 if grad else 1)
        pre = values[0] @ values[1] + values[2][:, None]
        assert 0 < (pre > 0).mean() < 1
        for a, b in zip(one, three):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)

    def test_scalar_param_ops(self):
        rng = np.random.default_rng(19)
        params = {
            "x": rng.normal(size=4),
            "t": rng.normal(),
        }

        def build(tape, n):
            y = tape.add(n["x"], n["t"], tape.tanh(n["x"]))
            return tape.sum_pool(tape.scale_const(tape.tanh(y), 0.7))

        report = grad_check(build, params)
        assert report.passed, report
        # with the 0-d part first; it gets the sum of the output's gradient
        G = rng.normal(size=4)
        tape = Tape()
        x, t = tape.leaf(params["x"]), tape.leaf(params["t"])
        tape.backward(tape.sum_pool(tape.mul(tape.add(t, x), tape.leaf(G))))
        np.testing.assert_array_equal(x.grad, G)
        assert t.grad.shape == () and t.grad == G.sum()

    def test_vstack_of_vectors(self):
        # (N,) parts stack as rows, as np.vstack stacks them, and each gets
        # back a gradient of its own shape, also when its value is released
        rng = np.random.default_rng(47)
        params = {"a": rng.normal(size=4), "b": rng.normal(size=4), "M": rng.normal(size=(2, 4))}
        tape = Tape()
        a, b, M = (tape.leaf(params[k]) for k in ("a", "b", "M"))
        np.testing.assert_array_equal(tape.vstack([a, b]).value, np.vstack([params["a"], params["b"]]))
        np.testing.assert_array_equal(tape.vstack([a, M, b]).value,
                                      np.vstack([params["a"], params["M"], params["b"]]))

        def build(tape, n):
            return _matrix_sum(tape, tape.tanh(tape.vstack([n["a"], n["M"], n["b"]])))

        report = grad_check(build, params)
        assert report.passed, report
        tape = Tape()
        w, X = tape.leaf(params["a"]), tape.leaf(params["M"].T)
        v = tape.dot_columns(w, X)
        stacked = tape.vstack([v, tape.tanh(v)])
        tape.release(v)
        tape.backward(_matrix_sum(tape, stacked))
        assert w.grad.shape == (4,) and X.grad.shape == (4, 2)
        np.testing.assert_allclose(w.grad, X.value @ (2.0 - np.tanh(w.value @ X.value) ** 2), rtol=1e-14)

    def test_vstack_and_embed_ops(self):
        rng = np.random.default_rng(23)
        params = {
            "M": rng.normal(size=(4, 3)),
            "X": rng.normal(size=(2, 3)),
        }
        idx = [2, 0, 2]  # duplicate row exercises accumulation
        # groups (0, 2), (1,) and (0, 1, 3) flattened for the mean scatter
        rows, cols = np.array([0, 2, 1, 0, 1, 3]), np.array([0, 0, 1, 2, 2, 2])
        wts = np.array([1 / 2, 1 / 2, 1.0, 1 / 3, 1 / 3, 1 / 3])

        def build(tape, n):
            e = tape.embed(n["M"], idx)
            em = tape.embed_mean_flat(n["M"], rows, cols, wts, 3)
            stacked = tape.vstack([e, em, n["X"]])
            return _matrix_sum(tape, tape.tanh(stacked))

        report = grad_check(build, params)
        assert report.passed, report

    def test_kc_mean_adds_a_repeated_kc(self):
        # a KC listed twice in one column's group counts twice in its mean
        rng = np.random.default_rng(29)
        params = {"M": rng.normal(size=(4, 3))}
        # groups (0, 2, 0), (3,) and (1, 1) flattened for the averaging matrix
        rows, cols = np.array([0, 2, 0, 3, 1, 1]), np.array([0, 0, 0, 1, 2, 2])
        wts = np.array([1 / 3, 1 / 3, 1 / 3, 1.0, 1 / 2, 1 / 2])
        M = params["M"]
        tape = Tape()
        got = tape.embed_mean_flat(tape.leaf(M), rows, cols, wts, 3).value
        want = np.stack([(2 * M[0] + M[2]) / 3, M[3], M[1]], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-15)

        def build(tape, n):
            return _matrix_sum(tape, tape.tanh(tape.embed_mean_flat(n["M"], rows, cols, wts, 3)))

        report = grad_check(build, params)
        assert report.passed, report
        with pytest.raises(IndexError):
            tape.embed_mean_flat(tape.leaf(M), np.array([4]), np.array([0]), np.ones(1), 1)

    def test_logistic_loss_op(self):
        # weights other than 1, and one node passed twice, as the no_ks_ps
        # graph passes alpha for the prediction and for its auxiliary loss
        rng = np.random.default_rng(37)
        params = {"a": rng.normal(size=4) * 2.0, "b": rng.normal(size=4)}
        targets = np.array([1.0, 0.0, 1.0, 1.0])

        def build(tape, n):
            return tape.logistic_loss([n["a"], tape.tanh(n["b"]), n["a"]], targets, [0.3, 1.7, 2.5])

        report = grad_check(build, params)
        assert report.passed, report

    def test_lstm_gates_two_step_chain(self):
        # two steps of 2 columns: the gradient of step 1's hidden state
        # flows back through U and through the cell state into step 0
        rng = np.random.default_rng(31)
        d, batch = 3, 2
        params = {
            "proj": rng.normal(size=(4 * d, 2 * batch)),
            "u": rng.normal(size=(4 * d, d)),
            "w": rng.normal(size=d),
        }

        def build(tape, n):
            h = tape.lstm_gates(n["proj"], n["u"], (batch, batch))
            return tape.sum_pool(tape.dot_columns(n["w"], h))

        report = grad_check(build, params)
        assert report.passed, report
        tape = Tape()
        proj, u = tape.leaf(params["proj"]), tape.leaf(params["u"])
        wrong_u = tape.leaf(np.ones((4 * d, 2)))
        for bad in (
            (proj, u, (3,)),
            (proj, u, (4, 0)),
            (proj, u, (1, 3)),
            (proj, u, ()),
            (u, proj, (1,)),
            (proj, wrong_u, (2, 2)),
        ):
            with pytest.raises(ShapeError):
                tape.lstm_gates(*bad)

    def test_lstm_gates_two_tracks(self):
        # two tracks stacked by rows, over steps of 3, 2 and 1 columns; both
        # tracks' hidden states are read out
        rng = np.random.default_rng(41)
        d, widths = 2, (3, 2, 1)
        params = {
            "proj": rng.normal(size=(8 * d, sum(widths))),
            "u": rng.normal(size=(8 * d, d)),
            "w": rng.normal(size=2 * d),
        }

        def build(tape, n):
            h = tape.lstm_gates(n["proj"], n["u"], widths)
            return tape.sum_pool(tape.tanh(tape.dot_columns(n["w"], h)))

        report = grad_check(build, params)
        assert report.passed, report

    def test_lstm_gates_with_shrinking_widths(self):
        # steps of 3, 3, 2 and 1 columns: sequences that end drop out of h
        # and c, and every step's hidden state is read out
        rng = np.random.default_rng(37)
        d, widths = 2, (3, 3, 2, 1)
        params = {
            "proj": rng.normal(size=(4 * d, sum(widths))),
            "u": rng.normal(size=(4 * d, d)),
            "w": rng.normal(size=d),
        }

        def build(tape, n):
            h = tape.lstm_gates(n["proj"], n["u"], widths)
            return tape.sum_pool(tape.tanh(tape.dot_columns(n["w"], h)))

        report = grad_check(build, params)
        assert report.passed, report


class TestStackedTracks:
    """lstm_gates over k tracks stacked by rows gives each track what a
    one-track node gives it, bit for bit; the ops that build and read such a
    stack."""

    def _run(self, dtype, projs, us, widths, G):
        # loss = sum(h * G), so the node's output gradient is exactly G
        tape = Tape(dtype)
        p, u = tape.leaf(np.vstack(projs)), tape.leaf(np.vstack(us))
        h = tape.lstm_gates(p, u, widths)
        tape.backward(_matrix_sum(tape, tape.mul(h, tape.leaf(G))))
        return h.value, p.grad, u.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_tracks_equal_two_one_track_nodes(self, dtype):
        rng = np.random.default_rng(17)
        d, widths = 3, (5, 5, 3, 2, 2, 1)
        N = sum(widths)
        projs = [rng.normal(size=(4 * d, N)) for _ in range(2)]
        us = [rng.normal(size=(4 * d, d)) for _ in range(2)]
        G = rng.normal(size=(2 * d, N))
        h, dp, du = self._run(dtype, projs, us, widths, G)
        assert h.shape == (2 * d, N) and h.dtype == dp.dtype == du.dtype == dtype
        for t in range(2):
            ht, dpt, dut = self._run(dtype, projs[t : t + 1], us[t : t + 1], widths, G[d * t : d * (t + 1)])
            assert np.array_equal(h[d * t : d * (t + 1)], ht)
            assert np.array_equal(dp[4 * d * t : 4 * d * (t + 1)], dpt)
            assert np.array_equal(du[4 * d * t : 4 * d * (t + 1)], dut)

    def test_row_counts_must_fit_whole_tracks(self):
        tape = Tape()
        d = 2
        u_two, u_odd = tape.leaf(np.zeros((8 * d, d))), tape.leaf(np.zeros((6 * d, d)))
        for proj, u in (
            (tape.leaf(np.zeros((6 * d, 3))), u_odd),  # 6d rows: not a multiple of 4d
            (tape.leaf(np.zeros((12 * d, 3))), u_two),  # more tracks in proj than in u
        ):
            with pytest.raises(ShapeError):
                tape.lstm_gates(proj, u, (1, 1, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_track_reads_the_first_track_of_a_two_track_u(self, dtype):
        # a one-track proj on a two-track U block runs what a rows view of
        # U's first 4d rows runs, bit for bit; the second track's rows of U
        # get a zero gradient
        rng = np.random.default_rng(43)
        d, widths = 3, (4, 4, 2, 1)
        N = sum(widths)
        proj, U, G = rng.normal(size=(4 * d, N)), rng.normal(size=(8 * d, d)), rng.normal(size=(d, N))
        results = []
        for view in (False, True):
            tape = Tape(dtype)
            p, u = tape.leaf(proj), tape.leaf(U)
            h = tape.lstm_gates(p, tape.rows(u, 0, 4 * d) if view else u, widths)
            tape.backward(_matrix_sum(tape, tape.mul(h, tape.leaf(G))))
            results.append((h.value, p.grad, u.grad))
        whole, viewed = results
        assert whole[0].shape == (d, N) and whole[2].shape == (8 * d, d)
        for a, b in zip(whole, viewed):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)
        assert whole[2][: 4 * d].all() and not whole[2][4 * d :].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_into_row_blocks_then_vstack_without_a_copy(self, dtype):
        rng = np.random.default_rng(19)
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(2, 4)), rng.normal(size=2)
        tape = Tape(dtype)
        xn = tape.leaf(x)
        fresh = [tape.matmul(tape.leaf(w), xn, tape.leaf(b)), tape.matmul(tape.leaf(w2), xn, tape.leaf(b2))]
        buf = np.empty((5, 5), dtype)
        parts = [tape.matmul(tape.leaf(w), xn, tape.leaf(b), out=buf[:3]),
                 tape.matmul(tape.leaf(w2), xn, tape.leaf(b2), out=buf[3:])]
        for got, want in zip(parts, fresh):
            assert np.array_equal(got.value, want.value)
        stacked = tape.vstack(parts, out=buf)
        assert stacked.value is buf
        for bad in (parts[::-1], parts[:1], [parts[0], fresh[1]]):
            with pytest.raises(ShapeError, match="row blocks"):
                tape.vstack(bad, out=buf)
        # one part that fills its buffer, as a one-track graph stacks it
        one = np.empty((3, 5), dtype)
        part = tape.matmul(tape.leaf(w), xn, tape.leaf(b), out=one)
        assert np.array_equal(part.value, fresh[0].value)
        assert tape.vstack([part], out=one).value is one

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_over_the_full_range_is_a_view_and_passes_g_on(self, dtype):
        # as a one-track graph reads its hidden states
        rng = np.random.default_rng(29)
        x, G = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        tape = Tape(dtype)
        xn = tape.leaf(x)
        y = tape.rows(xn, 0, 4)
        assert np.shares_memory(y.value, xn.value) and np.array_equal(y.value, xn.value)
        tape.backward(_matrix_sum(tape, tape.mul(y, tape.leaf(G))))
        assert np.array_equal(xn.grad, G.astype(dtype))

    def test_rows_and_a_released_stack_pass_gradients_on(self):
        # a stack built in place, released once read, and row views of it
        rng = np.random.default_rng(23)
        params = {"w": rng.normal(size=(3, 2)), "w2": rng.normal(size=(2, 2)), "x": rng.normal(size=(2, 4)),
                  "b": rng.normal(size=3), "b2": rng.normal(size=2)}

        def build(tape, n):
            buf = np.empty((5, 4), tape.dtype)
            parts = [tape.matmul(n["w"], n["x"], n["b"], out=buf[:3]),
                     tape.matmul(n["w2"], n["x"], n["b2"], out=buf[3:])]
            stacked = tape.vstack(parts, out=buf)
            y = tape.tanh(stacked)
            tape.release(stacked, *parts)
            assert all(p.value.shape == (0, 4) for p in (stacked, *parts))
            top, bottom = tape.rows(y, 0, 3), tape.rows(y, 3, 5)
            return tape.add(_matrix_sum(tape, tape.tanh(top)), _matrix_sum(tape, bottom))

        report = grad_check(build, params)
        assert report.passed, report

    @pytest.mark.parametrize("relu", [False, True])
    def test_released_values_are_freed_at_once(self, relu):
        # no backward holds a value that release frees: once the caller
        # drops its own reference, the buffer of released in-place matmuls
        # goes at once, and the tape can still be swept
        rng = np.random.default_rng(29)
        tape = Tape()
        w, x, b = (tape.leaf(rng.normal(size=s)) for s in ((3, 2), (2, 4), (3,)))
        buf = np.empty((6, 4))
        parts = [tape.matmul(w, x, b, out=buf[:3]), tape.matmul(w, x, b, out=buf[3:], relu=relu)]
        y = tape.tanh(tape.vstack(parts, out=buf))
        freed = weakref.ref(buf)
        del buf
        tape.release(*parts, tape.nodes[-2])
        assert (freed() is None) is not relu  # a relu's backward reads its activation
        tape.backward(_matrix_sum(tape, y))
        assert x.grad.shape == (2, 4)

    def test_rows_bounds_and_leaves_are_checked(self):
        tape = Tape()
        x = tape.leaf(np.zeros((4, 2)))
        for lo, hi in ((0, 0), (3, 2), (-1, 2), (2, 5)):
            with pytest.raises(ShapeError):
                tape.rows(x, lo, hi)
        with pytest.raises(ValueError, match="leaf"):
            tape.release(x)


class TestDeterminism:
    def _run(self):
        rng = np.random.default_rng(123)
        w, x, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 3)), rng.normal(size=4)
        tape = Tape()
        wn, xn = tape.leaf(w), tape.leaf(x)
        proj = tape.vstack([tape.tanh(tape.matmul(wn, xn, tape.leaf(b))), xn, xn, xn])
        h = tape.lstm_gates(proj, tape.vstack([wn] * 4), (1, 1, 1))
        loss = _matrix_sum(tape, h)
        tape.backward(loss)
        return float(loss.value), wn.grad.copy(), xn.grad.copy()

    def test_bit_identical_reruns(self):
        l1, gw1, gx1 = self._run()
        l2, gw2, gx2 = self._run()
        assert l1 == l2
        np.testing.assert_array_equal(gw1, gw2)
        np.testing.assert_array_equal(gx1, gx2)


class TestNegativeControl:
    def test_corrupted_backward_is_detected(self, monkeypatch):
        class BrokenTape(Tape):
            def tanh(self, x):
                y = np.tanh(x.value)

                def backward(g):
                    return (2.0 * g * (1.0 - y * y),)  # deliberately doubled

                return self._record("tanh", y, (x,), backward)

        monkeypatch.setattr(_support, "Tape", BrokenTape)
        report = grad_check(
            lambda tape, n: tape.sum_pool(tape.tanh(n["x"])), {"x": [0.3, -0.7]}
        )
        assert not report.passed
        assert report.worst() > 0.01
