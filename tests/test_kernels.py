import numpy as np
import pytest

from oracle import sigmoid_masked
from qckt import kernels


def _random_case(rng, d=5, batch=7):
    z = rng.normal(size=(4 * d, batch)) * 2.0
    c_prev = rng.normal(size=(d, batch))
    dh = rng.normal(size=(d, batch))
    dc = rng.normal(size=(d, batch))
    return z, c_prev, dh, dc


class TestNumpyKernelMath:
    def test_forward_matches_straight_line_formulas(self):
        rng = np.random.default_rng(42)
        z, c_prev, _, _ = _random_case(rng)
        d = c_prev.shape[0]
        gates, tc, c, h = kernels.gates_forward(z, c_prev)

        sig = 1.0 / (1.0 + np.exp(-z))
        i, f, o, cand = sig[:d], sig[d : 2 * d], sig[2 * d : 3 * d], sig[3 * d :]
        c_ref = f * c_prev + i * cand
        np.testing.assert_allclose(gates, sig, rtol=1e-14)
        np.testing.assert_allclose(c, c_ref, rtol=1e-14)
        np.testing.assert_allclose(tc, np.tanh(c_ref), rtol=1e-14)
        np.testing.assert_allclose(h, o * np.tanh(c_ref), rtol=1e-14)

    def test_all_gates_are_logistic_including_candidate(self):
        # candidate block must be in (0, 1), not (-1, 1)
        z = np.full((8, 3), -4.0)
        c_prev = np.zeros((2, 3))
        gates, _, c, _ = kernels.gates_forward(z, c_prev)
        assert np.all(gates > 0.0) and np.all(gates < 0.05)
        assert np.all(c > 0.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        z, c_prev, dh, dc_in = _random_case(rng, d=3, batch=2)

        def objective(zv, cv):
            _, tc, c, h = kernels.gates_forward(zv, cv)
            return float((dh * h).sum() + (dc_in * c).sum())

        gates, tc, c, h = kernels.gates_forward(z, c_prev)
        dz, dc_prev = kernels.gates_backward(dh, dc_in, gates, tc, c_prev)

        eps = 1e-6
        for arr, grad in ((z, dz), (c_prev, dc_prev)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for idx in range(0, flat.size, 5):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = objective(z, c_prev)
                flat[idx] = orig - eps
                down = objective(z, c_prev)
                flat[idx] = orig
                fd = (up - down) / (2.0 * eps)
                np.testing.assert_allclose(gflat[idx], fd, rtol=1e-5, atol=1e-8)

    def test_zero_gates_half_open_cell(self):
        # all-zero preactivations: every gate is 1/2, so c = (c_prev + 1/2)/2
        c_prev = np.array([[0.0, 1.0]])
        _, _, c, h = kernels.gates_forward(np.zeros((4, 2)), c_prev)
        np.testing.assert_allclose(c, [[0.25, 0.75]], rtol=1e-14)
        np.testing.assert_allclose(h, 0.5 * np.tanh(c), rtol=1e-14)

    def test_sigmoid_equals_the_masked_form_bit_for_bit(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        x = np.concatenate([special, np.random.default_rng(3).normal(scale=20.0, size=20_000)])
        assert np.array_equal(kernels._sigmoid(x), sigmoid_masked(x), equal_nan=True)

    def test_sigmoid_equals_the_masked_form_bit_for_bit_at_float32(self):
        special = [0.0, -0.0, 1e-40, -1e-40, 88.0, -88.0, 104.0, -104.0, 800.0, -800.0,
                   np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(4)
        x = np.concatenate([special, rng.normal(scale=20.0, size=20_000)]).astype(np.float32)
        got = kernels._sigmoid(x)
        assert got.dtype == np.float32
        assert np.array_equal(got, sigmoid_masked(x), equal_nan=True)


def _straight_line_backward(dh, dc_in, gates, tc, c_prev):
    # the plain formulas, in the order the kernel must keep
    d = c_prev.shape[0]
    i, f, o, cand = gates[:d], gates[d : 2 * d], gates[2 * d : 3 * d], gates[3 * d :]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dz = np.concatenate([
        dc * cand * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dh * tc * o * (1.0 - o),
        dc * i * cand * (1.0 - cand),
    ])
    return dz, dc * f


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestKernelContract:
    def _case(self, dtype, d=6, batch=9):
        # c_prev is a column slice of a wider state, as in Tape.lstm_gates
        rng = np.random.default_rng(11)
        z, c_wide, dh, dc = (a.astype(dtype) for a in _random_case(rng, d=d, batch=batch + 4))
        return z[:, :batch].copy(), c_wide[:, :batch], dh[:, :batch].copy(), dc[:, :batch].copy()

    def test_forward_and_backward_leave_their_inputs_unmodified(self, dtype):
        z, c_prev, dh, dc = self._case(dtype)
        assert not c_prev.flags.c_contiguous
        before = [a.copy() for a in (z, c_prev, dh, dc)]
        gates, tc, c, h = kernels.gates_forward(z, c_prev)
        kept = [a.copy() for a in (gates, tc, c, h)]
        dz, dc_prev = kernels.gates_backward(dh, dc, gates, tc, c_prev)
        for old, new in zip(before + kept, (z, c_prev, dh, dc, gates, tc, c, h)):
            assert np.array_equal(old, new)
        for out in (gates, tc, c, h, dz, dc_prev):
            assert out.dtype == dtype and out.flags.c_contiguous

    def test_forward_equals_the_straight_line_formulas_exactly(self, dtype):
        z, c_prev, _, _ = self._case(dtype)
        d = c_prev.shape[0]
        gates, tc, c, h = kernels.gates_forward(z, c_prev)
        sig = sigmoid_masked(z)
        i, f, o, cand = sig[:d], sig[d : 2 * d], sig[2 * d : 3 * d], sig[3 * d :]
        c_ref = f * c_prev + i * cand
        assert np.array_equal(gates, sig)
        assert np.array_equal(c, c_ref)
        assert np.array_equal(tc, np.tanh(c_ref))
        assert np.array_equal(h, o * np.tanh(c_ref))

    def test_backward_equals_the_straight_line_formulas_exactly(self, dtype):
        z, c_prev, dh, dc = self._case(dtype)
        gates, tc, _, _ = kernels.gates_forward(z, c_prev)
        got = kernels.gates_backward(dh, dc, gates, tc, c_prev)
        want = _straight_line_backward(dh, dc, gates, tc, c_prev)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_stack_of_tracks_equals_one_call_per_track(dtype):
    # a (k x 4d x w) stack, c_prev a column slice of a wider state as in
    # Tape.lstm_gates, gives each track the 2-D call's results bit for bit
    rng = np.random.default_rng(13)
    k, d, w = 3, 4, 6
    cases = [[a.astype(dtype) for a in _random_case(rng, d=d, batch=w + 2)] for _ in range(k)]
    z, c_wide, dh, dc = (np.stack([case[i] for case in cases]) for i in range(4))
    z, c_prev, dh, dc = z[..., :w].copy(), c_wide[..., :w], dh[..., :w].copy(), dc[..., :w].copy()
    fwd = kernels.gates_forward(z, c_prev)
    bwd = kernels.gates_backward(dh, dc, fwd[0], fwd[1], c_prev)
    for t in range(k):
        fwd_t = kernels.gates_forward(z[t], c_prev[t])
        bwd_t = kernels.gates_backward(dh[t], dc[t], fwd_t[0], fwd_t[1], c_prev[t])
        for got, want in zip(fwd + bwd, fwd_t + bwd_t):
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got[t], want)
