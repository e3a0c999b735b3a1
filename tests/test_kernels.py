import numpy as np

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
