import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import qckt.model as qm
from _support import (
    PACKAGE_ERRORS,
    budget_batch,
    grad_check,
    make_seq,
    random_params,
    run_python,
    seq_of,
    with_header,
)
from oracle import zero_params
from qckt import kernels
from qckt.autodiff import Tape, sigmoid
from qckt.data import SynthConfig
from qckt.errors import ConfigError, DataError, DomainError, ShapeError
from qckt.training import TrainConfig

class TestModelConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            qm.ModelConfig(n_questions=0, n_kcs=1, dim=2)
        with pytest.raises(ConfigError):
            qm.ModelConfig(n_questions=1, n_kcs=1, dim=2, lambda_aux=-0.5)
        with pytest.raises(ConfigError):
            qm.ModelConfig(n_questions=1, n_kcs=1, dim=2, variant="no_everything")

    @pytest.mark.parametrize(
        "sizes, lambda_aux",
        [
            ((3, 2, float("nan")), 1.0),
            ((3.5, 2, 2.5), 1.0),
            ((3, 2.0, 4), 1.0),
            ((True, 2, 4), 1.0),
            ((3, False, 4), 1.0),
            ((3, 2, "4"), 1.0),
            ((3, -2, 4), 1.0),
            ((3, 2, 4), float("inf")),
            ((3, 2, 4), float("nan")),
            ((3, 2, 4), "1.0"),
            ((3, 2, 4), True),
            ((3, 2, 4), False),
        ],
    )
    def test_rejects_non_integer_sizes_and_non_finite_lambda(self, sizes, lambda_aux):
        with pytest.raises(ConfigError):
            qm.ModelConfig(*sizes, lambda_aux=lambda_aux)

    def test_variant_switches(self):
        cfg = qm.ModelConfig(3, 2, 2, variant="no_ks")
        assert not cfg.uses_beta and cfg.uses_zeta and cfg.needs_mastery_lstm
        cfg = qm.ModelConfig(3, 2, 2, variant="no_ks_ps")
        assert not cfg.uses_beta and not cfg.uses_zeta and not cfg.needs_mastery_lstm
        cfg = qm.ModelConfig(3, 2, 2, variant="no_irt")
        assert cfg.uses_beta and cfg.uses_zeta


class TestTrainAndSynthConfig:
    # the run configs validate every field as ModelConfig does: counts and
    # seeds are ints (not bools), reals are finite and >= 0
    @pytest.mark.parametrize(
        "field",
        [
            {"lr": float("inf")},
            {"lr": float("nan")},
            {"lr": True},
            {"grad_clip": -1.0},
            {"grad_clip": float("inf")},
            {"grad_clip": float("nan")},
            {"grad_clip": None},
            {"batch_size": True},
            {"batch_size": 2.5},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 1.5},
            {"seed": -1},
            {"seed": 1.0},
            {"fold": -1},
            {"max_updates": -1},
            {"max_updates": 2.0},
        ],
    )
    def test_train_config_rejects(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**field)

    @pytest.mark.parametrize(
        "field",
        [
            {"gamma": float("nan")},
            {"gamma": float("inf")},
            {"gamma": True},
            {"seed": -1},
            {"seed": False},
            {"students": 2.5},
            {"questions": True},
            {"kcs_per_question": (1.0, 2)},
            {"seq_len": (2, 5.5)},
        ],
    )
    def test_synth_config_rejects(self, field):
        with pytest.raises(ConfigError):
            SynthConfig(**field)

    def test_accepts_the_documented_edges(self):
        # lr = 0 keeps the no-op update path; grad_clip 0 disables clipping;
        # max_updates = 0 is unlimited
        TrainConfig(lr=0.0, seed=0, max_updates=0)
        TrainConfig(lr=1, grad_clip=0.0)
        SynthConfig(gamma=0, seed=0, kcs_per_question=(1, 1), seq_len=(1, 1))


class TestParameters:
    def test_shape_table(self):
        cfg = qm.ModelConfig(n_questions=3, n_kcs=2, dim=2)
        shapes = qm.param_shapes(cfg)
        assert shapes["Q"] == (3, 2) and shapes["K"] == (2, 2)
        assert shapes["W_1"] == (2, 8) and shapes["W_5"] == (2, 4)
        assert shapes["U_4"] == (2, 2) and shapes["b_8"] == (2,)
        assert shapes["W_a2"] == (3, 2) and shapes["w_a"] == (3,)
        assert shapes["W_g2"] == (2, 2) and shapes["w_g"] == (2,)
        assert shapes["W_p1"] == (6, 6) and shapes["w_p"] == (6,) and shapes["b_p"] == ()
        assert "irt_w" not in shapes

    def test_prediction_layer_parameter_count(self):
        # only the learned-fusion variant adds tensors beyond the three modules
        full = qm.param_shapes(qm.ModelConfig(3, 2, 2))
        for variant in qm.VARIANTS:
            shapes = qm.param_shapes(qm.ModelConfig(3, 2, 2, variant=variant))
            extra = {k: s for k, s in shapes.items() if k not in full}
            assert sum(int(np.prod(s)) for s in extra.values()) == (4 if variant == "no_irt" else 0)

    def test_init_is_seed_deterministic(self):
        cfg = qm.ModelConfig(5, 3, 4)
        a = qm.Parameters.init(cfg, seed=9)
        b = qm.Parameters.init(cfg, seed=9)
        c = qm.Parameters.init(cfg, seed=10)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[name], c[name]) for name in a)

    def test_init_distributions(self):
        cfg = qm.ModelConfig(40, 20, 16)
        p = qm.Parameters.init(cfg, seed=0)
        lim = 1.0 / 4.0  # fan_in of U_1 is d=16
        assert np.all(np.abs(p["U_1"]) <= lim)
        assert np.all(np.abs(p["W_1"]) <= 1.0 / 8.0)  # fan_in 4d=64
        np.testing.assert_array_equal(p["b_2"], np.ones(16))
        np.testing.assert_array_equal(p["b_6"], np.ones(16))
        np.testing.assert_array_equal(p["b_1"], np.zeros(16))
        np.testing.assert_array_equal(p["b_a2"], np.zeros(40))
        assert np.abs(p["Q"]).max() < 0.2  # five sigmas of 0.02
        assert p["b_p"].shape == ()

    def test_no_irt_fusion_starts_as_plain_sum(self):
        cfg = qm.ModelConfig(3, 2, 2, variant="no_irt")
        p = qm.Parameters.init(cfg, seed=1)
        np.testing.assert_array_equal(p["irt_w"], [1.0, 1.0, 1.0])
        assert p["irt_b"] == 0.0

    @pytest.mark.parametrize("variant", qm.VARIANTS)
    def test_init_draws_one_tensor_per_name_in_param_shapes_order(self, variant):
        # the reference draws each tensor in turn from one generator, by the
        # rules of the docstring, and lays the tensors back to back
        cfg = qm.ModelConfig(7, 4, 3, variant=variant)
        rng = np.random.default_rng((3, 1, 0))
        parts = []
        for name, shape in qm.param_shapes(cfg).items():
            if name in ("Q", "K"):
                arr = rng.normal(0.0, 0.02, size=shape)
            elif name in ("b_2", "b_6", "irt_w"):
                arr = np.ones(shape)
            elif name.startswith("b") or name == "irt_b":
                arr = np.zeros(shape)
            else:
                lim = 1.0 / np.sqrt(shape[-1] if len(shape) == 2 else shape[0])
                arr = rng.uniform(-lim, lim, size=shape)
            parts.append(np.ravel(arr))
        p = qm.Parameters.init(cfg, seed=(3, 1, 0))
        assert np.array_equal(p.flat, np.concatenate(parts))


class TestEncoders:
    def test_avg_kc_embedding(self):
        K = np.array([[2.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        np.testing.assert_array_equal(oracle.avg_kc_embedding({1}, K), [0.0, 2.0])
        np.testing.assert_array_equal(oracle.avg_kc_embedding({0, 1}, K), [1.0, 1.0])
        np.testing.assert_array_equal(
            oracle.avg_kc_embedding([1, 0], K), oracle.avg_kc_embedding([0, 1], K)
        )
        with pytest.raises(DataError):
            oracle.avg_kc_embedding(set(), K)
        with pytest.raises(IndexError):
            oracle.avg_kc_embedding({3}, K)

    def test_encode_ka_layout(self):
        np.testing.assert_array_equal(
            oracle.encode_ka(np.array([2.0]), np.array([3.0]), 1), [2, 3, 0, 0]
        )
        np.testing.assert_array_equal(
            oracle.encode_ka(np.array([2.0]), np.array([3.0]), 0), [0, 0, 2, 3]
        )
        assert oracle.encode_ka(np.zeros(5), np.zeros(5), 1).shape == (20,)
        with pytest.raises(DomainError):
            oracle.encode_ka(np.zeros(1), np.zeros(1), 2)

    def test_encode_ks_layout(self):
        kbar = np.array([1.0, 4.0])
        np.testing.assert_array_equal(oracle.encode_ks(kbar, 1), [1, 4, 0, 0])
        np.testing.assert_array_equal(oracle.encode_ks(kbar, 0), [0, 0, 1, 4])
        assert oracle.encode_ks(np.zeros(3), 0).shape == (6,)

    def test_flipping_response_swaps_blocks(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=3), rng.normal(size=3)
        e1, e0 = oracle.encode_ka(q, k, 1), oracle.encode_ka(q, k, 0)
        np.testing.assert_array_equal(e1[:6], e0[6:])
        np.testing.assert_array_equal(e1[6:], e0[:6])


class TestLstmStep:
    def _zero_gates(self, d, p):
        W = [np.zeros((d, p)) for _ in range(4)]
        U = [np.zeros((d, d)) for _ in range(4)]
        b = [np.zeros(d) for _ in range(4)]
        return W, U, b

    def test_all_zero_weights_fixed_point(self):
        d = 3
        W, U, b = self._zero_gates(d, 4 * d)
        state = oracle.lstm_step(np.ones(4 * d), oracle.LstmState.zero(d), W, U, b)
        np.testing.assert_allclose(state.c, np.full(d, 0.25), rtol=1e-15)
        np.testing.assert_allclose(state.h, np.full(d, 0.5 * np.tanh(0.25)), rtol=1e-15)

    def test_zero_weights_forget_algebra(self):
        d = 2
        W, U, b = self._zero_gates(d, 2 * d)
        v = np.array([0.8, -0.4])
        state = oracle.lstm_step(np.zeros(2 * d), oracle.LstmState(np.zeros(d), v), W, U, b)
        np.testing.assert_allclose(state.c, 0.5 * v + 0.25, rtol=1e-14)

    def test_matches_fused_kernel_path(self):
        # straight-line scalar steps from the zero state vs the tape/kernel
        # route: T = 3 steps of 2, 2 and 1 packed columns, so sequence 0 runs
        # 3 steps and sequence 1 runs 2
        rng = np.random.default_rng(42)
        d, p, widths = 3, 12, (2, 2, 1)
        W = [rng.normal(size=(d, p)) for _ in range(4)]
        U = [rng.normal(size=(d, d)) for _ in range(4)]
        b = [rng.normal(size=d) for _ in range(4)]
        x = rng.normal(size=(p, sum(widths)))

        tape = Tape()
        proj = tape.leaf(np.vstack(W) @ x + np.concatenate(b)[:, None])
        h = tape.lstm_gates(proj, tape.leaf(np.vstack(U)), widths).value
        for j in range(2):
            state = oracle.LstmState.zero(d)
            for t in range(len(widths) if j == 0 else 2):
                col = sum(widths[:t]) + j
                state = oracle.lstm_step(x[:, col], state, W, U, b)
                np.testing.assert_allclose(h[:, col], state.h, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        W, U, b = self._zero_gates(2, 8)
        with pytest.raises(ShapeError):
            oracle.lstm_step(np.zeros(5), oracle.LstmState.zero(2), W, U, b)


class TestFlatParameters:
    """Parameters hold one float64 vector; every tensor is a view of it."""

    @staticmethod
    def assert_flat_backed(p):
        flat = p.flat
        assert isinstance(p, qm.FlatTensors)
        assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
        assert flat.size == qm.param_count(p.config)
        assert list(p) == list(qm.param_shapes(p.config))
        for name, (lo, hi, shape) in p.spans.items():
            assert p[name].shape == shape and np.shares_memory(p[name], flat), name
            assert np.array_equal(p[name].ravel(), flat[lo:hi]), name

    @pytest.mark.parametrize("variant", qm.VARIANTS)
    def test_save_writes_the_per_tensor_bytes(self, tmp_path, variant):
        p = random_params(qm.ModelConfig(7, 4, 3, variant=variant), seed=5)
        p.save(tmp_path / "checkpoint.bin")
        assert (tmp_path / "checkpoint.bin").read_bytes() == oracle.save_per_tensor(p)

    def test_load_copy_and_pickle_come_back_flat_backed(self, tmp_path):
        p = random_params(qm.ModelConfig(7, 4, 3, variant="no_irt"), seed=6)
        self.assert_flat_backed(p)
        p.save(tmp_path / "checkpoint.bin")
        copies = [qm.Parameters.load(tmp_path / "checkpoint.bin"), p.copy(), pickle.loads(pickle.dumps(p))]
        for q in copies:
            self.assert_flat_backed(q)
            assert q.config == p.config and np.array_equal(q.flat, p.flat)
            assert not np.shares_memory(q.flat, p.flat)
        # a Parameters pickles as its config and its vector
        assert p.__reduce__() == (qm.Parameters, (p.config, p.flat))
        # and a FlatTensors as its spans and its vector
        blocks = pickle.loads(pickle.dumps(p.blocks))
        assert all(np.shares_memory(view, blocks.flat) for view in blocks.values())

    def test_rebinding_a_tensor_writes_into_the_vector(self):
        p = random_params(qm.ModelConfig(5, 3, 2), seed=7)
        view, (lo, hi, _) = p["W_a2"], p.spans["W_a2"]
        p["W_a2"] = np.full((5, 2), 3.0)
        assert p["W_a2"] is view and (view == 3.0).all() and (p.flat[lo:hi] == 3.0).all()
        self.assert_flat_backed(p)
        before = p.flat.copy()
        with pytest.raises(ShapeError):
            p["W_a2"] = np.zeros((2, 5))
        with pytest.raises(ShapeError):
            p["b_p"] = np.zeros(1)
        with pytest.raises(KeyError):
            p["W_new"] = np.zeros(1)
        with pytest.raises((TypeError, AttributeError)):
            del p["W_a2"]
        assert np.array_equal(p.flat, before)
        assert list(p) == list(qm.param_shapes(p.config))

    def test_a_vector_of_another_size_is_refused(self):
        cfg = qm.ModelConfig(3, 2, 2)
        with pytest.raises(ShapeError):
            qm.Parameters(cfg, np.zeros(qm.param_count(cfg) + 1))

    def test_leaves_are_views_of_one_cast(self):
        # one leaf per gate block, in its first member's place, and one per
        # other tensor; each a view of one cast, a block equal to its
        # members' casts stacked by rows
        p = random_params(qm.ModelConfig(5, 3, 2), seed=8)
        blocks = ["W_1..W_4", "W_5..W_8", "U_1..U_8", "b_1..b_4", "b_5..b_8"]
        assert list(qm.GATE_BLOCKS) == blocks
        heads = ["W_a1", "b_a1", "W_a2", "b_a2", "w_a", "W_g1", "b_g1", "W_g2", "b_g2", "w_g",
                 "W_p1", "b_p1", "W_p2", "b_p2", "w_p", "b_p"]
        expected = ["Q", "K"] + blocks + heads
        for dtype in (np.float32, np.float64):
            tape = Tape(dtype)
            nodes = p.leaves(tape)
            assert list(nodes) == expected == list(p.blocks)
            base = nodes["Q"].value.base
            assert base is not None and base.dtype == dtype and base.size == qm.param_count(p.config)
            for name, node in nodes.items():
                if name in qm.GATE_BLOCKS:
                    want = np.concatenate([p[m].astype(dtype) for m in qm.GATE_BLOCKS[name]])
                else:
                    want = p[name].astype(dtype)
                assert node.value.base is base and np.array_equal(node.value, want), name
        # at float64 the cast is the parameter vector itself
        assert base is p.flat

    @pytest.mark.parametrize("variant", qm.VARIANTS)
    def test_gate_blocks_tile_the_vector_in_param_shapes_order(self, variant):
        # each block spans exactly its members' adjacent slices, so a
        # reordered param_shapes fails here rather than as wrong gradients
        p = random_params(qm.ModelConfig(5, 3, 2, variant=variant), seed=9)
        spans, leaf_spans = p.spans, p.blocks.spans
        bounds = [(lo, hi) for lo, hi, _ in leaf_spans.values()]
        assert bounds[0][0] == 0 and bounds[-1][1] == qm.param_count(p.config)
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        unfolded = [m for name in leaf_spans for m in qm.GATE_BLOCKS.get(name, (name,))]
        assert unfolded == list(qm.param_shapes(p.config))
        for block, members in qm.GATE_BLOCKS.items():
            lo, hi, shape = leaf_spans[block]
            assert (lo, hi) == (spans[members[0]][0], spans[members[-1]][1]), block
            assert all(spans[a][1] == spans[b][0] for a, b in zip(members, members[1:])), block
            assert shape == (sum(spans[m][2][0] for m in members),) + spans[members[0]][2][1:]


class TestScoreHeads:
    def test_ka_score_zero_weights(self):
        cfg = qm.ModelConfig(4, 2, 3)
        assert oracle.ka_score(np.ones(3), zero_params(cfg)) == 0.0

    def test_ka_score_hand_evaluated(self):
        cfg = qm.ModelConfig(n_questions=2, n_kcs=1, dim=1)
        p = zero_params(cfg)
        for name in ("W_a1", "b_a1", "W_a2", "b_a2", "w_a"):
            p[name] = np.ones_like(p[name])
        # inner relu = 2, outer = [3, 3], weighted sum = 6
        assert oracle.ka_score(np.array([1.0]), p) == 6.0

    def test_ks_score_zero_weights(self):
        cfg = qm.ModelConfig(4, 2, 3)
        beta, mastery = oracle.ks_score(np.ones(3), zero_params(cfg))
        assert beta == 0.0
        np.testing.assert_array_equal(mastery, [0.5, 0.5])

    def test_ks_score_forced_logits(self):
        cfg = qm.ModelConfig(n_questions=2, n_kcs=2, dim=1)
        p = zero_params(cfg)
        p["b_g2"] = np.array([0.0, 1.0])
        p["w_g"] = np.array([1.0, 1.0])
        beta, mastery = oracle.ks_score(np.zeros(1), p)
        assert beta == 1.0
        np.testing.assert_allclose(mastery, [0.5, 0.731059], atol=5e-7)
        # pooled score is the sum of the pre-sigmoid mastery logits
        np.testing.assert_allclose(beta, np.log(mastery / (1 - mastery)).sum(), rtol=1e-12)

    def test_ps_score_bias_passthrough(self):
        cfg = qm.ModelConfig(4, 2, 3)
        p = zero_params(cfg)
        p["b_p"] = np.array(0.7)
        assert oracle.ps_score(np.zeros(3), np.zeros(3), np.zeros(3), p) == pytest.approx(0.7)

    def test_ps_score_hand_evaluated(self):
        cfg = qm.ModelConfig(n_questions=2, n_kcs=2, dim=1)
        p = zero_params(cfg)
        for name in ("W_p1", "b_p1", "W_p2", "b_p2", "w_p", "b_p"):
            p[name] = np.ones_like(p[name])
        one = np.array([1.0])
        # inner = [4,4,4], second = [13,13,13], 39 + 1 = 40
        assert oracle.ps_score(one, one, one, p) == 40.0

    def test_ps_score_question_sensitivity(self):
        cfg = qm.ModelConfig(5, 2, 3)
        p = qm.Parameters.init(cfg, seed=3)
        g = np.ones(3) * 0.3
        z1 = oracle.ps_score(g, p["Q"][0], np.ones(3), p)
        z2 = oracle.ps_score(g, p["Q"][1], np.ones(3), p)
        assert z1 != z2


class TestIrtPredict:
    def test_fixed_points(self):
        assert oracle.irt_predict(0.0, 0.0, 0.0) == 0.5
        assert oracle.irt_predict(1.0, 1.0, -2.0) == 0.5
        np.testing.assert_allclose(oracle.irt_predict(2.0, 1.0, 0.5), 0.970688, atol=5e-7)

    def test_bit_exact_logistic_of_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, z = rng.normal(size=3) * 4.0
            assert oracle.irt_predict(a, b, z) == sigmoid(a + b + z)

    def test_monotone_in_each_argument(self):
        base = oracle.irt_predict(0.3, -0.2, 0.1)
        assert oracle.irt_predict(0.4, -0.2, 0.1) > base
        assert oracle.irt_predict(0.3, -0.1, 0.1) > base
        assert oracle.irt_predict(0.3, -0.2, 0.2) > base


class TestForwardSequence:
    def test_rejects_short_sequence(self):
        cfg = qm.ModelConfig(3, 2, 2)
        with pytest.raises(DataError):
            oracle.forward_sequence(seq_of([(0, (0,), 1)]), zero_params(cfg))

    def test_output_count_and_zero_param_value(self):
        cfg = qm.ModelConfig(3, 2, 2)
        rng = np.random.default_rng(1)
        seq = make_seq(rng, 6, 3, 2)
        outs = oracle.forward_sequence(seq, zero_params(cfg))
        assert len(outs) == 5
        for o in outs:
            assert o.alpha == 0.0 and o.beta == 0.0 and o.zeta == 0.0
            assert o.r_hat == 0.5
            np.testing.assert_array_equal(o.kc_mastery, [0.5, 0.5])

    def test_full_variant_prediction_identity(self):
        cfg = qm.ModelConfig(6, 3, 4)
        p = qm.Parameters.init(cfg, seed=2)
        seq = make_seq(np.random.default_rng(2), 8, 6, 3)
        for o in oracle.forward_sequence(seq, p):
            assert o.r_hat == oracle.irt_predict(o.alpha, o.beta, o.zeta)

    def test_no_ks_ps_is_next_question_invariant(self):
        cfg = qm.ModelConfig(6, 3, 4, variant="no_ks_ps")
        p = qm.Parameters.init(cfg, seed=4)
        hist = make_seq(np.random.default_rng(4), 4, 6, 3)
        rows = list(zip(hist.questions.tolist(), hist.kcs, hist.responses.tolist()))
        r_hats = set()
        for q in range(6):
            seq = seq_of(rows + [(q, (0,), 1)])
            r_hats.add(oracle.forward_sequence(seq, p)[-1].r_hat)
        assert len(r_hats) == 1

    def test_question_sensitivity_per_variant(self):
        # only the application score depends on the upcoming question, so
        # exactly the variants that keep it are question-sensitive
        for variant, sensitive in (
            ("full", True),
            ("no_irt", True),
            ("no_ks", True),
            ("no_ps", False),
            ("no_ks_ps", False),
        ):
            cfg = qm.ModelConfig(6, 3, 4, variant=variant)
            p = qm.Parameters.init(cfg, seed=5)
            hist = make_seq(np.random.default_rng(5), 4, 6, 3)
            rows = list(zip(hist.questions.tolist(), hist.kcs, hist.responses.tolist()))
            r_hats = set()
            for q in range(6):
                seq = seq_of(rows + [(q, (1,), 1)])
                r_hats.add(oracle.forward_sequence(seq, p)[-1].r_hat)
            assert (len(r_hats) > 1) == sensitive, variant

    def test_deterministic_reruns(self):
        cfg = qm.ModelConfig(6, 3, 4)
        p = qm.Parameters.init(cfg, seed=6)
        seq = make_seq(np.random.default_rng(6), 7, 6, 3)
        a = oracle.forward_sequence(seq, p)
        b = oracle.forward_sequence(seq, p)
        for x, y in zip(a, b):
            assert x.r_hat == y.r_hat and x.alpha == y.alpha
            np.testing.assert_array_equal(x.kc_mastery, y.kc_mastery)


class TestJointLoss:
    def _outputs(self, scores):
        return [
            oracle.StepOutputs(a, b, z, oracle.irt_predict(a, b, z), np.zeros(2)) for a, b, z in scores
        ]

    def test_all_zero_scores_single_target(self):
        outs = self._outputs([(0.0, 0.0, 0.0)])
        np.testing.assert_allclose(oracle.joint_loss(outs, [1], 1.0), 4 * np.log(2), rtol=1e-14)

    def test_lambda_zero_reduces_to_prediction_loss(self):
        outs = self._outputs([(0.4, -0.2, 0.3), (1.0, 0.5, -0.8)])
        got = oracle.joint_loss(outs, [1, 0], 0.0)
        manual = np.mean([-np.log(outs[0].r_hat), -np.log(1 - outs[1].r_hat)])
        np.testing.assert_allclose(got, manual, rtol=1e-12)

    def test_misaligned_lengths_raise(self):
        with pytest.raises(ShapeError):
            oracle.joint_loss(self._outputs([(0, 0, 0)]), [1, 0], 1.0)

    def test_variant_drops_aux_terms(self):
        outs = self._outputs([(0.5, 0.7, -0.3)])
        full = oracle.joint_loss(outs, [1], 2.0, variant="full")
        no_ks = oracle.joint_loss(outs, [1], 2.0, variant="no_ks")
        # same r_hat in outputs; the difference is exactly the beta aux term
        diff = full - no_ks
        np.testing.assert_allclose(diff, 2.0 * -np.log(sigmoid(0.7)), rtol=1e-12)


class TestBatchGraph:
    def _value_path_pooled_loss(self, seqs, params, cfg):
        total, count = 0.0, 0
        for s in seqs:
            outs = oracle.forward_sequence(s, params)
            targets = s.responses[1:].tolist()
            total += oracle.joint_loss(outs, targets, cfg.lambda_aux, cfg.variant) * len(outs)
            count += len(outs)
        return total / count

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    def test_matches_value_path(self, variant):
        rng = np.random.default_rng(17)
        cfg = qm.ModelConfig(5, 3, 3, lambda_aux=0.8, variant=variant)
        p = qm.Parameters.init(cfg, seed=17)
        seqs = [make_seq(rng, L, 5, 3) for L in (3, 5, 2, 4)]
        batch = qm.Batch(seqs)

        tape = Tape()
        graph = qm.build_graph(tape, p.leaves(tape), batch, cfg)
        np.testing.assert_allclose(
            float(graph.loss.value), self._value_path_pooled_loss(seqs, p, cfg), rtol=1e-11
        )

        preds, targets = qm.batch_predictions(p, batch)
        flat_value = []
        flat_targets = []
        for s in seqs:
            for o, r in zip(oracle.forward_sequence(s, p), s.responses[1:].tolist()):
                flat_value.append(o.r_hat)
                flat_targets.append(r)
        # batch order is step-major; compare as sorted multisets plus counts
        np.testing.assert_allclose(sorted(preds), sorted(flat_value), rtol=1e-11)
        assert sorted(targets) == sorted(map(float, flat_targets))

    def test_mastery_collection_matches_value_path(self):
        rng = np.random.default_rng(23)
        cfg = qm.ModelConfig(4, 3, 2)
        p = qm.Parameters.init(cfg, seed=23)
        seq = make_seq(rng, 5, 4, 3)
        batch = qm.Batch([seq])
        tape = Tape()
        graph = qm.build_graph(tape, p.leaves(tape), batch, cfg, export=True)
        outs = oracle.forward_sequence(seq, p)
        assert graph.mastery.shape == (3, len(outs))
        for got, out in zip(graph.mastery.T, outs):
            np.testing.assert_allclose(got, out.kc_mastery, rtol=1e-11)

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    def test_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(29)
        cfg = qm.ModelConfig(3, 2, 2, lambda_aux=1.0, variant=variant)
        p = random_params(cfg, seed=29)
        batch = qm.Batch([make_seq(rng, 3, 3, 2), make_seq(rng, 2, 3, 2)])

        report = grad_check(
            lambda tape, nodes: qm.build_graph(tape, nodes, batch, cfg).loss,
            p.blocks,
        )
        assert report.passed, (variant, report)

    def test_node_budget(self, monkeypatch):
        # nothing loops over time on the tape: at B = 64 each variant's graph
        # has the same node count at L = 5 as at L = 50, one lstm_gates node
        # for every track, and the gate kernel runs once per step whatever the
        # track count.  The gate tensors are five stacked leaves, so no graph
        # restacks them: the full graph is 23 leaves (16 head tensors, Q, K
        # and five gate blocks) and 24 ops, among them one projection per
        # track, their in-place vstack, the recurrence, which reads the U
        # block whole for one track or two, one row view of its output per
        # track and one add for the fused sum.  Each head's first layer is
        # one matmul with its relu applied in place
        calls = []
        forward = kernels.gates_forward
        monkeypatch.setattr(kernels, "gates_forward", lambda *a: calls.append(1) or forward(*a))
        budget = {"full": 47, "no_irt": 51, "no_ks": 45, "no_ps": 41, "no_ks_ps": 35}
        counts = {}
        for variant in qm.VARIANTS:
            cfg = qm.ModelConfig(20, 5, 4, variant=variant)
            p = qm.Parameters.init(cfg, seed=3)
            for L in (5, 50):
                rng = np.random.default_rng(3)
                lengths = [L] + [int(n) for n in rng.integers(2, L + 1, size=63)]
                batch = qm.Batch([make_seq(rng, n, 20, 5) for n in lengths])
                tape = Tape()
                calls.clear()
                qm.build_graph(tape, p.leaves(tape), batch, cfg)
                counts[variant, L] = len(tape.nodes)
                assert sum(node.op == "lstm_gates" for node in tape.nodes) == 1
                assert len(calls) == L - 1
        assert counts == {(v, L): n for v, n in budget.items() for L in (5, 50)}

    def test_forward_only_node_budget(self):
        # a forward-only tape records no loss: one node fewer than the
        # training graph of test_node_budget, and GraphOutputs.loss is None
        budget = {"full": 46, "no_irt": 50, "no_ks": 44, "no_ps": 40, "no_ks_ps": 34}
        rng = np.random.default_rng(3)
        batch = qm.Batch([make_seq(rng, n, 20, 5) for n in rng.integers(2, 6, size=8)])
        counts = {}
        for variant in qm.VARIANTS:
            cfg = qm.ModelConfig(20, 5, 4, variant=variant)
            tape = Tape(grad=False)
            graph = qm.build_graph(tape, qm.Parameters.init(cfg, seed=3).leaves(tape), batch, cfg)
            assert graph.loss is None
            assert not any(node.op == "logistic_loss" for node in tape.nodes)
            counts[variant] = len(tape.nodes)
        assert counts == budget

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_update_memory_budget(self):
        # the sweep frees what it has used, relu_pool keeps a bool mask and
        # the update runs at float32, so one update of this batch peaks near
        # 6 MiB (10 MiB at float64)
        peak = self._peak(qm.batch_loss_and_grads, *budget_batch())
        assert peak <= 7 << 20, peak

    def test_scoring_memory_budget(self):
        # a forward-only tape keeps neither relu_pool's masks nor the
        # recurrence's per-step state, and releases the input projections
        # once the recurrence has run: near 5.6 MiB
        peak = self._peak(qm.batch_predictions, *budget_batch())
        assert peak <= 6.5 * (1 << 20), peak

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    @pytest.mark.parametrize("n, m, d, lengths", [(20, 5, 4, (2, 12)), (300, 30, 16, (10, 40))])
    def test_float32_update_agrees_with_float64(self, variant, n, m, d, lengths):
        # the training pass runs at float32: its loss and every gradient lie
        # within 1e-5 of the largest entry of the float64 ones
        rng = np.random.default_rng(41)
        cfg = qm.ModelConfig(n, m, d, variant=variant)
        p = random_params(cfg, seed=41, scale=0.3)
        batch = qm.Batch([make_seq(rng, int(k), n, m) for k in rng.integers(*lengths, size=12)])
        loss, grads = qm.batch_loss_and_grads(p, batch)

        tape = Tape()
        nodes = p.leaves(tape)
        ref = qm.build_graph(tape, nodes, batch, cfg).loss
        tape.backward(ref)
        assert abs(loss - float(ref.value)) <= 1e-5 * abs(float(ref.value))
        ref_grads = p.like(np.concatenate([Tape.grad(node).ravel() for node in nodes.values()]))
        for name, g64 in ref_grads.items():
            assert grads[name].dtype == np.float32, name
            assert np.abs(grads[name] - g64).max() <= 1e-5 * np.abs(g64).max(), name
        assert all(arr.dtype == np.float64 for _, arr in p.items())

    @pytest.mark.parametrize("export", [False, True])
    def test_a_float32_graph_is_float32_throughout(self, export):
        rng = np.random.default_rng(43)
        cfg = qm.ModelConfig(6, 3, 3, variant="no_irt")
        batch = qm.Batch([make_seq(rng, k, 6, 3) for k in (5, 3, 4)])
        tape = Tape(np.float32)
        nodes = random_params(cfg, seed=43).leaves(tape)
        graph = qm.build_graph(tape, nodes, batch, cfg, export=export)
        assert {node.value.dtype for node in tape.nodes} == {np.dtype(np.float32)}
        if export:
            assert graph.mastery.dtype == np.float32
        tape.backward(graph.loss)
        assert {Tape.grad(node).dtype for node in nodes.values()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    def test_scoring_runs_forward_only_at_float64(self, variant, monkeypatch):
        # batch_predictions and sequence_outputs record on a float64
        # grad=False tape, with the values a differentiable tape gives
        rng = np.random.default_rng(47)
        cfg = qm.ModelConfig(6, 3, 3, variant=variant)
        p = random_params(cfg, seed=47, scale=0.3)
        seqs = [make_seq(rng, k, 6, 3) for k in (5, 3, 4)]
        tapes = []
        monkeypatch.setattr(qm, "Tape", lambda *a, **k: tapes.append(Tape(*a, **k)) or tapes[-1])
        preds, _ = qm.batch_predictions(p, qm.Batch(seqs))
        outs = qm.sequence_outputs(p, seqs[0])
        assert [(t.dtype, t.with_grad) for t in tapes] == [(np.dtype(np.float64), False)] * 2
        assert all(node._backward is None for t in tapes for node in t.nodes)
        with pytest.raises(RuntimeError):
            tapes[0].backward(tapes[0].nodes[-1])

        batch = qm.Batch(seqs)
        tape = Tape()
        graph = qm.build_graph(tape, p.leaves(tape), batch, cfg)
        np.testing.assert_array_equal(preds, graph.r_hat.value[batch.order])
        tape = Tape()
        graph = qm.build_graph(tape, p.leaves(tape), qm.Batch(seqs[:1]), cfg, export=True)
        for name in ("r_hat", "alpha", "beta", "zeta"):
            np.testing.assert_array_equal(getattr(outs, name).value, getattr(graph, name).value)
        np.testing.assert_array_equal(outs.mastery, graph.mastery)

    @pytest.mark.skipif(sys.platform != "linux", reason="the heap setting is glibc's")
    def test_repeated_updates_take_no_page_faults(self):
        # freed update buffers stay in the heap, so once warm an update maps
        # no fresh pages; a fresh process, so no earlier test shapes the heap
        faults = run_python("""
import json, resource
import qckt.model as qm
from _support import budget_batch
p, batch = budget_batch()
for _ in range(3):
    qm.batch_loss_and_grads(p, batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    qm.batch_loss_and_grads(p, batch)
print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5))
""")
        assert faults <= 50

    @pytest.mark.skipif(sys.platform != "linux", reason="the heap setting is glibc's")
    def test_import_leaves_the_allocator_to_the_first_tape(self):
        # importing the package calls no mallopt; the first Tape sets the
        # mmap (-3) and trim (-1) thresholds once, for the whole process
        calls = run_python("""
import ctypes, json
calls, real_cdll = [], ctypes.CDLL

class SpyLib:
    def __init__(self, *args, **kwargs):
        self._lib = real_cdll(*args, **kwargs)

    def __getattr__(self, name):
        func = getattr(self._lib, name)
        if name != "mallopt":
            return func
        return lambda param, value: calls.append([param, value]) or func(param, value)

ctypes.CDLL = SpyLib
import qckt, qckt.cli
on_import = list(calls)
qckt.Tape()
qckt.Tape()
print(json.dumps([on_import, calls]))
""")
        assert calls == [[], [[-3, 32 << 20], [-1, 1 << 30]]]

    @settings(max_examples=30, deadline=None)
    @given(
        variant=st.sampled_from(qm.VARIANTS),
        length=st.integers(2, 10),
        others=st.lists(st.integers(2, 14), min_size=1, max_size=5),
        slot=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_predictions_do_not_depend_on_batch_company(self, variant, length, others, slot, seed):
        cfg = qm.ModelConfig(6, 4, 3, variant=variant)
        p = random_params(cfg, seed=5, scale=0.3)
        rng = np.random.default_rng(seed)
        seq = make_seq(rng, length, 6, 4)
        seqs = [make_seq(rng, L, 6, 4) for L in others]
        slot = min(slot, len(seqs))
        seqs.insert(slot, seq)

        alone, _ = qm.batch_predictions(p, qm.Batch([seq]))
        preds, _ = qm.batch_predictions(p, qm.Batch(seqs))
        lengths = np.array([len(s) for s in seqs])
        keep = np.arange(lengths.max() - 1)[:, None] < lengths[None, :] - 1
        grid = np.full(keep.shape, np.nan)
        grid[keep] = preds  # predictions come back step-major in the caller's order
        np.testing.assert_allclose(grid[: length - 1, slot], alone, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    def test_returned_gradients_do_not_overlap(self, variant):
        # the tape may share gradient buffers between nodes (add passes its
        # gradient on, vstack hands out row blocks of one array), but no two
        # parameters' gradients overlap
        rng = np.random.default_rng(5)
        cfg = qm.ModelConfig(6, 3, 3, variant=variant)
        batch = qm.Batch([make_seq(rng, n, 6, 3) for n in (4, 2, 5)])
        _, grads = qm.batch_loss_and_grads(random_params(cfg, seed=5), batch)
        names = list(grads)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not np.shares_memory(grads[a], grads[b]), (a, b)

    def test_kc_triple_is_column_major(self):
        seqs = [
            seq_of([(0, (1,), 0), (1, (2,), 1)]),
            seq_of([(1, (2, 0), 1), (0, (1,), 0), (2, (0, 1, 2), 1)]),
        ]
        batch = qm.Batch(seqs)
        # the longer sequence sorts first: inputs (step 0 of both, step 1 of
        # the longer one), then the interactions they predict
        np.testing.assert_array_equal(batch.qids, [1, 0, 0, 0, 1, 2])
        np.testing.assert_array_equal(batch.responses, [1, 0, 0, 0, 1, 1])
        rows, cols, wts = batch.kc_in
        np.testing.assert_array_equal(rows, [2, 0, 1, 1])
        np.testing.assert_array_equal(cols, [0, 0, 1, 2])
        np.testing.assert_array_equal(wts, [1 / 2, 1 / 2, 1, 1])
        rows, cols, wts = batch.kc_next
        np.testing.assert_array_equal(rows, [1, 2, 0, 1, 2])
        np.testing.assert_array_equal(cols, [0, 1, 2, 2, 2])
        np.testing.assert_array_equal(wts, [1, 1, 1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(DomainError):
            qm.Batch([seq_of([(0, (), 1), (1, (0,), 0)])])

        # exactly the per-column loop's triple, on a random ragged batch
        seqs = [make_seq(np.random.default_rng(8), n, 5, 4) for n in (3, 7, 2, 5)]
        batch = qm.Batch(seqs)
        longest_first = sorted(range(len(seqs)), key=lambda j: -len(seqs[j]))
        inputs, nexts = [], []
        for t in range(max(map(len, seqs)) - 1):
            for j in longest_first:
                if len(seqs[j]) > t + 1:
                    inputs.append(seqs[j].kcs[t])
                    nexts.append(seqs[j].kcs[t + 1])
        for triple, groups in ((batch.kc_in, inputs), (batch.kc_next, nexts)):
            want = (
                [k for g in groups for k in g],
                [c for c, g in enumerate(groups) for _ in g],
                [1.0 / len(g) for g in groups for _ in g],
            )
            for got, ref in zip(triple, want):
                np.testing.assert_array_equal(got, ref)

    def test_batch_rejects_too_short(self):
        with pytest.raises(DataError):
            qm.Batch([seq_of([(0, (0,), 1)])])

    @pytest.mark.parametrize("response", [2, 0.5])
    def test_batch_rejects_response_not_0_or_1(self, response):
        good = make_seq(np.random.default_rng(3), 4, 3, 2)
        with pytest.raises(DomainError, match=f"got {response!r}"):
            qm.Batch([good, seq_of([(0, (0,), 1), (1, (1,), response), (2, (0,), 0)])])

    def test_packed_widths_and_order(self):
        seqs = [make_seq(np.random.default_rng(1), L, 3, 2) for L in (2, 4, 3, 4)]
        batch = qm.Batch(seqs)
        # longest first, ties in the caller's order: positions 1, 3, 2, 0
        assert batch.widths == (4, 3, 2)
        assert batch.n_preds == 9  # 1 + 3 + 2 + 3 predictions, no padding
        np.testing.assert_array_equal(batch.order, [3, 0, 2, 1, 4, 6, 5, 7, 8])
        packed = [(t, j) for t, w in enumerate(batch.widths) for j in (1, 3, 2, 0)[:w]]
        for p, (t, j) in enumerate(packed):
            assert batch.qids[p] == seqs[j].questions[t]
            assert batch.qids[batch.n_preds + p] == seqs[j].questions[t + 1]
            assert batch.responses[batch.n_preds + p] == seqs[j].responses[t + 1]
        assert [packed[p] for p in batch.order] == sorted(packed)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = qm.ModelConfig(7, 4, 5, lambda_aux=1.5, variant="no_irt")
        p = qm.Parameters.init(cfg, seed=99)
        path = tmp_path / "checkpoint.bin"
        p.save(path)
        q = qm.Parameters.load(path)
        assert q.config == cfg
        for name in p:
            np.testing.assert_array_equal(p[name], q[name])
        # saving the loaded copy reproduces the identical file
        path2 = tmp_path / "again.bin"
        q.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTQCKT!" + b"\x00" * 32)
        with pytest.raises(DataError):
            qm.Parameters.load(path)

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = qm.ModelConfig(3, 2, 2)
        path = tmp_path / "checkpoint.bin"
        qm.Parameters.init(cfg, seed=1).save(path)
        before = path.read_bytes()
        calls = []

        def fail_on_payload(*args, **kwargs):  # the header is written, then the payload
            calls.append(1)
            raise OSError("disk full")

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_payload)
        with pytest.raises(OSError):
            qm.Parameters.init(cfg, seed=2).save(path)
        assert len(calls) == 1
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]

    @pytest.mark.parametrize("shape", [[1e10, 1e10], [10**6, 10**6], [2, 2, 2]])
    def test_declared_shapes_are_checked_before_reading(self, tmp_path, shape):
        cfg = qm.ModelConfig(3, 2, 2)
        path = tmp_path / "checkpoint.bin"
        qm.Parameters.init(cfg, seed=1).save(path)
        blob = path.read_bytes()
        path.write_bytes(with_header(blob, lambda h: h["tensors"][0].__setitem__(1, shape)))
        with pytest.raises(DataError, match="do not fit"):
            qm.Parameters.load(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes_raise_only_package_errors(self, tmp_path_factory, data):
        # raw bytes with or without the magic, a valid file with a span
        # replaced, or a header with arbitrary config values and shapes
        path = tmp_path_factory.mktemp("fuzz") / "checkpoint.bin"
        qm.Parameters.init(qm.ModelConfig(3, 2, 2), seed=1).save(path)
        valid = path.read_bytes()
        size = st.one_of(st.integers(-1, 10**12), st.floats(), st.just(2))
        edits = st.fixed_dictionaries({
            "config": st.dictionaries(st.sampled_from(["n_questions", "n_kcs", "dim", "lambda_aux",
                                                       "variant", "bogus"]), size),
            "tensors": st.lists(st.tuples(st.sampled_from(["Q", "K", "W_1", "b_p"]),
                                          st.lists(size, max_size=3)), max_size=4),
        })
        kind = data.draw(st.sampled_from(["bytes", "splice", "header"]))
        if kind == "bytes":
            blob = data.draw(st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(
                lambda b: qm.CHECKPOINT_MAGIC + b)))
        elif kind == "splice":
            i = data.draw(st.integers(0, len(valid)))
            j = data.draw(st.integers(i, len(valid)))
            blob = valid[:i] + data.draw(st.binary(max_size=20)) + valid[j:]
        else:
            edit = data.draw(edits)

            def apply(header):
                header["config"].update(edit["config"])
                header["tensors"] = edit["tensors"] or header["tensors"]

            blob = with_header(valid, apply)
        path.write_bytes(blob)
        try:
            qm.Parameters.load(path)
        except PACKAGE_ERRORS:
            pass

    def test_fractional_size_in_header_is_rejected_by_the_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        qm.Parameters.init(qm.ModelConfig(3, 2, 2), seed=1).save(path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: h["config"].update(dim=2.5)))
        with pytest.raises(DataError, match="ConfigError"):
            qm.Parameters.load(path)

    def test_bool_lambda_in_header_is_rejected_by_the_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        qm.Parameters.init(qm.ModelConfig(3, 2, 2), seed=1).save(path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: h["config"].update(lambda_aux=True)))
        with pytest.raises(DataError, match="ConfigError"):
            qm.Parameters.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = qm.ModelConfig(3, 2, 2)
        p = qm.Parameters.init(cfg, seed=1)
        path = tmp_path / "checkpoint.bin"
        p.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataError):
            qm.Parameters.load(path)

