import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
import qckt.evaluation as qe
import qckt.model as qm
from _support import make_seq, random_params
from qckt.autodiff import sigmoid
from qckt.errors import MetricError, ShapeError


def ps(preds, labels):
    return qe.PredictionSet(preds, labels)


class TestPredictionSet:
    def test_validation(self):
        with pytest.raises(ShapeError):
            ps([0.5], [1, 0])
        with pytest.raises(MetricError):
            ps([1.5], [1])
        with pytest.raises(MetricError):
            ps([0.5], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_is_refused(self, bad):
        # every comparison with nan is false, so a range check alone passes it
        with pytest.raises(MetricError, match="not finite"):
            ps([bad, 0.2, 0.9, 0.4], [1, 0, 1, 0])


class TestAuc:
    def test_perfect_and_reversed_ranking(self):
        assert qe.auc(ps([0.9, 0.1], [1, 0])) == 1.0
        assert qe.auc(ps([0.1, 0.9], [1, 0])) == 0.0

    def test_hand_counted_pairs(self):
        # pairs (0.8,0.3) (0.8,0.6) (0.5,0.3) correct, (0.5,0.6) not: 3/4
        assert qe.auc(ps([0.8, 0.3, 0.5, 0.6], [1, 0, 1, 0])) == 0.75

    def test_ties_count_half(self):
        assert qe.auc(ps([0.5, 0.5], [1, 0])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            qe.auc(ps([0.2, 0.4], [1, 1]))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(2, 51))
            # coarse grid forces plenty of ties
            preds = rng.choice(np.linspace(0, 1, 7), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            p = ps(preds, labels)
            np.testing.assert_allclose(qe.auc(p), oracle.auc_bruteforce(p), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2, max_size=80))
    def test_equals_bruteforce_exactly_on_tie_heavy_inputs(self, pairs):
        # five distinct scores, so almost every prediction is tied; ranks are
        # half-integers and both forms are exact in float arithmetic
        preds = np.array([v / 4.0 for v, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        assume(labels.min() != labels.max())
        p = ps(preds, labels)
        assert qe.auc(p) == oracle.auc_bruteforce(p)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        preds = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        a1 = qe.auc(ps(preds, labels))
        a2 = qe.auc(ps(preds**3, labels))  # strictly increasing on [0,1]
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_label_flip_complement_without_ties(self):
        rng = np.random.default_rng(9)
        preds = rng.permutation(np.linspace(0.01, 0.99, 30))
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        a = qe.auc(ps(preds, labels))
        b = qe.auc(ps(preds, 1 - labels))
        np.testing.assert_allclose(a + b, 1.0, atol=1e-12)


class TestAccuracy:
    def test_direct_count(self):
        assert qe.accuracy(ps([0.6, 0.7, 0.2], [1, 0, 0])) == pytest.approx(2 / 3)

    def test_threshold_tie_counts_positive(self):
        assert qe.accuracy(ps([0.5], [1])) == 1.0
        assert qe.accuracy(ps([0.5], [0])) == 0.0

    def test_all_correct(self):
        assert qe.accuracy(ps([0.9, 0.1, 0.8], [1, 0, 1])) == 1.0

    def test_threshold_zero_equals_label_mean(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.01, 1.0, size=50)
        labels = rng.integers(0, 2, size=50)
        assert qe.accuracy(ps(preds, labels), threshold=0.0) == labels.mean()

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            qe.accuracy(ps([], []))


class TestPairedTTest:
    def test_identical_samples(self):
        assert qe.paired_t_test([0.7, 0.8, 0.9], [0.7, 0.8, 0.9]) == 1.0

    def test_constant_nonzero_differences(self):
        assert qe.paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5]) == 0.0

    def test_known_difference_vector(self):
        # diffs [0.1, -0.1, 0.2, 0.0, 0.05]: mean 0.05, sd 0.1118034,
        # t = 1.0 with 4 dof; two-sided p pinned from the reference t CDF
        b = np.zeros(5)
        a = np.array([0.1, -0.1, 0.2, 0.0, 0.05])
        p = qe.paired_t_test(a, b)
        np.testing.assert_allclose(p, 0.3739009663, atol=1e-7)
        ref = scipy.stats.ttest_rel(a, b).pvalue
        np.testing.assert_allclose(p, ref, atol=1e-9)

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(11)
        a, b = rng.random(6), rng.random(6)
        assert qe.paired_t_test(a, b) == qe.paired_t_test(b, a)

    def test_matches_scipy_on_random_vectors(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.3, size=n)
            ours = qe.paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b).pvalue
            np.testing.assert_allclose(ours, ref, atol=1e-6), trial

    def test_contract_errors(self):
        with pytest.raises(ShapeError):
            qe.paired_t_test([1.0, 2.0], [1.0])
        with pytest.raises(MetricError):
            qe.paired_t_test([1.0], [2.0])

    def test_tail_integration_against_scipy_sf(self):
        for df in (*range(1, 61), 99, 100, 500):
            for x in (0.0, 0.1, 0.5, 1.0, 1.7, 2.5, 6.0, 15.0, 40.0, 100.0):
                np.testing.assert_allclose(
                    qe._t_tail(x, df), scipy.stats.t.sf(x, df), atol=1e-9
                )


class TestPairwiseMatrix:
    def test_symmetric_with_unit_diagonal(self):
        rows = {
            "a": [0.7, 0.72, 0.71],
            "b": [0.6, 0.62, 0.61],
            "c": [0.7, 0.72, 0.71],
        }
        names, mat = qe.pairwise_t_matrix(rows)
        assert names == ["a", "b", "c"]
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), [1.0, 1.0, 1.0])
        assert mat[0, 2] == 1.0  # identical runs
        assert mat[0, 1] < 0.05


class TestExports:
    def _zero_model(self):
        cfg = qm.ModelConfig(n_questions=4, n_kcs=3, dim=2)
        return oracle.zero_params(cfg), cfg

    def test_module_outputs_zero_params(self):
        p, cfg = self._zero_model()
        seq = make_seq(np.random.default_rng(1), 6, 4, 3)
        rows = qe.export_module_outputs(p, seq)
        assert len(rows) == 5
        for t, row in enumerate(rows, start=1):
            assert row["step"] == t
            assert row["question"] == seq.questions[t]
            assert row["response"] == seq.responses[t]
            assert row["r_hat"] == 0.5
            assert row["sigma_alpha"] == row["sigma_beta"] == row["sigma_zeta"] == 0.5

    def test_module_outputs_fusion_identity(self):
        cfg = qm.ModelConfig(5, 3, 4)
        p = qm.Parameters.init(cfg, seed=8)
        seq = make_seq(np.random.default_rng(8), 7, 5, 3)
        for row in qe.export_module_outputs(p, seq):
            logit = sum(
                np.log(row[c] / (1 - row[c]))
                for c in ("sigma_alpha", "sigma_beta", "sigma_zeta")
            )
            np.testing.assert_allclose(row["r_hat"], sigmoid(logit), rtol=1e-9)

    @pytest.mark.parametrize("variant", list(qm.VARIANTS))
    def test_matches_value_level_oracle(self, variant):
        # every variant exports all three scores and the masteries, though
        # its fusion uses only some of them
        cfg = qm.ModelConfig(5, 3, 4, variant=variant)
        p = random_params(cfg, seed=31, scale=0.3)
        seq = make_seq(np.random.default_rng(31), 9, 5, 3)
        rows = qe.export_module_outputs(p, seq)
        states = qe.export_knowledge_states(p, seq, [2, 0, 1])
        outs = oracle.forward_sequence(seq, p)
        assert len(rows) == len(states) == len(outs) == 8
        for row, state, out in zip(rows, states, outs):
            got = [row[c] for c in ("r_hat", "sigma_alpha", "sigma_beta", "sigma_zeta")]
            want = [out.r_hat] + [float(sigmoid(v)) for v in (out.alpha, out.beta, out.zeta)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(state, out.kc_mastery[[2, 0, 1]], rtol=0.0, atol=1e-11)

    def test_precomputed_outputs_give_the_same_tables(self):
        cfg = qm.ModelConfig(5, 3, 4)
        p = qm.Parameters.init(cfg, seed=9)
        seq = make_seq(np.random.default_rng(9), 6, 5, 3)
        outs = qm.sequence_outputs(p, seq)
        assert qe.export_module_outputs(p, seq, outputs=outs) == qe.export_module_outputs(p, seq)
        np.testing.assert_array_equal(
            qe.export_knowledge_states(p, seq, [0, 2], outputs=outs),
            qe.export_knowledge_states(p, seq, [0, 2]),
        )

    def test_knowledge_states_zero_params(self):
        p, cfg = self._zero_model()
        seq = make_seq(np.random.default_rng(2), 5, 4, 3)
        mat = qe.export_knowledge_states(p, seq, [0, 2])
        assert mat.shape == (4, 2)
        np.testing.assert_array_equal(mat, np.full((4, 2), 0.5))

    def test_knowledge_states_errors(self):
        p, cfg = self._zero_model()
        seq = make_seq(np.random.default_rng(3), 4, 4, 3)
        with pytest.raises(IndexError):
            qe.export_knowledge_states(p, seq, [5])
        with pytest.raises(MetricError):
            qe.export_knowledge_states(p, seq, [])
