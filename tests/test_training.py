"""Optimizer, early-stopping, and training-driver tests.

The Adam checks compare against a straight-line re-implementation of the
textbook recursion; the trainer checks run tiny models end to end.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from _support import run_python, stack
from qckt.autodiff import share_lanes
from qckt.data import SynthConfig, gen_synthetic, preprocess
from qckt.errors import ConfigError, ShapeError, TrainingError
from qckt.evaluation import PredictionSet, auc
from qckt.model import Batch, ModelConfig, Parameters, TRAIN_DTYPE, VARIANTS, batch_loss_and_grads
from qckt.model import batch_predictions
from qckt.training import (
    ADAM_CHUNK,
    DEFAULT_DIM_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_LR_GRID,
    AdamState,
    EarlyStopping,
    TrainConfig,
    adam_step,
    clip_gradients,
    fold_metrics,
    grid_search,
    predictions_over,
    run_ablation,
    run_cv,
    train,
)


def adam_oracle(theta0, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam recursion, one fresh array per step."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trajectory = []
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(theta.copy())
    return trajectory


class TestAdamStep:
    def test_first_step_magnitude_is_lr(self):
        cfg = TrainConfig(lr=0.1)
        for g in (1.0, 2.0, 1000.0, -3.5):
            params = stack({"theta": np.array([4.0])})
            state = AdamState(params)
            adam_step(params, stack({"theta": np.array([g])}), state, cfg)
            step = 4.0 - params["theta"][0]
            assert_allclose(abs(step), 0.1, rtol=1e-6)
            assert np.sign(step) == np.sign(g)

    def test_zero_gradient_leaves_params_unchanged(self):
        cfg = TrainConfig(lr=0.1)
        params = stack({"w": np.array([1.0, -2.0, 0.5])})
        state = AdamState(params)
        for _ in range(5):
            adam_step(params, stack({"w": np.zeros(3)}), state, cfg)
        assert np.array_equal(params["w"], np.array([1.0, -2.0, 0.5]))

    def test_quadratic_converges_near_zero(self):
        # minimize theta^2 from theta = 1 with lr 0.1 for 100 steps
        cfg = TrainConfig(lr=0.1)
        params = stack({"theta": np.array(1.0)})
        state = AdamState(params)
        grads_seen = []
        for _ in range(100):
            grads_seen.append(2.0 * params["theta"].copy())
            adam_step(params, stack({"theta": grads_seen[-1]}), state, cfg)
        assert abs(float(params["theta"])) < 0.05
        oracle = adam_oracle(1.0, grads_seen, lr=0.1)
        assert_allclose(float(params["theta"]), float(oracle[-1]), rtol=1e-13)

    def test_matches_oracle_on_random_tensors(self):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(lr=3e-3)
        for _ in range(20):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
            theta0 = rng.normal(size=shape)
            grads_seq = [rng.normal(size=shape) for _ in range(6)]
            params = stack({"w": theta0.copy()})
            state = AdamState(params)
            for g in grads_seq:
                adam_step(params, stack({"w": g}), state, cfg)
            oracle = adam_oracle(theta0, grads_seq, lr=3e-3)
            assert_allclose(params["w"], oracle[-1], rtol=1e-12, atol=1e-15)

    def test_shared_step_counter(self):
        cfg = TrainConfig(lr=0.1)
        params = stack({"a": np.array([1.0]), "b": np.array([1.0])})
        state = AdamState(params)
        adam_step(params, stack({"a": np.array([1.0]), "b": np.array([1.0])}), state, cfg)
        assert state.t == 1

    def test_nonfinite_gradient_raises_with_name(self):
        cfg = TrainConfig(lr=0.1)
        params = stack({"a": np.array([1.0]), "bad_one": np.array([1.0])})
        state = AdamState(params)
        grads = stack({"a": np.array([1.0]), "bad_one": np.array([np.nan])})
        with pytest.raises(TrainingError, match="bad_one"):
            adam_step(params, grads, state, cfg)
        # every gradient is checked before any parameter or moment moves
        assert state.t == 0
        for name in params:
            assert params[name].tolist() == [1.0]
            assert state.m[name].tolist() == state.v[name].tolist() == [0.0]

    def test_rejects_negative_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)


class TestClipGradients:
    def test_below_threshold_untouched(self):
        grads = stack({"a": np.array([0.3, 0.4])})
        clipped, norm = clip_gradients(grads, 5.0)
        assert_allclose(norm, 0.5)
        assert np.array_equal(clipped["a"], grads["a"])

    def test_scales_to_max_norm(self):
        rng = np.random.default_rng(3)
        grads = stack({"a": rng.normal(size=(4, 3)) * 10.0, "b": rng.normal(size=7) * 10.0})
        clipped, norm = clip_gradients(grads, 5.0)
        assert norm > 5.0
        new_norm = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
        assert_allclose(new_norm, 5.0, rtol=1e-12)
        # direction preserved
        assert_allclose(clipped["a"] / grads["a"], 5.0 / norm, rtol=1e-12)

    def test_a_large_finite_float32_gradient_is_clipped_not_zeroed(self):
        # its square overflows float32; the norm is summed in float64
        grads = stack({"a": np.array([3e19, 1.0], np.float32), "b": np.array([-4e19], np.float32)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, norm = clip_gradients(grads, 5.0)
        assert_allclose(norm, 5e19, rtol=1e-6)
        assert all(g.dtype == np.float32 for g in clipped.values())
        flat = np.concatenate([clipped["a"], clipped["b"]]).astype(np.float64)
        assert_allclose(np.sqrt(flat @ flat), 5.0, rtol=1e-6)
        assert_allclose(flat, np.array([3e19, 1.0, -4e19]) * 5.0 / 5e19, rtol=1e-6)

    def test_disabled_by_zero_or_none(self):
        grads = stack({"a": np.array([100.0])})
        for flag in (0.0, None):
            clipped, _ = clip_gradients(grads, flag)
            assert np.array_equal(clipped["a"], grads["a"])

    def test_norm_bits_do_not_depend_on_blas_threads(self, monkeypatch):
        # float32 gradients laid out as the 487,209 parameters of n = 2000,
        # m = 100, d = 64, where a float64 dot per tensor or over the whole
        # vector changes its last bits between one BLAS thread and two
        code = """
import json
import numpy as np
from qckt.model import ModelConfig, Parameters
from qckt.training import clip_gradients

params = Parameters.init(ModelConfig(2000, 100, 64), seed=0)
g = (np.random.default_rng(27).normal(size=params.flat.size) * 1e-2).astype(np.float32)
print(json.dumps([params.flat.size, clip_gradients(params.like(g), 5.0)[1]]))
"""
        norms = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            norms.append(run_python(code))
        assert norms[0][0] == 487209
        assert norms[0] == norms[1]


class TestFlatOptimizer:
    """clip_gradients and adam_step over one vector against the per-tensor
    reference in the test oracle, bit for bit."""

    # three tensors of 196,622 entries in all, more than three ADAM_CHUNK
    # chunks, with chunk edges inside tensors, and a 0-d tensor
    SHAPES = {"W": (300, 400), "b": (76621,), "s": ()}

    def test_matches_the_per_tensor_reference_bit_for_bit(self):
        assert sum(math.prod(s) for s in self.SHAPES.values()) > 3 * ADAM_CHUNK
        rng = np.random.default_rng(21)
        init = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        ref = {name: arr.copy() for name, arr in init.items()}
        params = stack(init)
        ref_state, state = oracle.AdamState(ref), AdamState(params)
        cfg = TrainConfig(lr=3e-3)
        clipped = 0
        for step in range(60):
            # float32 gradients whose global norm straddles max_norm
            scale = 10.0 ** rng.uniform(-4, -1)
            grads = {name: (rng.normal(size=shape) * scale).astype(np.float32)
                     for name, shape in self.SHAPES.items()}
            ref_grads, ref_norm = oracle.clip_gradients(grads, 5.0)
            flat_grads, norm = clip_gradients(stack(grads), 5.0)
            assert norm == ref_norm, step
            clipped += norm > 5.0
            oracle.adam_step(ref, ref_grads, ref_state, cfg.lr)
            adam_step(params, flat_grads, state, cfg)
            for name in self.SHAPES:
                assert np.array_equal(flat_grads[name], ref_grads[name]), (step, name)
                assert np.array_equal(params[name], ref[name]), (step, name)
                assert np.array_equal(state.m[name], ref_state.m[name]), (step, name)
                assert np.array_equal(state.v[name], ref_state.v[name]), (step, name)
        assert 0 < clipped < 60
        assert state.t == ref_state.t == 60

    def test_gradients_laid_out_otherwise_are_refused(self):
        params = stack({"a": np.zeros(2), "b": np.zeros(3)})
        state = AdamState(params)
        with pytest.raises(ShapeError):
            adam_step(params, stack({"b": np.ones(3), "a": np.ones(2)}), state, TrainConfig())
        assert state.t == 0 and not params.flat.any()


class TestUpdateCalls:
    """What the benchmark's update clock assumes of ``train``: it opens an
    update at the batch or loss call and closes it at the first adam_step."""

    def test_one_loss_clip_and_adam_call_per_update(self, monkeypatch):
        import qckt.training as tr

        ds = tiny_dataset(students=12)
        events, snapshots = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def adam_wrapper(params, grads, state, cfg):
            events.append("adam")
            before = (params.flat.copy(), state.m.flat.copy(), state.v.flat.copy(), state.t)
            result = tr_adam_step(params, grads, state, cfg)
            after = (params.flat.copy(), state.m.flat.copy(), state.v.flat.copy(), state.t)
            snapshots.append((before, after))
            return result

        tr_adam_step = tr.adam_step
        monkeypatch.setattr(tr, "batch_loss_and_grads", counted("loss", tr.batch_loss_and_grads))
        monkeypatch.setattr(tr, "clip_gradients", counted("clip", tr.clip_gradients))
        monkeypatch.setattr(tr, "adam_step", adam_wrapper)
        tcfg = TrainConfig(lr=1e-2, batch_size=4, max_epochs=2, patience=2, seed=1)
        report = train(ModelConfig(12, 5, 4), tcfg, ds.sequences[:8], ds.sequences[8:])

        assert report.total_updates == 4
        assert events == ["loss", "clip", "adam"] * report.total_updates
        # each call moves the parameters and both moments and advances t by
        # one; nothing changes them between two calls
        for before, after in snapshots:
            assert after[3] == before[3] + 1
            assert all(not np.array_equal(a, b) for a, b in zip(before[:3], after[:3]))
        for (_, after), (before, _) in zip(snapshots, snapshots[1:]):
            assert all(np.array_equal(a, b) for a, b in zip(after[:3], before[:3]))
        # the kept copy is the parameters after the best epoch's last update
        best = snapshots[2 * report.best_epoch - 1][1][0]
        assert np.array_equal(report.best_params.flat, best)


class TestEarlyStopping:
    def test_scripted_trace_stops_at_best_plus_patience(self):
        # AUC 0.6, then 0.7 forever: best epoch 2, last trained epoch 12
        stopper = EarlyStopping(patience=10)
        trace = [0.6] + [0.7] * 30
        ran = 0
        for epoch, value in enumerate(trace, start=1):
            ran = epoch
            if not stopper.update(epoch, value):
                break
        assert stopper.best_epoch == 2
        assert ran == 12

    def test_equal_value_is_not_improvement(self):
        stopper = EarlyStopping(patience=2)
        assert stopper.update(1, 0.8)
        assert stopper.update(2, 0.8)
        assert not stopper.update(3, 0.8)
        assert stopper.best_epoch == 1

    def test_improvement_resets_window(self):
        stopper = EarlyStopping(patience=3)
        values = [0.5, 0.6, 0.55, 0.65, 0.6, 0.6, 0.6]
        survived = [stopper.update(e, v) for e, v in enumerate(values, start=1)]
        assert stopper.best_epoch == 4
        assert survived == [True, True, True, True, True, True, False]


def tiny_dataset(students=30, questions=12, kcs=5, seed=11):
    cfg = SynthConfig(
        students=students,
        questions=questions,
        kcs=kcs,
        seq_len=(6, 12),
        seed=seed,
    )
    ds, _ = gen_synthetic(cfg)
    return preprocess(ds)


class TestTrain:
    def setup_method(self):
        self.ds = tiny_dataset()
        self.train_seqs = self.ds.sequences[:22]
        self.valid_seqs = self.ds.sequences[22:]
        self.mcfg = ModelConfig(n_questions=12, n_kcs=5, dim=4, lambda_aux=1.0)

    def test_report_bookkeeping(self):
        tcfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=4, seed=3)
        report = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        assert report.epochs_run == 4
        assert len(report.train_losses) == 4
        assert len(report.valid_aucs) == 4
        assert report.best_epoch == int(np.argmax(report.valid_aucs)) + 1
        assert_allclose(report.best_valid_auc, max(report.valid_aucs))
        assert report.best_params.config == self.mcfg
        assert report.total_updates == 4 * 3  # ceil(22 / 8) batches per epoch

    def test_best_params_are_those_of_the_best_epoch(self, monkeypatch):
        # scripted validation AUCs: epoch 2 is the best, and epoch 4 only
        # ties it, so the parameters kept are those trained for 2 epochs
        import qckt.training as tr

        scripted = iter([0.5, 0.5, 0.7, 0.5, 0.7, 0.6, 0.7])
        monkeypatch.setattr(tr, "auc", lambda ps: next(scripted))
        one, two, four = (
            train(self.mcfg, TrainConfig(lr=1e-2, batch_size=8, max_epochs=E, seed=3),
                  self.train_seqs, self.valid_seqs)
            for E in (1, 2, 4)
        )
        assert (two.best_epoch, four.best_epoch) == (2, 2)
        assert four.valid_aucs == [0.5, 0.7, 0.6, 0.7]
        assert any(not np.array_equal(one.best_params[k], v) for k, v in two.best_params.items())
        for name, arr in two.best_params.items():
            assert np.array_equal(four.best_params[name], arr), name

    def test_lr_zero_is_bit_identical_to_init(self):
        tcfg = TrainConfig(lr=0.0, batch_size=8, max_epochs=3, seed=5)
        report = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        init = Parameters.init(self.mcfg, seed=(5, 0, 0))
        for name, arr in init.items():
            assert np.array_equal(report.best_params[name], arr), name

    def test_deterministic_given_seed(self):
        tcfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=3, seed=9)
        r1 = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        r2 = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        assert r1.train_losses == r2.train_losses
        assert r1.valid_aucs == r2.valid_aucs
        for name, arr in r1.best_params.items():
            assert np.array_equal(arr, r2.best_params[name])

    def test_fold_changes_the_run(self):
        tcfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=2, seed=9)
        r0 = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        r1 = train(self.mcfg, replace_fold(tcfg, 1), self.train_seqs, self.valid_seqs)
        assert r0.train_losses != r1.train_losses

    def test_early_stop_arithmetic_in_real_run(self):
        tcfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=40, patience=3, seed=1)
        report = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        if report.stop_reason == "early_stop":
            assert report.epochs_run == report.best_epoch + 3
        else:
            assert report.epochs_run == 40

    def test_loss_nonincreasing_first_10_steps_small_lr(self):
        # fixed batch, lr 1e-4: each Adam step must not increase the loss
        params = Parameters.init(self.mcfg, seed=(2, 0, 0))
        batch = Batch(self.train_seqs[:10])
        cfg = TrainConfig(lr=1e-4)
        state = AdamState(params)
        losses = []
        for _ in range(10):
            loss, grads = batch_loss_and_grads(params, batch)
            losses.append(loss)
            adam_step(params, grads, state, cfg)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_non_finite_validation_prediction_is_divergence(self):
        # one update at lr 1e308 leaves finite float64 parameters near 1e308,
        # past float32's range, so the validation forward at the training
        # dtype yields nan; no later update sees the loss
        tcfg = TrainConfig(lr=1e308, batch_size=64, max_epochs=1, seed=3)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="diverged.*validation"):
            train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)

    def test_max_updates_cap(self):
        tcfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=100, seed=4, max_updates=5)
        report = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs)
        assert report.stop_reason == "max_updates"
        assert report.total_updates == 5


class TestScoringPrecision:
    """Fold scoring records at TRAIN_DTYPE; batch_predictions defaults to
    float64, the reference export is checked against."""

    def setup_method(self):
        ds = tiny_dataset()
        self.train_seqs = ds.sequences[:16]
        self.valid_seqs = ds.sequences[16:22]
        self.test_seqs = ds.sequences[22:]
        self.mcfg = ModelConfig(n_questions=12, n_kcs=5, dim=4)

    def test_dtypes(self):
        params = Parameters.init(self.mcfg, seed=(1, 0, 0))
        preds, labels = predictions_over(params, self.test_seqs, 4)
        assert preds.dtype == TRAIN_DTYPE and labels.dtype == np.float64
        ref, _ = batch_predictions(params, Batch(self.test_seqs[:4]))
        assert ref.dtype == np.float64
        np.testing.assert_array_equal(preds[: ref.size], batch_predictions(
            params, Batch(self.test_seqs[:4]), TRAIN_DTYPE)[0])

    def test_fold_auc_is_within_1e6_of_float64(self):
        tcfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=4, seed=3)
        params = train(self.mcfg, tcfg, self.train_seqs, self.valid_seqs).best_params
        test_auc, _ = fold_metrics(params, self.test_seqs, 4)
        preds, labels = zip(*(batch_predictions(params, Batch(self.test_seqs[i : i + 4]))
                              for i in range(0, len(self.test_seqs), 4)))
        reference = auc(PredictionSet(np.concatenate(preds), np.concatenate(labels)))
        assert abs(test_auc - reference) <= 1e-6, (test_auc, reference)


def replace_fold(cfg, fold):
    from dataclasses import replace

    return replace(cfg, fold=fold)


class TestRunCv:
    def setup_method(self):
        self.ds = tiny_dataset(students=24, seed=21)
        self.mcfg = ModelConfig(n_questions=12, n_kcs=5, dim=4)
        self.tcfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=2, seed=13)

    def test_fold_metrics_and_aggregates(self):
        cv = run_cv(self.ds, self.mcfg, self.tcfg, k=3)
        assert [f.fold for f in cv.folds] == [0, 1, 2]
        aucs = [f.test_auc for f in cv.folds]
        assert_allclose(cv.mean_auc, np.mean(aucs))
        assert_allclose(cv.std_auc, np.std(aucs))
        assert all(0.0 <= a <= 1.0 for a in aucs)
        rows = cv.rows()
        assert rows[-2]["fold"] == "mean" and rows[-1]["fold"] == "std"

    def test_deterministic(self):
        a = run_cv(self.ds, self.mcfg, self.tcfg, k=2)
        b = run_cv(self.ds, self.mcfg, self.tcfg, k=2)
        assert a.mean_auc == b.mean_auc
        assert a.mean_acc == b.mean_acc

    def test_parallel_jobs_match_serial(self):
        serial = run_cv(self.ds, self.mcfg, self.tcfg, k=2, jobs=1)
        parallel = run_cv(self.ds, self.mcfg, self.tcfg, k=2, jobs=2)
        assert serial.mean_auc == parallel.mean_auc
        assert [f.test_auc for f in serial.folds] == [f.test_auc for f in parallel.folds]

    def test_jobs_start_at_most_one_worker_per_fold(self, monkeypatch):
        import qckt.training as tr

        started = []

        class RecordingPool:
            # records the pool size it is asked for and starts no process
            def __init__(self, max_workers, initializer, initargs):
                assert initializer is share_lanes and initargs == (max_workers,)
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, argss):
                return map(fn, argss)

        monkeypatch.setattr(tr, "ProcessPoolExecutor", RecordingPool)
        pooled = run_cv(self.ds, self.mcfg, self.tcfg, k=2, jobs=10000)
        assert started == [2]
        assert tr._map_jobs(str, [7], 10000) == ["7"]
        assert started == [2]  # one task runs in this process
        serial = run_cv(self.ds, self.mcfg, self.tcfg, k=2)
        assert [f.test_auc for f in pooled.folds] == [f.test_auc for f in serial.folds]
        for jobs in (0, -3):
            with pytest.raises(ConfigError):
                run_cv(self.ds, self.mcfg, self.tcfg, k=2, jobs=jobs)

    def test_workers_make_their_own_lanes_after_the_parent_used_its_own(self, tmp_path):
        # a lane pool made before a fork has no threads in the child: each
        # worker makes its own, with its share of the CPUs, and returns the
        # parent's values bit for bit.  A fresh process under a timeout, so a
        # deadlock fails the test instead of hanging the suite
        parent, workers, cpus = run_python(f"""
import json, os, time
from concurrent.futures import ThreadPoolExecutor
import numpy as np
import qckt.autodiff as ad
import qckt.training as tr

ad.RELU_POOL_BLOCK_BYTES = 3 * 40 * 8  # 7 blocks of 3 rows
rng = np.random.default_rng(3)
values = [rng.normal(size=s) for s in ((19, 6), (6, 40), (19,), (19,))]
g = rng.normal(size=40)

def job(i):
    if i:  # a worker's task waits until the other worker holds one too
        open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
        while len(os.listdir({str(tmp_path)!r})) < 2:
            time.sleep(0.01)
    tape = ad.Tape()
    out = tape.relu_pool(*map(tape.leaf, values))
    return os.getpid(), ad._lane_pool()[0], [a.tolist() for a in (out.value, *out._backward(g))]

ad._lanes = (os.getpid(), 2, ThreadPoolExecutor(1))  # two lanes, whatever the host
print(json.dumps([job(0), tr._map_jobs(job, [1, 2], 2), len(os.sched_getaffinity(0))]))
""", timeout=120)
        assert parent[1] == 2
        assert len({parent[0]} | {pid for pid, _, _ in workers}) == 3
        assert [lanes for _, lanes, _ in workers] == [max(1, cpus // 2)] * 2
        assert all(values == parent[2] for _, _, values in workers)


class TestGridSearch:
    def setup_method(self):
        self.ds = tiny_dataset(students=20, seed=33)
        self.mcfg = ModelConfig(n_questions=12, n_kcs=5, dim=4)
        self.tcfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=1, seed=2)

    def test_default_grid_has_30_cells(self, monkeypatch):
        import qckt.training as tr

        seen = []

        def fake_cell(args):
            lam, lr, dim = args[4]
            seen.append((lam, lr, dim))
            return {"lambda": lam, "lr": lr, "d": dim, "valid_auc": 0.5}

        monkeypatch.setattr(tr, "_run_cell", fake_cell)
        result = tr.grid_search(self.ds, self.mcfg, self.tcfg)
        assert len(result.table) == 30
        assert len(set(seen)) == 30
        assert len(DEFAULT_LAMBDA_GRID) * len(DEFAULT_LR_GRID) * len(DEFAULT_DIM_GRID) == 30

    def test_tie_break_prefers_small_d_large_lambda_large_lr(self, monkeypatch):
        import qckt.training as tr

        def fake_cell(args):
            lam, lr, dim = args[4]
            return {"lambda": lam, "lr": lr, "d": dim, "valid_auc": 0.5}

        monkeypatch.setattr(tr, "_run_cell", fake_cell)
        result = tr.grid_search(self.ds, self.mcfg, self.tcfg)
        assert result.best == {"lambda": 2.0, "lr": 1e-3, "d": 64, "valid_auc": 0.5}

    def test_small_real_grid_trains_and_picks_max(self):
        result = grid_search(
            self.ds, self.mcfg, self.tcfg, lambdas=[0.0, 1.0], lrs=[1e-2], dims=[4]
        )
        assert len(result.table) == 2
        best_auc = max(r["valid_auc"] for r in result.table)
        assert result.best["valid_auc"] == best_auc

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            grid_search(self.ds, self.mcfg, self.tcfg, lambdas=[], lrs=[1e-3], dims=[4])


class TestRunAblation:
    def test_all_variants_share_folds(self):
        ds = tiny_dataset(students=20, seed=42)
        mcfg = ModelConfig(n_questions=12, n_kcs=5, dim=4)
        tcfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=1, seed=6)
        report = run_ablation(ds, mcfg, tcfg, k=2)
        assert list(report) == list(VARIANTS)
        for cv in report.values():
            assert len(cv.folds) == 2
