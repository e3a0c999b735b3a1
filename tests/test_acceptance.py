"""Acceptance suite: one test per release criterion, each ending in a single
printed pass line with the measured quantities.

Scale notes for the slow criteria live next to the code that sets them.  The
synthetic-recovery dataset uses five KCs per question: the oracle's advantage
over any history-based predictor is the student-ability term, whose scale is
1/sqrt(K_q) under KC-mean pooling, so K_q = 5 keeps most of the rankable
signal (difficulty plus practice drift) learnable while N(0,1) abilities stay
individually unobservable.  With K_q in {1,2,3} a Bayes-optimal filter given
the true generator already sits more than 0.05 AUC below the oracle, which no
trained model can beat.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import qckt.model as qm
from _support import grad_check, make_seq, random_params, seq_of
from oracle import auc_bruteforce, oracle_predictions
from qckt.autodiff import Tape, sigmoid
from qckt.cli import main as cli_main
from qckt.data import (
    Dataset,
    Interaction,
    StudentSequence,
    SynthConfig,
    gen_synthetic,
    kfold_split,
    preprocess,
)
from qckt.evaluation import PredictionSet, accuracy, auc, paired_t_test
from qckt.model import Batch, ModelConfig, VARIANTS, batch_loss_and_grads, build_graph
from qckt.training import (
    DEFAULT_DIM_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_LR_GRID,
    AdamState,
    EarlyStopping,
    TrainConfig,
    adam_step,
    clip_gradients,
    run_cv,
)


def synth_seqs(students, seed, **kw):
    cfg = SynthConfig(students=students, questions=50, kcs=10, seed=seed, **kw)
    ds, _ = gen_synthetic(cfg)
    return preprocess(ds)


@pytest.fixture(scope="module")
def recovery_data():
    """Shared corpus for the synthetic-recovery and ablation criteria."""
    cfg = SynthConfig(
        students=2000,
        questions=200,
        kcs=20,
        gamma=0.05,
        kcs_per_question=(5, 5),
        seq_len=(10, 50),
        seed=11,
    )
    ds, oracle = gen_synthetic(cfg)
    return preprocess(ds), oracle


def test_criterion_1_gradient_fidelity():
    # every parameter gradient on a random d=4, n=6, m=3, lambda=1 model and
    # a length-5 sequence matches central differences to 1e-4 in < 10 s
    cfg = ModelConfig(n_questions=6, n_kcs=3, dim=4, lambda_aux=1.0)
    params = random_params(cfg, seed=1234)
    rng = np.random.default_rng(99)
    seq = seq_of(
        (int(rng.integers(6)), tuple(rng.choice(3, size=2, replace=False)), int(rng.integers(2)))
        for _ in range(5)
    )
    batch = Batch([seq])

    started = time.perf_counter()
    report = grad_check(
        lambda tape, nodes: build_graph(tape, nodes, batch, cfg).loss,
        params.blocks,
        h=1e-5,
        tol=1e-4,
    )
    elapsed = time.perf_counter() - started
    assert report.passed, report
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    print(f"[criterion 1] PASS - worst rel err {report.worst():.2e} over "
          f"{len(report.max_rel_err)} tensors in {elapsed:.1f}s")


def test_criterion_2_architectural_fidelity():
    # the fusion layer owns zero trainable parameters: only the learned-fusion
    # ablation has tensors beyond those of the three score modules
    full = qm.param_shapes(ModelConfig(n_questions=3, n_kcs=2, dim=2))
    for variant in VARIANTS:
        cfg = ModelConfig(n_questions=3, n_kcs=2, dim=2, variant=variant)
        extra = [s for k, s in qm.param_shapes(cfg).items() if k not in full]
        expected = 4 if variant == "no_irt" else 0
        assert sum(int(np.prod(s)) for s in extra) == expected

    # the fusion build_graph records is r_hat = sigmoid(alpha + beta + zeta),
    # bit-exactly, on 1000 random triples (20 sequences x 50 predictions)
    cfg = ModelConfig(n_questions=12, n_kcs=4, dim=4)
    params = random_params(cfg, seed=77, scale=1.0)
    rng = np.random.default_rng(77)
    tape = Tape()
    graph = build_graph(
        tape, params.leaves(tape), Batch([make_seq(rng, 51, 12, 4) for _ in range(20)]), cfg
    )
    a, b, z = graph.alpha.value, graph.beta.value, graph.zeta.value
    assert len(set(zip(a, b, z))) == 1000
    np.testing.assert_array_equal(graph.r_hat.value, sigmoid(a + b + z))

    # the full shape table, written out independently for two size points
    for d, n, m in ((2, 3, 2), (64, 100, 20)):
        expected = {"Q": (n, d), "K": (m, d)}
        expected.update({f"W_{i}": (d, 4 * d) for i in range(1, 5)})
        expected.update({f"W_{i}": (d, 2 * d) for i in range(5, 9)})
        expected.update({f"U_{i}": (d, d) for i in range(1, 9)})
        expected.update({f"b_{i}": (d,) for i in range(1, 9)})
        expected.update(
            {
                "W_a1": (d, d), "b_a1": (d,), "W_a2": (n, d), "b_a2": (n,), "w_a": (n,),
                "W_g1": (d, d), "b_g1": (d,), "W_g2": (m, d), "b_g2": (m,), "w_g": (m,),
                "W_p1": (3 * d, 3 * d), "b_p1": (3 * d,),
                "W_p2": (3 * d, 3 * d), "b_p2": (3 * d,),
                "w_p": (3 * d,), "b_p": (),
            }
        )
        cfg = ModelConfig(n_questions=n, n_kcs=m, dim=d)
        assert qm.param_shapes(cfg) == expected
    print("[criterion 2] PASS - 0 fusion params, 1000 bit-exact triples, "
          "shape tables match at (2,3,2) and (64,100,20)")


def test_criterion_3_overfit_sanity():
    # 10 sequences, d=16, lr=1e-3, lambda=0: loss < 0.1 within 2000 updates
    ds = synth_seqs(students=10, seed=7)
    cfg = ModelConfig(n_questions=50, n_kcs=10, dim=16, lambda_aux=0.0)
    params = qm.Parameters.init(cfg, seed=(0, 0, 0))
    tcfg = TrainConfig(lr=1e-3)
    state = AdamState(params)
    batch = Batch(ds.sequences)

    started = time.perf_counter()
    loss = np.inf
    updates = 0
    while updates < 2000 and loss >= 0.1:
        loss, grads = batch_loss_and_grads(params, batch)
        grads, _ = clip_gradients(grads, tcfg.grad_clip)
        adam_step(params, grads, state, tcfg)
        updates += 1
    elapsed = time.perf_counter() - started
    assert loss < 0.1, f"loss {loss:.4f} after {updates} updates"
    assert elapsed < 120.0, f"overfit took {elapsed:.1f}s"
    print(f"[criterion 3] PASS - loss {loss:.4f} after {updates} updates in {elapsed:.1f}s")


def test_criterion_4_synthetic_oracle_recovery(recovery_data):
    ds, oracle = recovery_data
    started = time.perf_counter()

    folds = kfold_split(ds, k=5, seed=0)
    oracle_aucs = []
    for train_idx, valid_idx, test_idx in folds:
        probs, labels = oracle_predictions([ds.sequences[i] for i in test_idx], oracle)
        oracle_aucs.append(auc(PredictionSet(probs, labels)))
    oracle_mean = float(np.mean(oracle_aucs))

    mcfg = ModelConfig(n_questions=ds.n_questions, n_kcs=ds.n_kcs, dim=16, lambda_aux=1.0)
    tcfg = TrainConfig(lr=3e-3, batch_size=64, max_epochs=15, patience=5, seed=0)
    cv = run_cv(ds, mcfg, tcfg, k=5)
    elapsed = time.perf_counter() - started

    assert cv.mean_auc >= 0.65, f"mean auc {cv.mean_auc:.4f} < 0.65"
    assert cv.mean_auc >= oracle_mean - 0.05, (
        f"mean auc {cv.mean_auc:.4f} more than 0.05 below oracle {oracle_mean:.4f}"
    )
    assert elapsed < 900.0, f"recovery run took {elapsed:.0f}s"
    print(f"[criterion 4] PASS - trained {cv.mean_auc:.4f} vs oracle {oracle_mean:.4f} "
          f"(gap {oracle_mean - cv.mean_auc:.4f}) in {elapsed:.0f}s")


def test_criterion_5_ablation_direction(recovery_data):
    ds, _ = recovery_data
    started = time.perf_counter()
    base_m = ModelConfig(n_questions=ds.n_questions, n_kcs=ds.n_kcs, dim=16, lambda_aux=1.0)
    base_t = TrainConfig(lr=3e-3, batch_size=64, max_epochs=8, patience=4)

    wins = 0
    detail = []
    for seed in range(5):
        tcfg = replace(base_t, seed=seed)
        means = {}
        for variant in ("full", "no_ks_ps"):
            cv = run_cv(ds, replace(base_m, variant=variant), tcfg, k=2)
            means[variant] = cv.mean_auc
        wins += means["full"] >= means["no_ks_ps"]
        detail.append(f"seed {seed}: {means['full']:.4f} vs {means['no_ks_ps']:.4f}")
    assert wins >= 4, "full beat no_ks_ps only " + f"{wins}/5 times: " + "; ".join(detail)

    # the ablated model is exactly next-question-invariant: identical history,
    # any candidate next question, bit-identical prediction
    cfg = ModelConfig(n_questions=12, n_kcs=4, dim=6, variant="no_ks_ps")
    params = random_params(cfg, seed=5)
    rng = np.random.default_rng(8)
    history = [
        (int(rng.integers(12)), (int(rng.integers(4)),), int(rng.integers(2)))
        for _ in range(6)
    ]
    r_hats = set()
    for candidate in range(12):
        seq = seq_of(history + [(candidate, (0,), 1)])
        preds, _ = qm.batch_predictions(params, Batch([seq]))
        r_hats.add(float(preds[-1]))
    assert len(r_hats) == 1, f"{len(r_hats)} distinct predictions across candidates"
    elapsed = time.perf_counter() - started
    print(f"[criterion 5] PASS - direction {wins}/5 seeds; exact invariance over 12 "
          f"candidates; {elapsed:.0f}s ({'; '.join(detail)})")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(2024)

    # rank AUC vs brute force on 1000 instances, ties included
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 51))
        if i % 2:
            preds = rng.integers(0, 5, size=n) / 4.0  # heavy ties
        else:
            preds = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ps = PredictionSet(preds, labels.astype(np.float64))
        worst = max(worst, abs(auc(ps) - auc_bruteforce(ps)))
    assert worst < 1e-12, f"auc mismatch {worst:.2e}"

    # accuracy vs a literal hand count on 100 instances
    for _ in range(100):
        n = int(rng.integers(1, 40))
        preds = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        hand = sum(1 for p, y in zip(preds, labels) if (p >= 0.5) == bool(y)) / n
        assert accuracy(PredictionSet(preds, labels)) == pytest.approx(hand, abs=0)

    # paired t-test vs the scipy reference on 50 difference vectors
    worst_p = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.3, size=n)
        ref = scipy.stats.ttest_rel(a, b).pvalue
        worst_p = max(worst_p, abs(paired_t_test(a, b) - ref))
    assert worst_p < 1e-6, f"t-test mismatch {worst_p:.2e}"
    print(f"[criterion 6] PASS - auc max|diff| {worst:.1e}, 100 exact accuracy counts, "
          f"t-test max|diff| {worst_p:.1e}")


def test_criterion_7_protocol_conformance(monkeypatch):
    # scripted early stopping: best at epoch 2, patience 10, stop after 12
    stopper = EarlyStopping(patience=10)
    trace = [0.6] + [0.7] * 28
    ran = 0
    for epoch, value in enumerate(trace, start=1):
        ran = epoch
        if not stopper.update(epoch, value):
            break
    assert (stopper.best_epoch, ran) == (2, 12)

    # preprocessing bounds: nothing shorter than 3, nothing longer than 200
    def seq(sid, length):
        return StudentSequence(sid, [Interaction(0, (0,), 1, t) for t in range(length)])

    raw = Dataset([seq(f"s{i}", n) for i, n in enumerate([1, 2, 3, 450, 200, 201])], 1, 1, {0: (0,)})
    out = preprocess(raw)
    lengths = sorted(len(s) for s in out.sequences)
    assert min(lengths) >= 3 and max(lengths) <= 200
    assert sorted(len(s) for s in out.sequences if s.student_id == "s3") == [50, 200, 200]
    assert [len(s) for s in out.sequences if s.student_id == "s5"] == [200]

    # the default tuning grid enumerates exactly 5 x 3 x 2 = 30 cells
    import qckt.training as tr

    cells = []
    monkeypatch.setattr(
        tr, "_run_cell",
        lambda args: cells.append(args[4]) or {"lambda": args[4][0], "lr": args[4][1],
                                               "d": args[4][2], "valid_auc": 0.5},
    )
    ds = synth_seqs(students=12, seed=3, seq_len=(4, 8))
    tr.grid_search(ds, ModelConfig(n_questions=50, n_kcs=10, dim=4), TrainConfig(lr=1e-3))
    assert len(cells) == len(set(cells)) == 30
    assert len(DEFAULT_LAMBDA_GRID) * len(DEFAULT_LR_GRID) * len(DEFAULT_DIM_GRID) == 30
    print("[criterion 7] PASS - early stop at best+10, length bounds [3,200] with "
          "450 -> 200/200/50, grid = 30 unique cells")


def test_criterion_8_reproducibility(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        data = root / "data"
        run = root / "run"
        ev = root / "eval"
        assert cli_main(["synth", "--students", "16", "--questions", "8", "--kcs", "4",
                         "--seq-len", "6,10", "--seed", "5", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data / "dataset.csv"), "--fold", "0",
                         "--d", "4", "--max-epochs", "3", "--batch-size", "16",
                         "--k", "2", "--seed", "5", "--out", str(run)]) == 0
        assert cli_main(["eval", "--data", str(data / "dataset.csv"),
                         "--run", str(run), "--out", str(ev)]) == 0
        outputs.append({
            "dataset": (data / "dataset.csv").read_bytes(),
            "oracle": (data / "oracle.csv").read_bytes(),
            "checkpoint": (run / "checkpoint.bin").read_bytes(),
            "epochs": (run / "epochs.csv").read_bytes(),
            "train_report": (run / "report.csv").read_bytes(),
            "eval_report": (ev / "report.csv").read_bytes(),
        })
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    print("[criterion 8] PASS - synth/train/eval artifacts bit-identical across reruns")
