"""Mini-batch Adam training with early stopping, plus the cross-validation,
grid-search, and ablation drivers.

Randomness is organized as one stream per purpose: parameter init draws from
(seed, fold, 0) and the epoch-e shuffle from (seed, fold, e), so folds can
run in parallel (and even in separate processes) without sharing state while
staying bit-reproducible.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import share_lanes
from .data import kfold_split
from .errors import ConfigError, DataError, ShapeError, TrainingError
from .errors import require_finite_nonnegative, require_ints
from .evaluation import PredictionSet, accuracy, auc
from .model import Batch, ModelConfig, Parameters, TRAIN_DTYPE, VARIANTS, batch_loss_and_grads
from .model import batch_predictions, param_count

# hyper-parameter grids used when nothing narrower is requested
DEFAULT_LAMBDA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)
DEFAULT_LR_GRID = (1e-3, 1e-4, 1e-5)
DEFAULT_DIM_GRID = (64, 256)
# grid cells are scored on fold 0 of this many folds
GRID_K = 5


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    fold: int = 0
    grad_clip: float = 5.0  # global norm; 0 disables
    max_updates: int = 0  # 0 means unlimited

    def __post_init__(self):
        # lr = 0 is allowed so the no-op update path stays exercisable
        require_finite_nonnegative("lr", self.lr)
        require_finite_nonnegative("grad_clip", self.grad_clip)
        require_ints("counts", 1, batch_size=self.batch_size, max_epochs=self.max_epochs,
                     patience=self.patience)
        require_ints("seeds and limits", 0, seed=self.seed, fold=self.fold,
                     max_updates=self.max_updates)


# adam_step works through the vectors in chunks of this many entries, so its
# scratch (one float64 and one gradient-dtype buffer, 384 KB at float32
# gradients) stays in cache however large the model; 2^15 timed best among
# 2^13..2^17 at the 487k parameters of d = 64, n = 2000
ADAM_CHUNK = 1 << 15


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    ``m`` and ``v`` are zero :class:`FlatTensors` laid out as ``params`` (a
    :class:`Parameters`), so each is one vector."""

    def __init__(self, params):
        self.m = params.like(np.zeros_like(params.flat))
        self.v = params.like(np.zeros_like(params.flat))
        self.t = 0


def clip_gradients(grads, max_norm):
    """Scale all gradients together so the global norm is at most max_norm;
    ``grads`` is a :class:`FlatTensors`, and so is the result.

    The squares are summed in float64: summed at float32, any entry past
    about 1.8e19 would make the norm inf and the scale zero, silently
    dropping the update instead of clipping it.  einsum sums them in numpy's
    own loop, where ``np.dot`` would call BLAS, whose sum changes its bits
    with the BLAS thread count."""
    g = grads.flat
    total = math.sqrt(np.einsum("i,i->", g, g, dtype=np.float64))
    if max_norm and total > max_norm:
        return grads.like(g * (max_norm / total)), total
    return grads, total


def adam_step(params, grads, state, cfg):
    """One bias-corrected Adam update at cfg.lr, in place on the parameter
    vector, with the usual constants beta1 = 0.9, beta2 = 0.999, eps = 1e-8.

    ``params`` (a :class:`Parameters`), ``grads`` and the moments in
    ``state`` are :class:`FlatTensors` of one layout, so the update is a few
    passes over whole vectors, chunk by chunk (:data:`ADAM_CHUNK`) into
    scratch buffers.  The bias corrections are folded into the step size and
    epsilon, as in section 2 of Kingma & Ba: ``p -= lr_t * (m / (sqrt(v) +
    eps_t))`` with ``lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_t = eps * sqrt(1 - beta2^t)``.

    Every gradient is checked before anything changes: a non-finite one
    raises TrainingError naming its parameter and leaves the parameters and
    ``state`` as they were."""
    if grads.spans is not params.spans and grads.spans != params.spans:
        raise ShapeError("the gradients are not laid out as the parameters")
    g = grads.flat
    finite = np.isfinite(g)
    if not finite.all():
        raise TrainingError(f"non-finite gradient for parameter {grads.name_at(finite.argmin())}")
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    root_c2 = math.sqrt(1.0 - b2**state.t)
    lr_t = cfg.lr * root_c2 / (1.0 - b1**state.t)
    eps_t = eps * root_c2
    size = min(len(g), ADAM_CHUNK)
    g_buf, step_buf = np.empty(size, g.dtype), np.empty(size)
    for lo in range(0, len(g), ADAM_CHUNK):
        k = slice(lo, lo + ADAM_CHUNK)
        gk, m, v, p = g[k], state.m.flat[k], state.v.flat[k], params.flat[k]
        s, step = g_buf[: len(gk)], step_buf[: len(gk)]
        m *= b1
        m += np.multiply(gk, 1.0 - b1, out=s)
        v *= b2
        np.multiply(gk, gk, out=s)
        s *= 1.0 - b2
        v += s
        np.sqrt(v, out=step)
        step += eps_t
        np.divide(m, step, out=step)
        step *= lr_t
        p -= step
    return params, state


class EarlyStopping:
    """Strict-improvement patience rule on a maximized metric.

    ``update`` returns False once the last improvement is ``patience`` epochs
    old; with patience 10, a best at epoch 2 stops training after epoch 12.
    """

    def __init__(self, patience):
        self.patience = patience
        self.best_value = -np.inf
        self.best_epoch = 0

    def update(self, epoch, value):
        if value > self.best_value:
            self.best_value = value
            self.best_epoch = epoch
        return epoch - self.best_epoch < self.patience


@dataclass
class TrainReport:
    best_epoch: int
    epochs_run: int
    total_updates: int
    stop_reason: str
    train_losses: list
    valid_aucs: list
    best_valid_auc: float
    best_params: Parameters = field(repr=False, default=None)

    def epoch_rows(self):
        return [
            {"epoch": e + 1, "train_loss": tl, "valid_auc": va}
            for e, (tl, va) in enumerate(zip(self.train_losses, self.valid_aucs))
        ]


def _epoch_batches(seqs, order, size):
    for i in range(0, len(order), size):
        yield Batch([seqs[j] for j in order[i : i + size]])


def predictions_over(params, seqs, batch_size):
    """Flat predictions/labels over sequences in their given order, each
    batch step-major over its sequences (see :func:`batch_predictions`),
    the predictions recorded at :data:`TRAIN_DTYPE`, as the model trains."""
    parts = [batch_predictions(params, Batch(seqs[i : i + batch_size]), TRAIN_DTYPE)
             for i in range(0, len(seqs), batch_size)]
    return np.concatenate([p for p, _ in parts]), np.concatenate([t for _, t in parts])


def fold_metrics(params, test_seqs, batch_size):
    """(AUC, accuracy) on a test fold, scored by :func:`predictions_over` in
    batches of the run's ``batch_size``; ``run_fold`` and ``qckt eval`` both
    score through this, so eval reproduces train's report exactly."""
    ps = PredictionSet(*predictions_over(params, test_seqs, batch_size))
    return auc(ps), accuracy(ps)


def train(model_cfg, train_cfg, train_seqs, valid_seqs):
    """Adam-train one model; keeps the best-validation-AUC parameter copy.

    A non-finite loss, or a non-finite prediction on the validation set,
    raises TrainingError ("diverged"); the parameters that gave it are not
    kept.  A model too large to allocate raises MemoryError naming its
    parameter count."""
    if not train_seqs or not valid_seqs:
        raise DataError("train and valid sets must be non-empty")
    try:
        params = Parameters.init(model_cfg, seed=(train_cfg.seed, train_cfg.fold, 0))
        state = AdamState(params)
    except MemoryError as exc:
        raise MemoryError(
            f"not enough memory for a model of {param_count(model_cfg):,} parameters "
            f"(d = {model_cfg.dim}): {exc}"
        ) from exc
    stopper = EarlyStopping(train_cfg.patience)

    train_losses, valid_aucs = [], []
    updates = 0
    stop_reason = "max_epochs"
    for epoch in range(1, train_cfg.max_epochs + 1):
        rng = np.random.default_rng((train_cfg.seed, train_cfg.fold, epoch))
        order = rng.permutation(len(train_seqs))
        loss_sum = 0.0
        weight_sum = 0.0
        for batch in _epoch_batches(train_seqs, order, train_cfg.batch_size):
            loss, grads = batch_loss_and_grads(params, batch)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"diverged: non-finite loss at epoch {epoch}, update {updates + 1}"
                )
            grads, _ = clip_gradients(grads, train_cfg.grad_clip)
            adam_step(params, grads, state, train_cfg)
            updates += 1
            loss_sum += loss * batch.n_preds
            weight_sum += batch.n_preds
            if train_cfg.max_updates and updates >= train_cfg.max_updates:
                stop_reason = "max_updates"
                break

        train_losses.append(loss_sum / weight_sum)
        preds, labels = predictions_over(params, valid_seqs, train_cfg.batch_size)
        if not np.all(np.isfinite(preds)):
            raise TrainingError(f"diverged: non-finite validation prediction at epoch {epoch}")
        epoch_auc = auc(PredictionSet(preds, labels))
        valid_aucs.append(epoch_auc)
        keep_going = stopper.update(epoch, epoch_auc)
        # epoch 1 always improves on -inf (an AUC is finite or raised above),
        # so best_params is set before the loop can end
        if stopper.best_epoch == epoch:
            best_params = params.copy()
        if stop_reason == "max_updates":
            break
        if not keep_going:
            stop_reason = "early_stop"
            break

    return TrainReport(
        best_epoch=stopper.best_epoch,
        epochs_run=len(train_losses),
        total_updates=updates,
        stop_reason=stop_reason,
        train_losses=train_losses,
        valid_aucs=valid_aucs,
        best_valid_auc=float(stopper.best_value),
        best_params=best_params,
    )


@dataclass
class FoldResult:
    fold: int
    test_auc: float
    test_acc: float
    report: TrainReport

    def row(self):
        return {"fold": self.fold, "auc": self.test_auc, "acc": self.test_acc,
                "best_epoch": self.report.best_epoch}


def mean_std(values):
    """(mean, population std) of per-fold metrics, as mean+/-std tables show."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass
class CvReport:
    folds: list
    mean_auc: float
    std_auc: float
    mean_acc: float
    std_acc: float

    @classmethod
    def from_folds(cls, folds):
        mean_auc, std_auc = mean_std([f.test_auc for f in folds])
        mean_acc, std_acc = mean_std([f.test_acc for f in folds])
        return cls(folds, mean_auc, std_auc, mean_acc, std_acc)

    def rows(self):
        out = [f.row() for f in self.folds]
        out.append({"fold": "mean", "auc": self.mean_auc, "acc": self.mean_acc, "best_epoch": ""})
        out.append({"fold": "std", "auc": self.std_auc, "acc": self.std_acc, "best_epoch": ""})
        return out


def run_fold(ds, model_cfg, train_cfg, fold_i, fold_idx):
    """Train on one fold's (train, valid, test) index split; test metrics."""
    train_idx, valid_idx, test_idx = fold_idx
    seqs = ds.sequences
    report = train(
        model_cfg,
        replace(train_cfg, fold=fold_i),
        [seqs[i] for i in train_idx],
        [seqs[i] for i in valid_idx],
    )
    test_auc, test_acc = fold_metrics(
        report.best_params, [seqs[i] for i in test_idx], train_cfg.batch_size
    )
    return FoldResult(fold_i, test_auc, test_acc, report)


def _run_fold(args):
    return run_fold(*args)


def _map_jobs(fn, argss, jobs):
    """fn over argss in order, on up to ``jobs`` worker processes but never
    more than there are tasks; the workers split the CPUs' tape lanes
    between them (:func:`autodiff.share_lanes`)."""
    require_ints("jobs", 1, jobs=jobs)
    workers = min(jobs, len(argss))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=share_lanes, initargs=(workers,)) as pool:
            return list(pool.map(fn, argss))
    return [fn(a) for a in argss]


def run_cv(ds, model_cfg, train_cfg, k=5, jobs=1):
    """k training runs over student-level folds; test metrics per fold."""
    folds = kfold_split(ds, k=k, seed=train_cfg.seed)
    argss = [(ds, model_cfg, train_cfg, i, folds[i]) for i in range(k)]
    return CvReport.from_folds(_map_jobs(_run_fold, argss, jobs))


def _cell_configs(model_cfg, train_cfg, lam, lr, dim):
    return replace(model_cfg, lambda_aux=lam, dim=dim), replace(train_cfg, lr=lr, fold=0)


def _run_cell(args):
    ds, model_cfg, train_cfg, fold_idx, (lam, lr, dim) = args
    cfg, tcfg = _cell_configs(model_cfg, train_cfg, lam, lr, dim)
    seqs = ds.sequences
    train_idx, valid_idx, _ = fold_idx
    report = train(cfg, tcfg, [seqs[i] for i in train_idx], [seqs[i] for i in valid_idx])
    return {"lambda": lam, "lr": lr, "d": dim, "valid_auc": report.best_valid_auc}


@dataclass
class GridResult:
    best: dict
    table: list


def grid_cells(model_cfg, train_cfg, lambdas=None, lrs=None, dims=None):
    """Every (lambda, lr, d) cell of the tuning grid, default axes where
    None; raises ConfigError for an empty axis or a cell whose model or
    training config is invalid, before anything trains."""
    lambdas = DEFAULT_LAMBDA_GRID if lambdas is None else tuple(lambdas)
    lrs = DEFAULT_LR_GRID if lrs is None else tuple(lrs)
    dims = DEFAULT_DIM_GRID if dims is None else tuple(dims)
    if not (lambdas and lrs and dims):
        raise ConfigError("grid axes must be non-empty")
    cells = [(lam, lr, dim) for lam in lambdas for lr in lrs for dim in dims]
    for cell in cells:
        _cell_configs(model_cfg, train_cfg, *cell)
    return cells


def grid_search(ds, model_cfg, train_cfg, lambdas=None, lrs=None, dims=None, jobs=1):
    """Evaluate every (lambda, lr, d) cell by validation AUC on fold 0 of
    :data:`GRID_K`.

    Ties break toward smaller d, then larger lambda, then larger lr.
    """
    cells = grid_cells(model_cfg, train_cfg, lambdas, lrs, dims)
    fold0 = kfold_split(ds, k=GRID_K, seed=train_cfg.seed)[0]
    argss = [(ds, model_cfg, train_cfg, fold0, cell) for cell in cells]
    table = _map_jobs(_run_cell, argss, jobs)
    best = max(table, key=lambda r: (r["valid_auc"], -r["d"], r["lambda"], r["lr"]))
    return GridResult(best=best, table=table)


def run_ablation(ds, model_cfg, train_cfg, k=5, variants=VARIANTS, jobs=1):
    """run_cv once per variant with shared folds, seeds, and sizes;
    returns variant -> :class:`CvReport` in the order of ``variants``."""
    per_variant = {}
    for variant in variants:
        cfg = replace(model_cfg, variant=variant)
        per_variant[variant] = run_cv(ds, cfg, train_cfg, k=k, jobs=jobs)
    return per_variant
