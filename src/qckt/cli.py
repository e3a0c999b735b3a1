"""Command-line entry point: synth / train / eval / export / ablate.

Every run resolves its flags up front (a --config key=value file supplies
defaults, explicit flags win), validates before touching the output
directory, and finishes by writing a manifest recording the command, the
resolved configuration, input digests, and output names.  All randomness
flows from --seed.  eval and export take the folds, the preprocessing and the
label tables from each run's manifest, find its checkpoints in the manifest's
outputs, and refuse data whose digest it does not record.  train records each
fold's test students in the manifest, so eval parses only their rows.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import lane_count
from .data import (
    SynthConfig,
    atomic_write,
    gen_synthetic,
    kfold_split,
    parse_log,
    preprocess,
    save_dataset,
)
from .errors import ConfigError, DataError, TrainingError
from .evaluation import export_knowledge_states, export_module_outputs, pairwise_t_matrix
from .model import TRAIN_DTYPE, ModelConfig, Parameters, VARIANTS, sequence_outputs
from .training import (
    GRID_K,
    TrainConfig,
    fold_metrics,
    grid_cells,
    grid_search,
    mean_std,
    run_ablation,
    run_cv,
    run_fold,
)

DATASET_CSV = "dataset.csv"
ORACLE_CSV = "oracle.csv"
CHECKPOINT = "checkpoint.bin"
EPOCHS_CSV = "epochs.csv"
REPORT_CSV = "report.csv"
MANIFEST = "manifest.json"
PMATRIX_CSV = "pmatrix.csv"
STEPS_CSV = "steps.csv"
STATES_CSV = "states.csv"


def fold_checkpoint(i):
    return f"checkpoint_fold{i}.bin"


def _read_data(path):
    """The bytes of the file at ``path`` and their SHA-256, so that a
    manifest records the digest of the very bytes a command parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, hashlib.sha256(raw).hexdigest()


def _write_csv(path, fieldnames, rows):
    """A CSV of ``rows``, dicts keyed by ``fieldnames``."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _write_rows(path, header, rows):
    """A CSV of ``rows``, lists in the order of ``header``."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_fold_tables(out, key, per_fold):
    """report.csv (each entry's fold rows, then their mean and std) and, for
    two or more entries, pmatrix.csv (paired t-test p-values of fold AUCs);
    for one entry, a pmatrix.csv already in ``out`` is removed.

    ``per_fold`` maps each entry, named in column ``key``, to its
    {"fold", "auc", "acc"} rows; returns the names of the files written.
    """
    rows = []
    for name, folds in per_fold.items():
        mean_auc, std_auc = mean_std([r["auc"] for r in folds])
        mean_acc, std_acc = mean_std([r["acc"] for r in folds])
        rows += [{key: name, **r} for r in folds]
        rows.append({key: name, "fold": "mean", "auc": mean_auc, "acc": mean_acc})
        rows.append({key: name, "fold": "std", "auc": std_auc, "acc": std_acc})
    _write_csv(out / REPORT_CSV, [key, "fold", "auc", "acc"], rows)
    if len(per_fold) < 2:
        # a matrix an earlier command left in ``out`` belongs to neither
        # this report nor its manifest
        (out / PMATRIX_CSV).unlink(missing_ok=True)
        return [REPORT_CSV]
    names = list(per_fold)
    _, matrix = pairwise_t_matrix({n: [r["auc"] for r in per_fold[n]] for n in names})
    mrows = [{key: n, **dict(zip(names, mrow))} for n, mrow in zip(names, matrix)]
    _write_csv(out / PMATRIX_CSV, [key] + names, mrows)
    return [REPORT_CSV, PMATRIX_CSV]


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@cache
def _blas_thread_getter():
    """The thread-count getter of numpy's bundled OpenBLAS, found once per
    process; None where that library or the getter is not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        with suppress(OSError, AttributeError):
            return ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
    return None


def _environment():
    """The numeric environment a run's figures depend on: Python, numpy and
    its BLAS, the thread-count variables (None where unset), the thread count
    BLAS runs at, the CPUs, the lanes a tape runs relu_pool's row blocks on
    and the dtype training runs at."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):  # the layout of numpy's build report varies
        blas = {"name": None, "version": None}
    blas_threads = _blas_thread_getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "tape_lanes": lane_count(),
        "blas_threads": None if blas_threads is None else blas_threads(),
        "train_dtype": np.dtype(TRAIN_DTYPE).name,
    }


def _write_manifest(out, command, args, inputs, outputs, started, extra=None):
    """manifest.json of a command; ``inputs`` maps each input file to the
    SHA-256 the command took of it."""
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")
    }
    doc = {
        "version": __version__,
        "command": command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): digest for p, digest in inputs.items()},
        "outputs": sorted(outputs),
        "duration_s": round(time.perf_counter() - started, 3),
        "environment": _environment(),
    }
    if extra:
        doc.update(extra)
    with atomic_write(Path(out) / MANIFEST, encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_manifest(run_dir):
    path = Path(run_dir) / MANIFEST
    if not path.exists():
        raise DataError(f"no {MANIFEST} in run directory {run_dir}")
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise DataError(f"malformed {path}: {exc}") from exc


@dataclass(frozen=True)
class _Run:
    """What eval and export read of a run directory, all from its manifest."""

    dir: str
    digests: frozenset  # SHA-256 of each file the run was trained on
    batch_size: int
    min_len: int
    max_len: int
    label_tables: tuple  # (question labels, KC labels) in index order
    students: int  # after preprocessing
    test_students: tuple  # a frozenset of student ids per fold
    checkpoints: list  # (fold, path), lowest fold first

    def require_trained_on(self, digest, data):
        if digest not in self.digests:
            raise DataError(f"{data} is not the data run {self.dir} was trained on (SHA-256 differs)")

    def load(self, path):
        """The checkpoint at ``path``, whose sizes must be those of the
        run's label tables."""
        params = Parameters.load(path)
        sizes = tuple(map(len, self.label_tables))
        if sizes != (params.config.n_questions, params.config.n_kcs):
            raise DataError(
                f"{MANIFEST} of run {self.dir} records {sizes[0]} questions and {sizes[1]} KCs, "
                f"{path} has {params.config.n_questions} and {params.config.n_kcs}"
            )
        return params


def _read_run(run_dir):
    """All eval and export read of a run, taken from its manifest: the run's
    input digests, batch size and preprocessing, its label tables, student
    count and the test students of each of its k folds, and (fold, path) of
    each checkpoint the manifest's outputs list, lowest fold first.
    checkpoint.bin is the model of ``config.fold`` and checkpoint_fold<i>.bin
    that of fold i; files it does not list, such as an earlier run's in a
    reused directory, are ignored.  Refuses a k, batch size, preprocessing,
    fold or dataset block the run cannot have used, and a manifest without a
    dataset block or without the test students in it."""
    manifest = _read_manifest(run_dir)
    try:
        digests = frozenset(manifest["inputs"].values())
        cfg, outputs = manifest["config"], manifest["outputs"]
        min_len, max_len, k = int(cfg["min_len"]), int(cfg["max_len"]), int(cfg["k"])
        batch_size = int(cfg["batch_size"])
        if not isinstance(outputs, list):
            raise TypeError(f"outputs is a {type(outputs).__name__}, not a list")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"incomplete {MANIFEST} in run directory {run_dir}: {exc!r}") from exc
    if "dataset" not in manifest:
        raise DataError(
            f"{MANIFEST} of run {run_dir} has no dataset block: "
            "it was written by an earlier version of qckt; retrain the run"
        )
    label_tables, students, record = _dataset_block(manifest["dataset"], run_dir)
    if batch_size < 1:
        raise DataError(f"{MANIFEST} of run {run_dir}: batch_size = {batch_size} is not >= 1")
    if not 2 <= min_len <= max_len:
        raise DataError(f"{MANIFEST} of run {run_dir}: min_len {min_len}, max_len {max_len}")
    if not 2 <= k <= students:
        raise DataError(f"{MANIFEST} of run {run_dir}: k = {k} is not in [2, {students}]")
    folds = {fold_checkpoint(i): i for i in range(k)}
    if CHECKPOINT in outputs:
        fold = cfg.get("fold", 0)  # train records the --fold flag as text
        if str(fold) not in map(str, range(k)):
            raise DataError(f"{MANIFEST} of run {run_dir}: fold {fold!r} is not in [0, {k})")
        folds[CHECKPOINT] = int(fold)
    checkpoints = sorted((i, Path(run_dir) / name) for name, i in folds.items() if name in outputs)
    if not checkpoints:
        raise DataError(f"{MANIFEST} of run {run_dir} lists no checkpoint")
    test_students = _test_students(record, k, students, run_dir)
    return _Run(str(run_dir), digests, batch_size, min_len, max_len,
                label_tables, students, test_students, checkpoints)


def _dataset_block(block, run_dir):
    """The label tables, the student count and the test students record
    ``train`` wrote in a manifest's dataset block."""
    try:
        label_tables = (block["question_labels"], block["kc_labels"])
        students = block["students"]
    except (KeyError, TypeError) as exc:  # a missing key, or not an object
        raise DataError(f"malformed dataset block in {MANIFEST} of run {run_dir}: {exc!r}") from exc
    for labels in label_tables:
        if not (isinstance(labels, list) and all(type(x) is str for x in labels)
                and len(set(labels)) == len(labels)):
            raise DataError(f"{MANIFEST} of run {run_dir}: labels are not a list of distinct strings")
    if type(students) is not int:
        raise DataError(f"{MANIFEST} of run {run_dir}: students = {students!r} is not an integer")
    if "test_students" not in block:
        raise DataError(
            f"{MANIFEST} of run {run_dir} records no test_students: "
            "it was written by an earlier version of qckt; retrain the run"
        )
    return label_tables, students, block["test_students"]


def _test_students(record, k, students, run_dir):
    """The test_students record as a frozenset per fold: ``k`` non-empty
    lists of ids that name ``students`` distinct students in all."""
    if not (isinstance(record, list) and len(record) == k
            and all(isinstance(ids, list) and ids and all(type(x) is str for x in ids)
                    for ids in record)):
        raise DataError(
            f"{MANIFEST} of run {run_dir}: test_students is not {k} non-empty lists of student ids"
        )
    folds = tuple(map(frozenset, record))
    if sum(map(len, record)) != students or len(frozenset().union(*folds)) != students:
        raise DataError(
            f"{MANIFEST} of run {run_dir}: test_students does not name {students} distinct students"
        )
    return folds


def _dataset_record(ds, folds):
    """The dataset block of a training run's manifest: what eval and export
    need of the parse, so that they read only the rows they score: the label
    tables, the student count and each fold's test students in order of
    first appearance."""
    return {
        "question_labels": ds.question_labels,
        "kc_labels": ds.kc_labels,
        "students": len(ds.students()),
        "test_students": [
            list(dict.fromkeys(ds.sequences[i].student_id for i in test)) for _, _, test in folds
        ],
    }


def _int_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi - got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _list_of(kind):
    """argparse type: one or more comma-separated ``kind`` values."""
    def parse(text):
        try:
            values = [kind(p) for p in text.split(",") if p != ""]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__}s: {text!r}")
        return values
    return parse


def _load_dataset(args):
    """The preprocessed dataset of --data and the digest of its bytes."""
    raw, digest = _read_data(args.data)
    return preprocess(parse_log(raw, args.data), min_len=args.min_len, max_len=args.max_len), digest


@contextmanager
def _output_dir(path):
    """The directory ``path``, made if need be.  If the block raises, a
    directory made here and still empty is removed again."""
    out = Path(path)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if made:
            with suppress(OSError):  # not empty
                out.rmdir()
        raise


def _model_config(args, ds):
    return ModelConfig(
        n_questions=ds.n_questions,
        n_kcs=ds.n_kcs,
        dim=args.dim,
        lambda_aux=args.lambda_aux,
        variant=args.variant,
    )


def _train_config(args):
    return TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        grad_clip=0.0 if args.no_clip else TrainConfig.grad_clip,
    )


# -- subcommands -------------------------------------------------------------


def cmd_synth(args):
    cfg = SynthConfig(
        students=args.students,
        questions=args.questions,
        kcs=args.kcs,
        kcs_per_question=args.kcs_per_question,
        gamma=args.gamma,
        seq_len=args.seq_len,
        seed=args.seed,
    )
    started = time.perf_counter()
    with _output_dir(args.out) as out:
        ds, oracle = gen_synthetic(cfg)
        rows = [
            {"student_id": sid, "timestamp": ts, "prob": repr(p)}
            for (sid, ts), p in sorted(oracle.items())
        ]
        # the old manifest goes only with a failed data write, so that a
        # rerun with the same flags whose manifest write alone fails leaves
        # the directory as it was
        try:
            save_dataset(ds, out / DATASET_CSV)
            _write_csv(out / ORACLE_CSV, ["student_id", "timestamp", "prob"], rows)
        except BaseException:
            _drop_manifest(out)
            raise
        _write_manifest(out, "synth", args, {}, [DATASET_CSV, ORACLE_CSV], started)
    print(f"wrote {len(ds.sequences)} sequences, {ds.n_interactions} interactions to {out}")


def _drop_manifest(out):
    """Remove a manifest an earlier command left in ``out``, before the
    first artifact of this one is written: a command that fails part-way
    then leaves no old record beside its new outputs, and eval and export
    refuse a training run's directory that has no manifest."""
    (out / MANIFEST).unlink(missing_ok=True)


def cmd_train(args):
    started = time.perf_counter()
    fold_i = None
    if not args.grid and args.fold != "all":
        try:
            fold_i = int(args.fold)
        except ValueError:
            raise ConfigError(f"--fold must be an integer or 'all', got {args.fold!r}")
        if not (0 <= fold_i < args.k):
            raise ConfigError(f"--fold must be in [0, {args.k}) or 'all', got {fold_i}")
    ds, digest = _load_dataset(args)
    mcfg = _model_config(args, ds)
    tcfg = _train_config(args)
    if args.grid:
        grid_cells(mcfg, tcfg, args.grid_lambdas, args.grid_lrs, args.grid_dims)
    # an invalid --k, or too few students for the grid's folds, raises here,
    # before --out exists
    folds = kfold_split(ds, k=GRID_K if args.grid else args.k, seed=args.seed)
    # made before training, so that an unwritable --out fails first
    with _output_dir(args.out) as out:
        outputs = [REPORT_CSV]
        extra = {"dataset": _dataset_record(ds, folds)}

        if args.grid:
            result = grid_search(ds, mcfg, tcfg, lambdas=args.grid_lambdas, lrs=args.grid_lrs,
                                 dims=args.grid_dims, jobs=args.jobs)
            _drop_manifest(out)
            _write_csv(out / REPORT_CSV, ["lambda", "lr", "d", "valid_auc"], result.table)
            extra["best"] = result.best
            print("best cell: lambda={lambda} lr={lr} d={d} valid_auc={valid_auc:.4f}".format(**result.best))
        elif args.fold == "all":
            cv = run_cv(ds, mcfg, tcfg, k=args.k, jobs=args.jobs)
            _drop_manifest(out)
            epoch_rows = []
            for fold in cv.folds:
                fold.report.best_params.save(out / fold_checkpoint(fold.fold))
                outputs.append(fold_checkpoint(fold.fold))
                for row in fold.report.epoch_rows():
                    epoch_rows.append({"fold": fold.fold, **row})
            _write_csv(out / EPOCHS_CSV, ["fold", "epoch", "train_loss", "valid_auc"], epoch_rows)
            _write_csv(out / REPORT_CSV, ["fold", "auc", "acc", "best_epoch"], cv.rows())
            outputs.append(EPOCHS_CSV)
            print(f"cv mean auc {cv.mean_auc:.4f} +/- {cv.std_auc:.4f} over {args.k} folds")
        else:
            fold = run_fold(ds, mcfg, tcfg, fold_i, folds[fold_i])
            _drop_manifest(out)
            fold.report.best_params.save(out / CHECKPOINT)
            _write_csv(out / EPOCHS_CSV, ["epoch", "train_loss", "valid_auc"], fold.report.epoch_rows())
            _write_csv(out / REPORT_CSV, ["fold", "auc", "acc", "best_epoch"], [fold.row()])
            outputs += [CHECKPOINT, EPOCHS_CSV]
            print(f"fold {fold_i}: test auc {fold.test_auc:.4f} acc {fold.test_acc:.4f}")

        _write_manifest(out, "train", args, {args.data: digest}, outputs, started, extra)


def _run_fold_metrics(run_dir, raw, digest, data, whole_log):
    """Per-fold (auc, acc) of every checkpoint a run's manifest lists, scored
    as ``run_fold`` scored it: on the test students the manifest records for
    its fold, at the run's batch size.  A run that scores some folds has
    only their students' rows of ``raw`` parsed, with its label tables.  A
    run that scores every fold takes ``whole_log()``, the parse of the whole
    log, and its label tables must equal those of that parse."""
    run = _read_run(run_dir)
    run.require_trained_on(digest, data)
    tested = [run.test_students[fold_i] for fold_i, _ in run.checkpoints]
    wanted = frozenset().union(*tested)
    mismatch = DataError(f"the dataset block of {MANIFEST} of run {run_dir} does not match {data}")
    if len(wanted) == run.students:
        ds = preprocess(whole_log(), min_len=run.min_len, max_len=run.max_len)
        if (ds.question_labels, ds.kc_labels) != run.label_tables:
            raise mismatch
    else:
        ds = preprocess(parse_log(raw, data, students=wanted, label_tables=run.label_tables),
                        min_len=run.min_len, max_len=run.max_len)
    if set(ds.students()) != wanted:
        raise mismatch
    rows = []
    for (fold_i, path), fold in zip(run.checkpoints, tested):
        test_seqs = [seq for seq in ds.sequences if seq.student_id in fold]
        test_auc, test_acc = fold_metrics(run.load(path), test_seqs, run.batch_size)
        rows.append({"fold": fold_i, "auc": test_auc, "acc": test_acc})
    return rows


def cmd_eval(args):
    started = time.perf_counter()
    # each run is named by its directory's name, or by its path where an
    # earlier run took that name; no directory may be named twice, by any
    # spelling of its path
    names = []
    for run_dir in args.run:
        name = Path(run_dir).name or str(run_dir)
        names.append(str(run_dir) if name in names else name)
    if len(set(names)) != len(names) or len({Path(d).resolve() for d in args.run}) != len(names):
        raise ConfigError(f"--run names a run twice: {names}")
    with _output_dir(args.out) as out:
        raw, digest = _read_data(args.data)
        whole_log = cache(lambda: parse_log(raw, args.data))  # parsed once for the runs that need it
        per_run = {name: _run_fold_metrics(run_dir, raw, digest, args.data, whole_log)
                   for name, run_dir in zip(names, args.run)}
        counts = {len(rows) for rows in per_run.values()}
        if len(per_run) >= 2 and (len(counts) != 1 or counts == {1}):
            raise DataError("p-value matrix needs the same number of folds (>= 2) in every run")

        for name, rows in per_run.items():
            mean_auc = mean_std([r["auc"] for r in rows])[0]
            mean_acc = mean_std([r["acc"] for r in rows])[0]
            print(f"{name}: auc {mean_auc:.4f} acc {mean_acc:.4f} ({len(rows)} folds)")
        _drop_manifest(out)
        outputs = _write_fold_tables(out, "run", per_run)
        _write_manifest(out, "eval", args, {args.data: digest}, outputs, started)


def cmd_export(args):
    """Per-step module outputs and per-KC mastery for one student.  Only that
    student's rows of --data are parsed, with the run's label tables; the
    digest check vouches for the rest, which train parsed and checked."""
    started = time.perf_counter()
    run = _read_run(args.run)
    n_kcs = len(run.label_tables[1])
    kc_subset = args.kcs if args.kcs is not None else list(range(n_kcs))
    if not all(0 <= k < n_kcs for k in kc_subset):
        raise ConfigError(f"--kcs must name KC ids in [0, {n_kcs}), got {kc_subset}")
    if len(set(kc_subset)) != len(kc_subset):
        raise ConfigError(f"--kcs names a KC id twice: {kc_subset}")
    with _output_dir(args.out) as out:
        raw, digest = _read_data(args.data)
        run.require_trained_on(digest, args.data)
        params = run.load(run.checkpoints[0][1])  # the lowest fold's
        rows = parse_log(raw, args.data, students={args.student}, label_tables=run.label_tables)
        chunks = preprocess(rows, min_len=run.min_len, max_len=run.max_len).sequences
        if bool(chunks) != any(args.student in fold for fold in run.test_students):
            raise DataError(f"the dataset block of {MANIFEST} of run {args.run} does not match {args.data}")
        if not chunks:
            if rows.n_interactions:
                raise DataError(
                    f"student {args.student!r} has {rows.n_interactions} interactions, "
                    f"fewer than the run's min_len {run.min_len}"
                )
            raise DataError(
                f"unknown student id {args.student!r}; dataset has {run.students} students"
            )
        seq = chunks[0]

        outputs = sequence_outputs(params, seq)
        values = (outputs.r_hat.value, outputs.alpha.value, outputs.beta.value, outputs.zeta.value,
                  outputs.mastery)
        if not all(np.isfinite(v).all() for v in values):
            raise TrainingError(
                f"the model of {run.checkpoints[0][1]} diverged: non-finite outputs for student "
                f"{args.student!r}; retrain the run"
            )
        steps = export_module_outputs(params, seq, outputs=outputs)
        states = export_knowledge_states(params, seq, kc_subset, outputs=outputs)

        _drop_manifest(out)
        _write_csv(
            out / STEPS_CSV,
            ["step", "question", "response", "r_hat", "sigma_alpha", "sigma_beta", "sigma_zeta"],
            steps,
        )
        _write_rows(
            out / STATES_CSV,
            ["step"] + [f"kc_{k}" for k in kc_subset],
            ([t, *row] for t, row in enumerate(states.tolist(), start=1)),
        )
        _write_manifest(out, "export", args, {args.data: digest}, [STEPS_CSV, STATES_CSV], started)
    print(f"exported {len(steps)} steps for student {args.student!r} to {out}")


def cmd_ablate(args):
    started = time.perf_counter()
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}, choose from {VARIANTS}")
    if len(set(variants)) != len(variants):
        raise ConfigError(f"--variants names a variant twice: {variants}")
    ds, digest = _load_dataset(args)
    mcfg = _model_config(args, ds)
    tcfg = _train_config(args)
    with _output_dir(args.out) as out:
        cvs = run_ablation(ds, mcfg, tcfg, k=args.k, variants=variants, jobs=args.jobs)
        for variant, cv in cvs.items():
            print(f"{variant}: auc {cv.mean_auc:.4f} +/- {cv.std_auc:.4f}")
        _drop_manifest(out)
        per_variant = {
            v: [{"fold": f.fold, "auc": f.test_auc, "acc": f.test_acc} for f in cv.folds]
            for v, cv in cvs.items()
        }
        outputs = _write_fold_tables(out, "variant", per_variant)
        _write_manifest(out, "ablate", args, {args.data: digest}, outputs, started)


# -- parser ------------------------------------------------------------------


def _add_fit_flags(p):
    """The data, model and training flags of train and ablate."""
    p.add_argument("--data", required=True, help="interaction-log CSV")
    p.add_argument("--min-len", type=int, default=3, help="drop shorter sequences")
    p.add_argument("--max-len", type=int, default=200, help="chunk longer sequences")
    p.add_argument("--d", dest="dim", type=int, default=64, help="hidden/embedding size")
    p.add_argument("--lambda", dest="lambda_aux", type=float, default=1.0,
                   help="auxiliary loss weight")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")
    p.add_argument("--k", type=int, default=5, help="number of folds")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel fold/cell workers (at most one per fold or cell)")


def _synth_flags(p):
    p.add_argument("--students", type=int, default=100)
    p.add_argument("--questions", type=int, default=50)
    p.add_argument("--kcs", type=int, default=10)
    p.add_argument("--kcs-per-question", type=_int_pair, default=(1, 3), metavar="LO,HI")
    p.add_argument("--gamma", type=float, default=0.05, help="per-attempt ability gain")
    p.add_argument("--seq-len", type=_int_pair, default=(10, 50), metavar="LO,HI")
    p.add_argument("--seed", type=int, default=0)


def _train_flags(p):
    _add_fit_flags(p)
    p.add_argument("--fold", default="all", help="fold index or 'all'")
    p.add_argument("--grid", action="store_true", help="run the 30-cell tuning grid")
    p.add_argument("--grid-lambdas", type=_list_of(float), default=None, metavar="0,0.5,1",
                   help="override the lambda axis of --grid")
    p.add_argument("--grid-lrs", type=_list_of(float), default=None, metavar="1e-3,1e-4",
                   help="override the lr axis of --grid")
    p.add_argument("--grid-dims", type=_list_of(int), default=None, metavar="64,256",
                   help="override the d axis of --grid")
    p.add_argument("--seed", type=int, default=0)


def _eval_flags(p):
    p.add_argument("--data", required=True, help="the CSV the runs were trained on")
    p.add_argument("--run", action="append", required=True, help="run directory (repeatable)")


def _export_flags(p):
    p.add_argument("--data", required=True, help="the CSV the run was trained on")
    p.add_argument("--run", required=True, help="run directory with a checkpoint")
    p.add_argument("--student", required=True, help="student id as it appears in the data")
    p.add_argument("--kcs", type=_list_of(int), default=None, metavar="0,1,2",
                   help="KC subset for the state matrix (default: all)")


def _ablate_flags(p):
    _add_fit_flags(p)
    p.add_argument("--variants", default=None, help="comma-separated subset (default: all)")
    p.add_argument("--seed", type=int, default=0)


# name -> (help, adder of the flags before --out and --config); the handler
# is cmd_<name>, looked up when the parser is built, so that one patched into
# the module after import (as a tracer does) is the one run
COMMANDS = {
    "synth": ("generate a synthetic interaction log", _synth_flags),
    "train": ("train one fold, all folds, or the tuning grid", _train_flags),
    "eval": ("evaluate run directories on their test folds", _eval_flags),
    "export": ("per-step module outputs and knowledge states", _export_flags),
    "ablate": ("cross-validate every model variant", _ablate_flags),
}


def build_parser(command=None):
    """The parser of every subcommand, or of ``command``'s alone: an argv
    that names ``command`` parses the same with either."""
    parser = argparse.ArgumentParser(
        prog="qckt",
        description="question-centric knowledge tracing: data, training, evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # the usage line of an error names every command, whichever were added
    every = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_text, add_flags) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.add_argument("--out", required=True)
            p.add_argument("--config", help="key=value defaults file")
            p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


# --config alone, found as a subcommand's parser finds it: also as
# --config=FILE or an abbreviation such as --conf
_CONFIG_FLAG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG_FLAG.add_argument("--config")


def _bare_flags(command):
    """The flags of ``command`` that take no value, such as --no-clip."""
    if command not in COMMANDS:
        return set()
    p = argparse.ArgumentParser(add_help=False)
    COMMANDS[command][1](p)
    return {flag for action in p._actions if action.nargs == 0 for flag in action.option_strings}


def _apply_config_file(argv):
    """Turn --config key=value lines into flags placed before the explicit
    ones, so the file provides defaults and the command line wins.  A flag
    that takes no value is set by ``key = true`` and left out by ``key =
    false``."""
    try:
        path = _CONFIG_FLAG.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        raise ConfigError("--config needs a key=value file") from None
    if path is None:
        return argv
    bare, injected = _bare_flags(argv[0]), []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {ln}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            flag, value = "--" + key.strip().replace("_", "-"), value.strip()
            if flag not in bare:
                injected += [flag, value]
            elif value.lower() == "true":
                injected.append(flag)
            elif value.lower() != "false":
                raise ConfigError(f"{path} line {ln}: {flag} takes no value; "
                                  f"expected true or false, got {value!r}")
    return [argv[0]] + injected + argv[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        # only the parser of the command argv names: --help, --version, no
        # argument and an unknown command get every subcommand's
        command = argv[0] if argv and argv[0] in COMMANDS else None
        try:
            args = build_parser(command).parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        # a diverged model overflows; the finiteness checks refuse it
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
        return 0
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
