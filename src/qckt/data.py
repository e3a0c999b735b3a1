"""Interaction-log ingestion, preprocessing, fold construction, and a
synthetic generator with known ground-truth probabilities.

The one ingestion format is a UTF-8 CSV with header
``student_id,question_id,kc_ids,response,timestamp`` where kc_ids joins KC
labels with underscores (a repeated label counts once).  Question and KC
labels are remapped to dense 0-based ids at load time; the label tables ride
along on the Dataset so files can be written back losslessly.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .autodiff import sigmoid
from .errors import ConfigError, DataError, DomainError, ParseError

HEADER = "student_id,question_id,kc_ids,response,timestamp"


@dataclass(frozen=True)
class Interaction:
    question: int
    kcs: tuple
    response: int
    timestamp: int

    def __post_init__(self):
        if not self.kcs:
            raise DataError("question without KCs")
        if self.response not in (0, 1):
            raise DomainError(f"response must be 0 or 1, got {self.response!r}")


@dataclass
class StudentSequence:
    student_id: str
    interactions: list

    def __len__(self):
        return len(self.interactions)


@dataclass
class Dataset:
    sequences: list
    n_questions: int
    n_kcs: int
    qmatrix: dict
    question_labels: list = field(default_factory=list)
    kc_labels: list = field(default_factory=list)

    def students(self):
        """Distinct student ids in first-appearance order."""
        seen = {}
        for seq in self.sequences:
            seen.setdefault(seq.student_id, None)
        return list(seen)

    @property
    def n_interactions(self):
        return sum(len(s) for s in self.sequences)


def load_dataset(path):
    """Parse an interaction log; ids become dense 0-based ranges."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise ParseError(f"{path} is empty")
    if lines[0].strip() != HEADER:
        raise ParseError(f"bad header {lines[0]!r}, expected {HEADER!r}", line=1)

    qmap, kmap = {}, {}
    qmatrix = {}
    by_student = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if raw.strip() == HEADER:
            raise ParseError("duplicate header", line=lineno)
        parts = raw.split(",")
        if len(parts) != 5:
            raise ParseError(f"expected 5 fields, got {len(parts)}", line=lineno)
        sid, qlabel, kc_field, resp_s, ts_s = (p.strip() for p in parts)
        if not sid or not qlabel:
            raise ParseError("empty student or question id", line=lineno)
        if not kc_field:
            raise DataError(f"question without KCs at line {lineno}")
        if resp_s not in ("0", "1"):
            raise ParseError(f"response must be 0 or 1, got {resp_s!r}", line=lineno)
        try:
            ts = int(ts_s)
        except ValueError:
            raise ParseError(f"bad timestamp {ts_s!r}", line=lineno)

        q = qmap.setdefault(qlabel, len(qmap))
        # a label repeated within a row counts once, so KC sets compare as sets
        kcs = tuple(sorted({kmap.setdefault(k, len(kmap)) for k in kc_field.split("_")}))
        if q in qmatrix:
            if qmatrix[q] != kcs:
                raise DataError(
                    f"question {qlabel!r} has conflicting KC sets at line {lineno}"
                )
        else:
            qmatrix[q] = kcs
        by_student.setdefault(sid, []).append(Interaction(q, kcs, int(resp_s), ts))

    sequences = []
    for sid, items in by_student.items():
        items.sort(key=lambda it: it.timestamp)
        sequences.append(StudentSequence(sid, items))
    q_labels = list(qmap)
    k_labels = list(kmap)
    return Dataset(sequences, len(q_labels), len(k_labels), qmatrix, q_labels, k_labels)


@contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Write to a temporary file renamed over ``path`` when the block ends;
    on failure it is removed and an earlier ``path`` stays as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_dataset(ds, path):
    """Inverse of :func:`load_dataset` up to row grouping by student."""
    q_labels = ds.question_labels or [f"q{i}" for i in range(ds.n_questions)]
    k_labels = ds.kc_labels or [f"k{i}" for i in range(ds.n_kcs)]
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        for seq in ds.sequences:
            for it in seq.interactions:
                kc_field = "_".join(k_labels[k] for k in it.kcs)
                fh.write(
                    f"{seq.student_id},{q_labels[it.question]},{kc_field},"
                    f"{it.response},{it.timestamp}\n"
                )


def preprocess(ds, min_len=3, max_len=200):
    """Drop sequences shorter than min_len, chunk longer than max_len.

    Chunks keep their student id so fold assignment can keep one student on
    one side; a trailing chunk survives only if it reaches min_len.
    """
    if min_len < 2:
        raise ConfigError(f"min_len must be >= 2, got {min_len}")
    if max_len < min_len:
        raise ConfigError(f"max_len {max_len} < min_len {min_len}")
    out = []
    for seq in ds.sequences:
        items = seq.interactions
        if len(items) < min_len:
            continue
        for start in range(0, len(items), max_len):
            chunk = items[start : start + max_len]
            if len(chunk) >= min_len:
                out.append(StudentSequence(seq.student_id, list(chunk)))
    return Dataset(out, ds.n_questions, ds.n_kcs, ds.qmatrix, ds.question_labels, ds.kc_labels)


def kfold_split(ds, k=5, seed=0):
    """Student-level folds: k disjoint test shards, remainder split 3:1 into
    train/valid.  Returns per-fold (train, valid, test) sequence-index lists."""
    students = ds.students()
    if len(students) < k:
        raise ConfigError(f"need at least k={k} students, got {len(students)}")
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    by_student = {}
    for idx, seq in enumerate(ds.sequences):
        by_student.setdefault(seq.student_id, []).append(idx)

    rng = np.random.default_rng([seed, 0xF01D])
    order = [students[i] for i in rng.permutation(len(students))]
    shards = np.array_split(np.arange(len(order)), k)

    folds = []
    for fold_i, shard in enumerate(shards):
        test_students = {order[i] for i in shard}
        rest = [s for s in order if s not in test_students]
        fold_rng = np.random.default_rng([seed, 0x5117, fold_i])
        rest = [rest[i] for i in fold_rng.permutation(len(rest))]
        n_valid = max(1, len(rest) // 4)
        valid_students = set(rest[:n_valid])

        train, valid, test = [], [], []
        for sid in students:
            target = (
                test if sid in test_students else valid if sid in valid_students else train
            )
            target.extend(by_student[sid])
        folds.append((sorted(train), sorted(valid), sorted(test)))
    return folds


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the ability/difficulty response generator."""

    students: int = 100
    questions: int = 50
    kcs: int = 10
    kcs_per_question: tuple = (1, 3)
    gamma: float = 0.05
    seq_len: tuple = (10, 50)
    seed: int = 0

    def __post_init__(self):
        if min(self.students, self.questions, self.kcs) < 1:
            raise ConfigError("students, questions and kcs must all be >= 1")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        lo, hi = self.kcs_per_question
        if not (1 <= lo <= hi <= self.kcs):
            raise ConfigError(f"bad kcs_per_question range {self.kcs_per_question}")
        lo, hi = self.seq_len
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad seq_len range {self.seq_len}")


def response_prob(abilities, difficulty):
    """True correctness probability: logistic of mean ability minus difficulty."""
    return float(sigmoid(np.mean(abilities) - difficulty))


def gen_synthetic(cfg):
    """Simulate students under a 1-parameter-per-question response model.

    Per-student per-KC abilities and per-question difficulties are standard
    normal; each attempt bumps the attempted KCs' abilities by gamma.
    Returns the dataset plus the true probability of every interaction keyed
    by (student_id, timestamp), which survives chunking.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = rng.normal(size=(cfg.students, cfg.kcs))
    difficulty = rng.normal(size=cfg.questions)
    lo, hi = cfg.kcs_per_question
    q_kcs = {}
    for q in range(cfg.questions):
        size = int(rng.integers(lo, hi + 1))
        q_kcs[q] = tuple(sorted(int(k) for k in rng.choice(cfg.kcs, size=size, replace=False)))

    len_lo, len_hi = cfg.seq_len
    sequences = []
    oracle = {}
    for s in range(cfg.students):
        sid = f"s{s}"
        length = int(rng.integers(len_lo, len_hi + 1))
        items = []
        for t in range(length):
            q = int(rng.integers(cfg.questions))
            kcs = q_kcs[q]
            p = response_prob(theta[s, list(kcs)], difficulty[q])
            r = int(rng.random() < p)
            items.append(Interaction(q, kcs, r, t))
            oracle[(sid, t)] = p
            theta[s, list(kcs)] += cfg.gamma
        sequences.append(StudentSequence(sid, items))

    ds = Dataset(
        sequences,
        cfg.questions,
        cfg.kcs,
        dict(q_kcs),
        [f"q{i}" for i in range(cfg.questions)],
        [f"k{i}" for i in range(cfg.kcs)],
    )
    return ds, oracle

