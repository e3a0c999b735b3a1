"""Interaction-log ingestion, preprocessing, fold construction, and a
synthetic generator with known ground-truth probabilities.

The one ingestion format is a UTF-8 CSV with header
``student_id,question_id,kc_ids,response,timestamp`` where kc_ids joins KC
labels with underscores (a repeated label counts once, an empty one is an
error).  Question and KC labels are remapped to dense 0-based ids at load
time; the label tables ride along on the Dataset so files can be written back
losslessly.  Each student's interactions are kept as columns (arrays), not as
one object per row.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .autodiff import sigmoid
from .errors import ConfigError, DataError, DomainError, ParseError
from .errors import require_finite_nonnegative, require_ints

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


class StudentSequence:
    """One student's interactions, column by column.

    ``questions``, ``responses`` and ``timestamps`` are int arrays of one
    entry per interaction (int64, or Python ints where a timestamp does not
    fit); ``kcs`` is the list of each interaction's KC tuple.  Sequences of a
    loaded dataset hold views into the loader's arrays and the q-matrix's
    tuples.  ``StudentSequence(student_id, interactions)`` builds the columns
    from rows such as :class:`Interaction`.
    """

    __slots__ = ("student_id", "questions", "kcs", "responses", "timestamps")

    def __init__(self, student_id, interactions):
        rows = list(interactions)
        self.student_id = student_id
        self.questions = np.array([it.question for it in rows], dtype=np.int64)
        self.kcs = [it.kcs for it in rows]
        self.responses = np.array([it.response for it in rows], dtype=np.int64)
        self.timestamps = _int_column([it.timestamp for it in rows])

    @classmethod
    def from_columns(cls, student_id, questions, kcs, responses, timestamps):
        seq = cls.__new__(cls)
        seq.student_id = student_id
        seq.questions, seq.kcs = questions, kcs
        seq.responses, seq.timestamps = responses, timestamps
        return seq

    def chunk(self, start, stop):
        """Interactions start..stop-1 as a sequence of the same student."""
        return StudentSequence.from_columns(
            self.student_id,
            self.questions[start:stop],
            self.kcs[start:stop],
            self.responses[start:stop],
            self.timestamps[start:stop],
        )

    def __len__(self):
        return len(self.questions)

    def __eq__(self, other):
        if not isinstance(other, StudentSequence):
            return NotImplemented
        return (
            self.student_id == other.student_id
            and self.kcs == other.kcs
            and np.array_equal(self.questions, other.questions)
            and np.array_equal(self.responses, other.responses)
            and np.array_equal(self.timestamps, other.timestamps)
        )

    def __repr__(self):
        return f"StudentSequence({self.student_id!r}, {len(self)} interactions)"


def _int_column(values):
    """Python ints as an int64 array, or as an object array if one does not
    fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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


def _check_row(raw, lineno):
    """The checks of one log row in the order they apply, raising for the
    first that fails."""
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
    if "" in kc_field.split("_"):
        raise ParseError(f"empty KC label in {kc_field!r}", line=lineno)
    if resp_s not in ("0", "1"):
        raise ParseError(f"response must be 0 or 1, got {resp_s!r}", line=lineno)
    try:
        int(ts_s)
    except ValueError:
        raise ParseError(f"bad timestamp {ts_s!r}", line=lineno)


def _first_non_int(values):
    for i, v in enumerate(values):
        try:
            int(v)
        except ValueError:
            return i
    return len(values)


BLOCK_ROWS = 1024  # rows parsed at once: bounds the loader's transient field strings


def load_dataset(path):
    """Parse the interaction log at ``path``, as :func:`parse_log` does."""
    with open(path, "rb") as fh:
        return parse_log(fh.read(), path)


def parse_log(raw, source, student=None, label_tables=None):
    """Parse the bytes of an interaction log named ``source`` in messages;
    ids become dense 0-based ranges.

    The log is read column by column, a block of rows at a time: a block's
    rows are split into fields once, each check runs over a whole column,
    and each new (question, KC field) pair is parsed once.  One stable sort
    then orders all rows by student (in order of first appearance) and
    timestamp.  Blank lines are skipped.  A faulty log raises for its first
    faulty row, as :func:`_check_row` reports it, or for the first row whose
    KC set conflicts with its question's first.

    ``student`` keeps only the rows whose student field, stripped as every
    field is, equals it; no other row is parsed or checked.  On a plain log
    (see :func:`_plain_student_rows`) they are found by a byte search, so
    the cost grows with the student's rows, not with the log.
    ``label_tables`` (the question labels and the KC labels, in index order)
    fixes the ids: a row naming any other label raises, and the q-matrix
    holds only the questions of the rows parsed.
    """
    found = None if student is None else _plain_student_rows(raw, student)
    if found is not None:
        end = raw.find(b"\n")
        lines = [(raw if end < 0 else raw[:end]).decode("ascii")] if raw else []
    else:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8 text: {exc}") from exc
        lines = text.splitlines()
    if not lines:
        raise ParseError(f"{source} is empty")
    if lines[0].strip() != HEADER:
        raise ParseError(f"bad header {lines[0]!r}, expected {HEADER!r}", line=1)
    if found is not None:
        rows, starts = found
        # a line number is counted only for the message of a faulty row
        return _parse_rows(rows, lambda i: raw.count(b"\n", 0, starts[i]) + 1, False, label_tables)
    # splitlines cut at every line break, so within a line ASCII text holds
    # no whitespace but these; a log without them needs no stripping
    strip = not text.isascii() or any(c in text for c in " \t\x1f")
    del text
    rows, numbers = lines[1:], range(2, len(lines) + 1)  # each row's line number
    if student is not None:
        keep = [
            i for i, row in enumerate(rows)
            if student in row and _student_field(row, strip) == student
        ]
        rows, numbers = [rows[i] for i in keep], [numbers[i] for i in keep]
    return _parse_rows(rows, numbers.__getitem__, strip, label_tables)


# Besides "\n", the ASCII bytes at which str.splitlines ends a line or that
# str.strip removes from a field
_BREAKS_AND_BLANKS = tuple(bytes([c]) for c in b"\r\x0b\x0c\x1c\x1d\x1e\x1f \t")


def _plain_student_rows(raw, student):
    """The rows of ``student`` in a plain log and the offset in ``raw`` at
    which each begins, or None for any other log.

    A plain log is ASCII without _BREAKS_AND_BLANKS: its lines end at "\n"
    only and no field needs stripping.  So the student's rows are the lines
    after the header that hold its id alone or begin with its id and a
    comma, found with ``bytes.find``; the "\n" before a row's offset number
    its line.  A line that is the id alone is a faulty row, or a blank line
    for an empty id, as on the line path.
    """
    if not raw.isascii() or any(c in raw for c in _BREAKS_AND_BLANKS):
        return None
    if not student.isascii() or "," in student or "\n" in student:
        return [], []  # no student field of an ASCII log holds it
    key = b"\n" + student.encode("ascii")
    rows, starts = [], []
    hit = raw.find(key)
    while hit >= 0:
        end = hit + len(key)
        if raw[end : end + 1] in (b",", b"\n", b""):
            end = raw.find(b"\n", end)
            end = len(raw) if end < 0 else end
            rows.append(raw[hit + 1 : end].decode("ascii"))
            starts.append(hit + 1)
        hit = raw.find(key, end)
    return rows, starts


def _parse_rows(lines, line_of, strip, label_tables):
    """The dataset of the log rows ``lines`` (the header excluded);
    ``line_of(i)`` is the number of row i's line in the log, and ``strip``
    strips every field.  The rest is as :func:`parse_log` says."""
    smap, qmap, kmap, qmatrix = {}, {}, {}, {}
    known_q = known_k = None  # the sizes of fixed label tables
    if label_tables is not None:
        qmap, kmap = ({label: i for i, label in enumerate(t)} for t in label_tables)
        known_q, known_k = len(qmap), len(kmap)
    pair_q = {}  # (question label, KC field) -> question id
    blocks = []  # (student, question, response, timestamp) columns per block
    for lo in range(0, len(lines), BLOCK_ROWS):
        block = lines[lo : lo + BLOCK_ROWS]
        # the columns end at the first row with a wrong field count; each
        # check adds the index of its first failing row
        kept = range(len(block))  # block index of each row
        width_ok = len(block)
        if set(map(str.count, block, repeat(","))) - {4}:
            # blank lines, which are skipped, or a row with a wrong field count
            kept = [i for i, raw in enumerate(block) if raw.strip()]
            width_ok = next((j for j, i in enumerate(kept) if block[i].count(",") != 4), len(kept))
        rows = block if width_ok == len(block) else [block[i] for i in kept[:width_ok]]
        flat = ",".join(rows).split(",") if rows else []
        columns = [flat[i::5] for i in range(5)]
        if strip:
            columns = [list(map(str.strip, c)) for c in columns]
        sids, qlabels, kc_fields, resps, stamps = columns
        faults = [width_ok] + [col.index("") for col in (sids, qlabels) if "" in col]
        labels = {f: f.split("_") for f in dict.fromkeys(kc_fields)}
        bad_fields = {f for f, parts in labels.items() if "" in parts}
        if bad_fields:
            faults.append(next(i for i, f in enumerate(kc_fields) if f in bad_fields))
        if not set(resps) <= {"0", "1"}:
            faults.append(next(i for i, r in enumerate(resps) if r not in ("0", "1")))
        try:
            stamps = list(map(int, stamps))
        except ValueError:
            faults.append(_first_non_int(stamps))

        # a question's first (question, KC field) pair fixes its KC set; a
        # label repeated within a field counts once, so KC sets compare as sets
        pair_fault = None
        for pair in dict.fromkeys(zip(qlabels, kc_fields)):
            qlabel, kc_field = pair
            if pair in pair_q or kc_field in bad_fields:
                continue
            q = qmap.setdefault(qlabel, len(qmap))
            kcs = tuple(sorted({kmap.setdefault(k, len(kmap)) for k in labels[kc_field]}))
            if known_q is not None and (q >= known_q or kcs[-1] >= known_k):
                new = qlabel if q >= known_q else next(k for k in labels[kc_field] if kmap[k] >= known_k)
                pair_fault = f"label {new!r} is not in the label tables"
            elif qmatrix.setdefault(q, kcs) != kcs:
                pair_fault = f"question {qlabel!r} has conflicting KC sets"
            if pair_fault:
                faults.append(next(i for i, p in enumerate(zip(qlabels, kc_fields)) if p == pair))
                break
            pair_q[pair] = q

        fault = min(faults)
        if fault < len(kept):
            lineno = line_of(lo + kept[fault])
            _check_row(block[kept[fault]], lineno)
            raise DataError(f"{pair_fault} at line {lineno}")
        for sid in dict.fromkeys(sids):
            smap.setdefault(sid, len(smap))
        n = len(sids)
        blocks.append((
            np.fromiter(map(smap.__getitem__, sids), np.int64, n),
            np.fromiter(map(qmap.__getitem__, qlabels), np.int64, n),
            np.fromiter(map("1".__eq__, resps), np.int64, n),
            _int_column(stamps),
        ))

    empty = np.zeros(0, np.int64)
    student, questions, responses, timestamps = (
        [np.concatenate(c) for c in zip(*blocks)] if blocks else [empty] * 4
    )
    order = np.lexsort((timestamps, student))
    questions, responses, timestamps = questions[order], responses[order], timestamps[order]
    kc_of = [qmatrix.get(q) for q in range(len(qmap))]
    kcs = list(map(kc_of.__getitem__, questions.tolist()))

    ends = np.cumsum(np.bincount(student, minlength=len(smap))).tolist()
    sequences = [
        StudentSequence.from_columns(sid, questions[a:b], kcs[a:b], responses[a:b], timestamps[a:b])
        for sid, a, b in zip(smap, [0] + ends, ends)
    ]
    return Dataset(sequences, len(qmap), len(kmap), qmatrix, list(qmap), list(kmap))


def _student_field(line, strip):
    field = line.split(",", 1)[0]
    return field.strip() if strip else field


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
            columns = zip(
                seq.questions.tolist(), seq.kcs, seq.responses.tolist(), seq.timestamps.tolist()
            )
            for q, kcs, r, t in columns:
                kc_field = "_".join(k_labels[k] for k in kcs)
                fh.write(f"{seq.student_id},{q_labels[q]},{kc_field},{r},{t}\n")


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
        n = len(seq)
        if n < min_len:
            continue
        for start in range(0, n, max_len):
            if min(n - start, max_len) >= min_len:
                out.append(seq.chunk(start, start + max_len))
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
        require_ints("sizes", 1, students=self.students, questions=self.questions, kcs=self.kcs)
        require_ints("seeds", 0, seed=self.seed)
        require_finite_nonnegative("gamma", self.gamma)
        lo, hi = self.kcs_per_question
        if not (type(lo) is type(hi) is int and 1 <= lo <= hi <= self.kcs):
            raise ConfigError(f"bad kcs_per_question range {self.kcs_per_question}")
        lo, hi = self.seq_len
        if not (type(lo) is type(hi) is int and 1 <= lo <= hi):
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

