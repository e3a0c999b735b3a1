"""Seeded synthetic interaction corpora for the benchmark.

This is the benchmark's own copy of the ability/difficulty response model:
per-student per-KC abilities and per-question difficulties are standard
normal, a response is correct with probability
``sigmoid(mean ability over the question's KCs - difficulty)``, and every
attempt raises the attempted KCs' abilities by ``gamma``.  It is generated
here, vectorized over students, so that a change to ``qckt.data`` cannot
change the benchmark's inputs.  The program only ever sees the result, either
as ``qckt.data`` objects or as an interaction-log CSV.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    students: int
    questions: int
    kcs: int
    kcs_per_question: tuple  # (lo, hi), inclusive
    seq_len: tuple  # (lo, hi), inclusive
    gamma: float = 0.05


@dataclass
class Corpus:
    spec: CorpusSpec
    q_kcs: list  # per question, a sorted tuple of KC ids
    lengths: np.ndarray  # (students,)
    questions: np.ndarray  # (students, max length); valid up to lengths[s]
    responses: np.ndarray  # (students, max length), 0/1

    def student_id(self, s):
        return f"s{s}"

    def rows(self, s):
        """(question, kcs, response, timestamp) tuples of student ``s``."""
        n = int(self.lengths[s])
        qs = self.questions[s, :n].tolist()
        rs = self.responses[s, :n].tolist()
        return [(q, self.q_kcs[q], r, t) for t, (q, r) in enumerate(zip(qs, rs))]


def generate(spec, seed):
    """Draw a corpus; the same (spec, seed) always gives the same corpus."""
    rng = np.random.default_rng([seed, 0xBE4C])
    S, n, m = spec.students, spec.questions, spec.kcs
    theta = rng.normal(size=(S, m))
    difficulty = rng.normal(size=n)
    lo, hi = spec.kcs_per_question
    sizes = rng.integers(lo, hi + 1, size=n)
    q_kcs = [tuple(sorted(int(k) for k in rng.choice(m, size=int(z), replace=False))) for z in sizes]
    member = np.zeros((n, m))
    for q, kcs in enumerate(q_kcs):
        member[q, list(kcs)] = 1.0
    mean_weights = member / member.sum(axis=1, keepdims=True)

    len_lo, len_hi = spec.seq_len
    lengths = rng.integers(len_lo, len_hi + 1, size=S)
    T = int(lengths.max())
    questions = rng.integers(n, size=(S, T))
    draws = rng.random((S, T))
    responses = np.zeros((S, T), dtype=np.int64)
    for t in range(T):
        act = np.nonzero(lengths > t)[0]
        q = questions[act, t]
        ability = np.einsum("ij,ij->i", theta[act], mean_weights[q])
        p = 1.0 / (1.0 + np.exp(difficulty[q] - ability))
        responses[act, t] = draws[act, t] < p
        theta[act] += spec.gamma * member[q]
    return Corpus(spec, q_kcs, lengths, questions, responses)


def to_dataset(corpus, data):
    """The corpus as a ``qckt.data.Dataset`` (``data`` is that module)."""
    spec = corpus.spec
    sequences = [
        data.StudentSequence(
            corpus.student_id(s),
            [data.Interaction(q, kcs, r, t) for q, kcs, r, t in corpus.rows(s)],
        )
        for s in range(spec.students)
    ]
    return data.Dataset(
        sequences,
        spec.questions,
        spec.kcs,
        dict(enumerate(corpus.q_kcs)),
        [f"q{i}" for i in range(spec.questions)],
        [f"k{i}" for i in range(spec.kcs)],
    )


def write_csv(corpus, path):
    """The corpus as an interaction-log CSV in the format ``qckt`` ingests."""
    kc_field = ["_".join(f"k{k}" for k in kcs) for kcs in corpus.q_kcs]
    lines = ["student_id,question_id,kc_ids,response,timestamp"]
    for s in range(corpus.spec.students):
        sid = corpus.student_id(s)
        lines.extend(f"{sid},q{q},{kc_field[q]},{r},{t}" for q, _, r, t in corpus.rows(s))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
