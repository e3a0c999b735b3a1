"""Metrics, significance testing, and per-step interpretability exports.

All metric functions are pure.  The paired t-test evaluates its own
t-distribution tail, exactly: for the integer degrees of freedom of a
paired test the tail is a finite series (Abramowitz & Stegun 26.7.3-4), so
the package does not depend on scipy at runtime; the test suite
cross-checks against scipy.
"""

import math

import numpy as np

from . import model as qmodel
from .autodiff import sigmoid
from .errors import MetricError, ShapeError


class PredictionSet:
    """Aligned predicted probabilities and 0/1 labels; a prediction outside
    [0, 1], nan included, raises MetricError."""

    def __init__(self, preds, labels):
        self.preds = np.asarray(preds, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.preds.shape != self.labels.shape or self.preds.ndim != 1:
            raise ShapeError(
                f"preds {self.preds.shape} and labels {self.labels.shape} must be aligned vectors"
            )
        finite = np.isfinite(self.preds)
        if not finite.all():
            bad = self.preds.size - np.count_nonzero(finite)
            raise MetricError(f"{bad} of {self.preds.size} predictions are not finite")
        if self.preds.size and (self.preds.min() < 0.0 or self.preds.max() > 1.0):
            raise MetricError("predictions must lie in [0, 1]")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise MetricError("labels must be 0 or 1")

    def __len__(self):
        return self.preds.size


def _midranks(x):
    """1-based ranks of x with each group of tied values given its mean rank."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1])))
    ends = np.append(starts[1:], x.size)  # one past each tie group
    ranks = np.empty(x.size, dtype=np.float64)
    # mean of the 1-based ranks start+1..end of each group
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def auc(ps):
    """Probability that a random positive outranks a random negative
    (rank-statistic form, ties counted half)."""
    pos = ps.labels == 1.0
    n_pos = int(pos.sum())
    n_neg = len(ps) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUC undefined: {n_pos} positives and {n_neg} negatives")
    ranks = _midranks(ps.preds)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def accuracy(ps, threshold=0.5):
    """Fraction predicted on the correct side; a prediction exactly at the
    threshold counts as positive."""
    if len(ps) == 0:
        raise MetricError("accuracy of an empty prediction set")
    calls = ps.preds >= threshold
    return float((calls == (ps.labels == 1.0)).mean())


def _t_tail(x, df):
    """P(T >= x) for x >= 0 under Student's t with an integer ``df`` >= 1
    degrees of freedom, in closed form (Abramowitz & Stegun 26.7.3-4).

    With theta = atan(x / sqrt(df)) and c = cos(theta), S sums the terms
    e = df mod 2, df mod 2 + 2, ..., df - 2 of a series that starts at
    c^(df mod 2) and steps by c^2 (e + 1) / (e + 2); P(|T| < x) is
    sin(theta) S for even df and (2/pi)(theta + sin(theta) S) for odd df.
    """
    theta = math.atan(x / math.sqrt(df))
    odd, c = df % 2, math.cos(theta)
    term, total = c**odd, 0.0
    for e in range(odd, df - 1, 2):
        total += term
        term *= c * c * (e + 1) / (e + 2)
    inside = math.sin(theta) * total
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return (1.0 - inside) / 2.0


def paired_t_test(a, b):
    """Two-sided p-value of the paired t statistic.

    Degenerate conventions: all-zero differences give p = 1 (indistinguishable),
    zero-variance nonzero differences give p = 0 (deterministic gap).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"paired samples must align, got {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise MetricError(f"paired t-test needs n >= 2, got {n}")
    d = a - b
    if np.all(d == 0.0):
        return 1.0
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0
    t = d.mean() / (sd / math.sqrt(n))
    return float(min(1.0, 2.0 * _t_tail(abs(t), n - 1)))


def pairwise_t_matrix(metric_rows):
    """Symmetric p-value matrix over named runs.

    ``metric_rows`` is an ordered mapping name -> per-fold metric list; the
    diagonal is 1 by convention.
    """
    names = list(metric_rows)
    k = len(names)
    mat = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            p = paired_t_test(metric_rows[names[i]], metric_rows[names[j]])
            mat[i, j] = mat[j, i] = p
    return names, mat


def export_module_outputs(params, seq, outputs=None):
    """Per-step module outputs: one row per prediction with the overall
    probability and the per-module sigmoid scores.

    ``outputs`` may pass in the :func:`qckt.model.sequence_outputs` result
    of this sequence, so one forward serves several exports.
    """
    if outputs is None:
        outputs = qmodel.sequence_outputs(params, seq)
    columns = zip(
        seq.questions[1:].tolist(),
        seq.responses[1:].tolist(),
        outputs.r_hat.value,
        sigmoid(outputs.alpha.value),
        sigmoid(outputs.beta.value),
        sigmoid(outputs.zeta.value),
    )
    return [
        {
            "step": t,
            "question": int(question),
            "response": int(response),
            "r_hat": float(r_hat),
            "sigma_alpha": float(s_alpha),
            "sigma_beta": float(s_beta),
            "sigma_zeta": float(s_zeta),
        }
        for t, (question, response, r_hat, s_alpha, s_beta, s_zeta) in enumerate(columns, start=1)
    ]


def export_knowledge_states(params, seq, kc_subset, outputs=None):
    """(L-1) x |kc_subset| matrix of per-KC mastery values in (0,1).

    ``outputs`` is as in :func:`export_module_outputs`.
    """
    kc_subset = list(kc_subset)
    if not kc_subset:
        raise MetricError("kc_subset must be non-empty")
    m = params["K"].shape[0]
    for k in kc_subset:
        if not (0 <= k < m):
            raise IndexError(f"KC id {k} out of range (m={m})")
    if outputs is None:
        outputs = qmodel.sequence_outputs(params, seq)
    return outputs.mastery[kc_subset].T
