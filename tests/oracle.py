"""Reference implementations the tests compare the package against.

The value-level reference model is the test oracle for the batch graph:
straight-line float evaluation of one sequence, one step at a time, written
independently of :func:`qckt.model.build_graph`.  :func:`load_dataset_rows`
is the row-by-row reading of an interaction log, the oracle for the
column-wise :func:`qckt.data.load_dataset`.  The per-tensor optimizer
(:class:`AdamState`, :func:`clip_gradients`, :func:`adam_step`) and checkpoint
writer (:func:`save_per_tensor`) are the references for the package's
single-vector forms, which must match them bit for bit.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

import qckt.autodiff as ad
import qckt.model as qm
from qckt.data import HEADER, Dataset, Interaction, StudentSequence
from qckt.errors import DataError, DomainError, MetricError, ParseError, ShapeError

EPS_PROB = 1e-12  # probability clamp before logs


def load_dataset_rows(path):
    """Parse an interaction log one row at a time, one validated
    :class:`Interaction` per row."""
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
        if "" in kc_field.split("_"):
            raise ParseError(f"empty KC label in {kc_field!r}", line=lineno)
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


def zero_params(config):
    """All-zero tensors; handy for the analytic edge-case tests."""
    return qm.Parameters(config, np.zeros(qm.param_count(config)))


def sigmoid_masked(x):
    """The logistic function with its input split by sign through boolean
    masks; the reference for the branch-free gate kernel."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce(pred, target):
    """Binary cross entropy of a probability, clamped away from 0 and 1:
    :func:`joint_loss` is written with it, independently of the package's
    loss op, which works on logits."""
    p = np.clip(pred, EPS_PROB, 1.0 - EPS_PROB)
    return -(target * np.log(p) + (1.0 - target) * np.log1p(-p))


def auc_bruteforce(ps):
    """O(P*N) pairwise definition; the oracle for :func:`qckt.evaluation.auc`."""
    pos = ps.preds[ps.labels == 1.0]
    neg = ps.preds[ps.labels == 0.0]
    if pos.size == 0 or neg.size == 0:
        raise MetricError("AUC undefined for single-class labels")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def oracle_predictions(sequences, oracle):
    """True-probability predictions aligned to the model's targets (the
    second interaction onward of every sequence)."""
    probs, labels = [], []
    for seq in sequences:
        for t, r in zip(seq.timestamps[1:].tolist(), seq.responses[1:].tolist()):
            probs.append(oracle[(seq.student_id, t)])
            labels.append(r)
    return np.asarray(probs), np.asarray(labels, dtype=np.float64)


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zero(cls, d):
        return cls(np.zeros(d), np.zeros(d))


@dataclass
class StepOutputs:
    """Scores and prediction for one step; mastery is the per-KC sigmoid."""

    alpha: float
    beta: float
    zeta: float
    r_hat: float
    kc_mastery: np.ndarray


def avg_kc_embedding(kcs, K):
    """Mean of the KC embedding rows selected by the id set."""
    ids = sorted(set(kcs))
    if not ids:
        raise DataError("question without KCs")
    if ids[-1] >= K.shape[0] or ids[0] < 0:
        raise IndexError(f"KC id out of range: {ids} with {K.shape[0]} KCs")
    return K[ids].mean(axis=0)


def _response(r):
    """A 0/1 response as a float; any other value raises DomainError."""
    if r not in (0, 1):
        raise DomainError(f"response must be 0 or 1, got {r!r}")
    return float(r)


def encode_ka(q_emb, kbar, r):
    """Interaction encoding for the acquisition cell: correct responses fill
    the first half, incorrect ones the second, the rest is zeros."""
    r = _response(r)
    qk = np.concatenate([q_emb, kbar])
    return np.concatenate([qk * r, qk * (1.0 - r)])


def encode_ks(kbar, r):
    """Interaction encoding for the mastery cell (question-agnostic)."""
    r = _response(r)
    return np.concatenate([kbar * r, kbar * (1.0 - r)])


def lstm_step(x, state, W, U, b):
    """One recurrent step from per-gate tensors in (input, forget, output,
    candidate) order; all gates logistic.  Pure float evaluation."""
    if W[0].shape[1] != x.shape[0]:
        raise ShapeError(f"gate weight {W[0].shape} does not accept input {x.shape}")
    gates = [ad.sigmoid(W[k] @ x + U[k] @ state.h + b[k]) for k in range(4)]
    i, f, o, cand = gates
    c = f * state.c + i * cand
    return LstmState(o * np.tanh(c), c)


def _two_layer_relu(x, W1, b1, W2, b2):
    return np.maximum(W2 @ np.maximum(W1 @ x + b1, 0.0) + b2, 0.0)


def ka_score(a_t, params):
    """Pooled acquisition score over all question slots."""
    v = params["w_a"] * _two_layer_relu(a_t, params["W_a1"], params["b_a1"], params["W_a2"], params["b_a2"])
    return float(v.sum())


def ks_score(g_t, params):
    """(pooled mastery score, per-KC mastery in (0,1))."""
    v = params["w_g"] * _two_layer_relu(g_t, params["W_g1"], params["b_g1"], params["W_g2"], params["b_g2"])
    return float(v.sum()), ad.sigmoid(v)


def ps_score(g_t, q_next, kbar_next, params):
    """Application score of the mastery state against the next question."""
    u = np.concatenate([g_t, q_next, kbar_next])
    hidden = _two_layer_relu(u, params["W_p1"], params["b_p1"], params["W_p2"], params["b_p2"])
    return float(params["w_p"] @ hidden + params["b_p"])


def irt_predict(alpha, beta, zeta):
    """Parameter-free fusion: probability sigmoid(alpha + beta + zeta)."""
    return float(ad.sigmoid(alpha + beta + zeta))


def _fuse(alpha, beta, zeta, config, params):
    if config.variant == "no_irt":
        w, b = params["irt_w"], params["irt_b"]
        return float(ad.sigmoid(w[0] * alpha + w[1] * beta + w[2] * zeta + b))
    logit = alpha
    if config.uses_beta:
        logit = logit + beta
    if config.uses_zeta:
        logit = logit + zeta
    return float(ad.sigmoid(logit))


def forward_sequence(seq, params):
    """Run one student sequence; returns L-1 StepOutputs aligned to targets
    r_2..r_L.  All scores are computed for export purposes even when the
    active variant excludes some of them from the prediction."""
    if len(seq) < 2:
        raise DataError(f"sequence needs >= 2 interactions, got {len(seq)}")
    p = params
    config = params.config
    d = config.dim
    Wka = [p[f"W_{i}"] for i in range(1, 5)]
    Uka = [p[f"U_{i}"] for i in range(1, 5)]
    bka = [p[f"b_{i}"] for i in range(1, 5)]
    Wks = [p[f"W_{i}"] for i in range(5, 9)]
    Uks = [p[f"U_{i}"] for i in range(5, 9)]
    bks = [p[f"b_{i}"] for i in range(5, 9)]

    q_embs = [p["Q"][q] for q in seq.questions.tolist()]
    kbars = [avg_kc_embedding(kcs, p["K"]) for kcs in seq.kcs]
    responses = seq.responses.tolist()

    ka_state = LstmState.zero(d)
    ks_state = LstmState.zero(d)
    outputs = []
    for t in range(len(seq) - 1):
        ka_state = lstm_step(encode_ka(q_embs[t], kbars[t], responses[t]), ka_state, Wka, Uka, bka)
        ks_state = lstm_step(encode_ks(kbars[t], responses[t]), ks_state, Wks, Uks, bks)
        alpha = ka_score(ka_state.h, p)
        beta, mastery = ks_score(ks_state.h, p)
        zeta = ps_score(ks_state.h, q_embs[t + 1], kbars[t + 1], p)
        r_hat = _fuse(alpha, beta, zeta, config, p)
        outputs.append(StepOutputs(alpha, beta, zeta, r_hat, mastery))
    return outputs


def joint_loss(outputs, targets, lambda_aux, variant="full"):
    """Float re-evaluation of the training objective for aligned outputs.

    Mean prediction BCE plus lambda times the mean BCEs of the per-module
    sigmoid scores, all against the same targets; scores excluded by the
    variant contribute no auxiliary term.
    """
    if len(outputs) != len(targets):
        raise ShapeError(f"{len(outputs)} outputs vs {len(targets)} targets")
    if not outputs:
        raise DataError("joint_loss needs at least one prediction")
    cfg_beta = variant not in ("no_ks", "no_ks_ps")
    cfg_zeta = variant not in ("no_ps", "no_ks_ps")
    total = 0.0
    for out, r in zip(outputs, targets):
        r = _response(r)
        step = bce(out.r_hat, r)
        if lambda_aux > 0.0:
            aux = bce(ad.sigmoid(out.alpha), r)
            if cfg_beta:
                aux += bce(ad.sigmoid(out.beta), r)
            if cfg_zeta:
                aux += bce(ad.sigmoid(out.zeta), r)
            step += lambda_aux * aux
        total += step
    return float(total / len(outputs))


# -- per-tensor optimizer and checkpoint writer ------------------------------


class AdamState:
    """Per-tensor first/second moments plus the shared step counter."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def clip_gradients(grads, max_norm):
    """Global-norm clip of a name -> gradient dict: one float64 einsum over
    the gradients back to back in name order, then every tensor scaled."""
    flat = np.concatenate([g.ravel() for g in grads.values()])
    total = math.sqrt(np.einsum("i,i->", flat, flat, dtype=np.float64))
    if max_norm and total > max_norm:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}, total
    return grads, total


def adam_step(params, grads, state, lr):
    """Bias-corrected Adam on name -> array dicts, tensor by tensor, with
    fresh arrays for every intermediate and the corrections folded into the
    step size and epsilon (Kingma & Ba, section 2)."""
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    root_c2 = math.sqrt(1.0 - b2**state.t)
    lr_t = lr * root_c2 / (1.0 - b1**state.t)
    eps_t = eps * root_c2
    for name, arr in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        arr -= lr_t * (m / (np.sqrt(v) + eps_t))


def save_per_tensor(params):
    """The bytes of a checkpoint written tensor by tensor: magic, header
    length, JSON header, then each tensor's little-endian float64 entries."""
    header = {
        "config": asdict(params.config),
        "tensors": [[name, list(arr.shape)] for name, arr in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [qm.CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob]
    parts += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in params.items()]
    return b"".join(parts)
