"""Knowledge-tracing model with three additive score modules.

Per interaction the model keeps two recurrent summaries of a student:

* an acquisition state ``a_t`` driven by (question, KCs, response) triples,
* a mastery state ``g_t`` driven by (KCs, response) pairs only.

Three small heads turn those states into scalar scores: an acquisition score
``alpha`` (from ``a_t``), a mastery score ``beta`` (from ``g_t``), and an
application score ``zeta`` (from ``g_t`` plus the upcoming question).  The
prediction layer is a parameter-free logistic fusion
``r_hat = sigmoid(alpha + beta + zeta)``; ablation variants drop scores or
swap the fixed sum for a learned affine one.

Both recurrent cells use logistic activations on all four gates, including
the candidate; that is the model definition here, not an oversight.

Two execution paths exist on purpose.  The value-level functions in this file
(`lstm_step`, the ``*_score`` functions, `forward_sequence`, `joint_loss`)
are straight-line float evaluations used for export and as an independent
oracle.  Training goes through :func:`build_graph`, which records the same
math on an autodiff tape over padded (feature x column) arrays whose columns
are step-major: column t*B + j is step t of sequence j in a batch of B.  Only
the two recurrences loop over time; the embeddings, the input projections
W x + b and the three heads each run once over all columns, the time-loop
hoisting of Appleyard et al. (arXiv:1604.01946) applied to the heads too.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, as_tensor
from .errors import ConfigError, DataError, DomainError, ShapeError

VARIANTS = ("full", "no_irt", "no_ks", "no_ps", "no_ks_ps")

CHECKPOINT_MAGIC = b"QCKT0001"


@dataclass(frozen=True)
class ModelConfig:
    """Sizes and variant switches; n_questions/n_kcs must match the dataset."""

    n_questions: int
    n_kcs: int
    dim: int = 64
    lambda_aux: float = 1.0
    variant: str = "full"

    def __post_init__(self):
        if self.n_questions < 1 or self.n_kcs < 1 or self.dim < 1:
            raise ConfigError(
                f"sizes must be >= 1, got n_questions={self.n_questions}, "
                f"n_kcs={self.n_kcs}, dim={self.dim}"
            )
        if not (self.lambda_aux >= 0.0):
            raise ConfigError(f"lambda_aux must be >= 0, got {self.lambda_aux}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    # which scores enter the prediction sum and the auxiliary loss
    @property
    def uses_beta(self):
        return self.variant not in ("no_ks", "no_ks_ps")

    @property
    def uses_zeta(self):
        return self.variant not in ("no_ps", "no_ks_ps")

    @property
    def needs_mastery_lstm(self):
        return self.uses_beta or self.uses_zeta

    def to_dict(self):
        return {
            "n_questions": self.n_questions,
            "n_kcs": self.n_kcs,
            "dim": self.dim,
            "lambda_aux": self.lambda_aux,
            "variant": self.variant,
        }


def param_shapes(config):
    """Ordered name -> shape table for every trainable tensor.

    Names follow the conventional symbols: gate weights W_1..W_4 / U / b for
    the acquisition cell, W_5..W_8 for the mastery cell, and per-head tensors
    W_a*, W_g*, W_p* with weight vectors w_a, w_g, w_p.
    """
    d, n, m = config.dim, config.n_questions, config.n_kcs
    shapes = {"Q": (n, d), "K": (m, d)}
    for i in range(1, 5):
        shapes[f"W_{i}"] = (d, 4 * d)
    for i in range(5, 9):
        shapes[f"W_{i}"] = (d, 2 * d)
    for i in range(1, 9):
        shapes[f"U_{i}"] = (d, d)
    for i in range(1, 9):
        shapes[f"b_{i}"] = (d,)
    shapes.update(
        {
            "W_a1": (d, d),
            "b_a1": (d,),
            "W_a2": (n, d),
            "b_a2": (n,),
            "w_a": (n,),
            "W_g1": (d, d),
            "b_g1": (d,),
            "W_g2": (m, d),
            "b_g2": (m,),
            "w_g": (m,),
            "W_p1": (3 * d, 3 * d),
            "b_p1": (3 * d,),
            "W_p2": (3 * d, 3 * d),
            "b_p2": (3 * d,),
            "w_p": (3 * d,),
            "b_p": (),
        }
    )
    if config.variant == "no_irt":
        shapes["irt_w"] = (3,)  # learned affine fusion replaces the fixed sum
        shapes["irt_b"] = ()
    return shapes


def irt_param_count(config):
    """Trainable parameters inside the prediction layer (0 except no_irt)."""
    return 4 if config.variant == "no_irt" else 0


class Parameters:
    """Named tensor store for one model; iteration order is fixed."""

    def __init__(self, config, tensors):
        self.config = config
        expected = param_shapes(config)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise ShapeError(f"parameter names mismatch: missing {missing}, extra {extra}")
        self.tensors = {}
        for name, shape in expected.items():
            arr = as_tensor(tensors[name])
            if arr.shape != shape:
                raise ShapeError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            self.tensors[name] = arr

    @classmethod
    def init(cls, config, seed):
        """Seeded initialization.

        Weight matrices and head weight vectors are uniform within
        +/- 1/sqrt(fan_in); embeddings are N(0, 0.02^2); biases start at zero
        except the forget-gate biases b_2 and b_6 (1.0) so the cells begin by
        remembering.  The learned-fusion variant starts as the plain sum
        (irt_w = 1, irt_b = 0).
        """
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in param_shapes(config).items():
            if name in ("Q", "K"):
                tensors[name] = rng.normal(0.0, 0.02, size=shape)
            elif name == "irt_w":
                tensors[name] = np.ones(shape)
            elif name.startswith("b") or name == "irt_b":
                val = np.zeros(shape)
                if name in ("b_2", "b_6"):
                    val.fill(1.0)
                tensors[name] = val
            else:
                fan_in = shape[-1] if len(shape) == 2 else shape[0]
                lim = 1.0 / np.sqrt(fan_in)
                tensors[name] = rng.uniform(-lim, lim, size=shape)
        return cls(config, tensors)

    @classmethod
    def zeros(cls, config):
        """All-zero tensors; handy for the analytic edge-case tests."""
        return cls(config, {k: np.zeros(s) for k, s in param_shapes(config).items()})

    def __getitem__(self, name):
        return self.tensors[name]

    def __iter__(self):
        return iter(self.tensors)

    def items(self):
        return self.tensors.items()

    @property
    def n_params(self):
        return sum(int(np.prod(s)) if s else 1 for s in (a.shape for a in self.tensors.values()))

    def copy(self):
        return Parameters(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def leaves(self, tape):
        """Record every tensor as a tape leaf; returns name -> Node."""
        return {name: tape.leaf(arr, name=name) for name, arr in self.tensors.items()}

    # -- checkpoint IO -----------------------------------------------------

    def save(self, path):
        """Write magic + JSON header + raw little-endian float64 payload."""
        header = {
            "config": self.config.to_dict(),
            "tensors": [[name, list(arr.shape)] for name, arr in self.tensors.items()],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for arr in self.tensors.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise DataError(f"not a checkpoint file: bad magic {magic!r} in {path}")
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            config = ModelConfig(**header["config"])
            tensors = {}
            for name, shape in header["tensors"]:
                shape = tuple(shape)
                count = int(np.prod(shape)) if shape else 1
                raw = fh.read(count * 8)
                if len(raw) != count * 8:
                    raise DataError(f"checkpoint truncated while reading {name}")
                tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if fh.read(1):
                raise DataError("checkpoint has trailing bytes")
        return cls(config, tensors)


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


# -- value-level ops (straight-line floats; export path and test oracle) ----


def avg_kc_embedding(kcs, K):
    """Mean of the KC embedding rows selected by the id set."""
    ids = sorted(set(kcs))
    if not ids:
        raise DataError("question without KCs")
    if ids[-1] >= K.shape[0] or ids[0] < 0:
        raise IndexError(f"KC id out of range: {ids} with {K.shape[0]} KCs")
    return K[ids].mean(axis=0)


def _check_response(r):
    if r not in (0, 1):
        raise DomainError(f"response must be 0 or 1, got {r!r}")
    return float(r)


def encode_ka(q_emb, kbar, r):
    """Interaction encoding for the acquisition cell: correct responses fill
    the first half, incorrect ones the second, the rest is zeros."""
    r = _check_response(r)
    qk = np.concatenate([q_emb, kbar])
    return np.concatenate([qk * r, qk * (1.0 - r)])


def encode_ks(kbar, r):
    """Interaction encoding for the mastery cell (question-agnostic)."""
    r = _check_response(r)
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


def forward_sequence(seq, params, config=None):
    """Run one student sequence; returns L-1 StepOutputs aligned to targets
    r_2..r_L.  All scores are computed for export purposes even when the
    active variant excludes some of them from the prediction."""
    config = config or params.config
    interactions = getattr(seq, "interactions", seq)
    if len(interactions) < 2:
        raise DataError(f"sequence needs >= 2 interactions, got {len(interactions)}")
    p = params
    d = config.dim
    Wka = [p[f"W_{i}"] for i in range(1, 5)]
    Uka = [p[f"U_{i}"] for i in range(1, 5)]
    bka = [p[f"b_{i}"] for i in range(1, 5)]
    Wks = [p[f"W_{i}"] for i in range(5, 9)]
    Uks = [p[f"U_{i}"] for i in range(5, 9)]
    bks = [p[f"b_{i}"] for i in range(5, 9)]

    q_embs = [p["Q"][it.question] for it in interactions]
    kbars = [avg_kc_embedding(it.kcs, p["K"]) for it in interactions]

    ka_state = LstmState.zero(d)
    ks_state = LstmState.zero(d)
    outputs = []
    for t in range(len(interactions) - 1):
        it = interactions[t]
        ka_state = lstm_step(encode_ka(q_embs[t], kbars[t], it.response), ka_state, Wka, Uka, bka)
        ks_state = lstm_step(encode_ks(kbars[t], it.response), ks_state, Wks, Uks, bks)
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
        r = _check_response(r)
        step = ad.bce_value(out.r_hat, r)
        if lambda_aux > 0.0:
            aux = ad.bce_value(ad.sigmoid(out.alpha), r)
            if cfg_beta:
                aux += ad.bce_value(ad.sigmoid(out.beta), r)
            if cfg_zeta:
                aux += ad.bce_value(ad.sigmoid(out.zeta), r)
            step += lambda_aux * aux
        total += step
    return float(total / len(outputs))


# -- batched differentiable graph -------------------------------------------


class Batch:
    """Padded step-major arrays for a group of sequences.

    qids and responses are (L x B); mask marks real interactions.  Column
    t*B + j of the flattened (L*B) layout is step t of sequence j; the KC
    groups of all those columns are pre-flattened into one ``kc_flat``
    (rows, cols, wts) triple for the mean-embedding scatter.  Padded columns
    hold question 0, KC 0 and response 0.  ``train`` builds fresh batches
    every epoch from its shuffled order.
    """

    __slots__ = ("qids", "responses", "mask", "kc_flat", "length", "size", "n_preds")

    def __init__(self, seqs):
        if not seqs:
            raise DataError("empty batch")
        seq_lists = [getattr(s, "interactions", s) for s in seqs]
        if min(len(s) for s in seq_lists) < 2:
            raise DataError("batch contains a sequence shorter than 2")
        L = max(len(s) for s in seq_lists)
        B = len(seq_lists)
        self.length, self.size = L, B
        self.qids = np.zeros((L, B), dtype=np.int64)
        self.responses = np.zeros((L, B))
        self.mask = np.zeros((L, B))
        groups = [(0,)] * (L * B)
        for j, s in enumerate(seq_lists):
            for t, it in enumerate(s):
                self.qids[t, j] = it.question
                self.responses[t, j] = _check_response(it.response)
                self.mask[t, j] = 1.0
                groups[t * B + j] = tuple(it.kcs)
        self.kc_flat = ad.flatten_groups(groups)
        self.n_preds = float(self.mask[1:].sum())


@dataclass
class GraphOutputs:
    """Tape nodes of one batch forward pass plus flat targets and mask."""

    loss: object
    r_hat: object
    alpha: object
    beta: object
    zeta: object
    targets: np.ndarray
    mask: np.ndarray
    n_preds: float
    masteries: list = field(default_factory=list)


def _relu_layer(tape, W, x, b):
    return tape.relu(tape.add_bias(tape.matmul(W, x), b))


def _lstm_track(tape, nodes, first, inputs, B):
    """One recurrent track over the B-column step blocks of its inputs.

    ``first`` names the track's gate tensors W_first..W_{first+3} (and U, b).
    The input projection W x + b runs as one GEMM over all input columns;
    the loop adds U h to a column slice of it and applies the fused gates.
    Returns the hidden states stacked step-major, like the inputs.
    """
    ids = range(first, first + 4)
    w = tape.vstack([nodes[f"W_{i}"] for i in ids])
    u = tape.vstack([nodes[f"U_{i}"] for i in ids])
    b = tape.concat([nodes[f"b_{i}"] for i in ids])
    proj = tape.add_bias(tape.matmul(w, inputs), b)
    d = u.value.shape[1]
    h = tape.leaf(np.zeros((d, B)))
    c = tape.leaf(np.zeros((d, B)))
    hs = []
    for t in range(inputs.value.shape[1] // B):
        z = tape.add(tape.col_slice(proj, t * B, (t + 1) * B), tape.matmul(u, h))
        h, c = tape.lstm_gates(z, c)
        hs.append(h)
    return tape.hstack(hs)


def build_graph(tape, nodes, batch, config, collect_mastery=False):
    """Record the full batch forward pass on a tape.

    ``nodes`` is the name -> leaf dict from :meth:`Parameters.leaves`.  Only
    the two recurrences loop over time.  Everything else runs once over
    step-major columns (column t*B + j is step t of sequence j): the
    embeddings over all L*B columns, the input encodings and their
    projections over the (L-1)*B input columns, and the alpha/beta/zeta
    heads over the (L-1)*B stacked hidden states, their last layer fused
    into :meth:`Tape.relu_pool`.  Score vectors therefore align with
    ``batch.responses[1:].ravel()``; the loss node follows the active variant.
    """
    B, L = batch.size, batch.length
    cols = (L - 1) * B
    n = nodes
    run_ks = config.needs_mastery_lstm or collect_mastery

    q_all = tape.embed(n["Q"], batch.qids.ravel())
    k_all = tape.embed_mean_flat(n["K"], *batch.kc_flat, L * B)
    k_in = tape.col_slice(k_all, 0, cols)
    r = batch.responses[:-1].ravel()

    qk = tape.vstack([tape.col_slice(q_all, 0, cols), k_in])
    e_ka = tape.vstack([tape.scale_columns(qk, r), tape.scale_columns(qk, 1.0 - r)])
    h_ka = _lstm_track(tape, n, 1, e_ka, B)
    hidden_a = _relu_layer(tape, n["W_a1"], h_ka, n["b_a1"])
    alpha = tape.relu_pool(n["W_a2"], hidden_a, n["b_a2"], n["w_a"])

    if run_ks:
        e_ks = tape.vstack([tape.scale_columns(k_in, r), tape.scale_columns(k_in, 1.0 - r)])
        h_ks = _lstm_track(tape, n, 5, e_ks, B)
    beta = zeta = None
    masteries = []
    if config.uses_beta or collect_mastery:
        hidden_g = _relu_layer(tape, n["W_g1"], h_ks, n["b_g1"])
        if config.uses_beta:
            beta = tape.relu_pool(n["W_g2"], hidden_g, n["b_g2"], n["w_g"])
        if collect_mastery:
            # the per-KC terms that relu_pool sums, evaluated off the tape
            pre = n["W_g2"].value @ hidden_g.value + n["b_g2"].value[:, None]
            v = n["w_g"].value[:, None] * np.maximum(pre, 0.0)
            masteries = np.split(ad.sigmoid(v), L - 1, axis=1)
    if config.uses_zeta:
        u = tape.vstack([h_ks, tape.col_slice(q_all, B, L * B), tape.col_slice(k_all, B, L * B)])
        hidden_p = _relu_layer(tape, n["W_p1"], u, n["b_p1"])
        zeta = tape.add_scalar(tape.relu_pool(n["W_p2"], hidden_p, n["b_p2"], n["w_p"]), n["b_p"])

    if config.variant == "no_irt":
        stacked = tape.vstack([tape.as_row(alpha), tape.as_row(beta), tape.as_row(zeta)])
        logit = tape.add_scalar(tape.dot_columns(n["irt_w"], stacked), n["irt_b"])
    else:
        logit = alpha
        if beta is not None:
            logit = tape.add(logit, beta)
        if zeta is not None:
            logit = tape.add(logit, zeta)
    r_hat = tape.sigmoid(logit)

    targets = batch.responses[1:].ravel()
    mask = batch.mask[1:].ravel()
    n_preds = batch.n_preds
    if n_preds <= 0:
        raise DataError("batch has no predictable steps")

    loss = tape.scale_const(tape.bce_sum(r_hat, targets, mask), 1.0 / n_preds)
    if config.lambda_aux > 0.0:
        aux = tape.bce_sum(tape.sigmoid(alpha), targets, mask)
        if beta is not None:
            aux = tape.add(aux, tape.bce_sum(tape.sigmoid(beta), targets, mask))
        if zeta is not None:
            aux = tape.add(aux, tape.bce_sum(tape.sigmoid(zeta), targets, mask))
        loss = tape.add(loss, tape.scale_const(aux, config.lambda_aux / n_preds))

    return GraphOutputs(
        loss=loss,
        r_hat=r_hat,
        alpha=alpha,
        beta=beta,
        zeta=zeta,
        targets=targets,
        mask=mask,
        n_preds=n_preds,
        masteries=masteries,
    )


def batch_loss_and_grads(params, batch, config=None):
    """One forward/backward pass; returns (loss value, name -> gradient)."""
    config = config or params.config
    tape = Tape()
    nodes = params.leaves(tape)
    graph = build_graph(tape, nodes, batch, config)
    tape.backward(graph.loss)
    grads = {name: Tape.grad(node) for name, node in nodes.items()}
    return float(graph.loss.value), grads


def batch_predictions(params, batch, config=None):
    """Masked flat (predictions, targets) for one batch, no backward pass."""
    config = config or params.config
    tape = Tape()
    graph = build_graph(tape, params.leaves(tape), batch, config)
    keep = graph.mask > 0.0
    return graph.r_hat.value[keep], graph.targets[keep]
