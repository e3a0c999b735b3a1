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

One forward implementation serves training, scoring and export:
:func:`build_graph` records the model on an autodiff tape over packed
(feature x column) arrays with no padding.  A :class:`Batch` sorts its
sequences longest first, and step t of the recurrence holds one column for
each sequence that still predicts at that step, as PyTorch's
``pack_padded_sequence`` lays them out; columns run step-major.  The graph
has no loop over time: the embeddings, the input projections W x + b and the
three heads each run once over all columns, the time-loop hoisting of
Appleyard et al. (arXiv:1604.01946) applied to the heads too, and both
recurrences are one :meth:`Tape.lstm_gates` node that steps through time
inside its own forward and backward, the two tracks stacked on a leading
axis so that each step is one batched call for both (the stream combining
of the same paper).  The gate tensors are five stacked leaves, W_1..W_4 and
so on (:data:`GATE_BLOCKS`), blocks of the parameter vector that no graph
restacks.  Each layer is one tape node: an affine layer W x + b is one
:meth:`Tape.matmul`, with its relu in the heads' first layers, and the
response split [e * r; e * (1 - r)] of an interaction embedding one
:meth:`Tape.split_by_response`, and the whole training objective one
:meth:`Tape.logistic_loss`.  Scoring and export run the graph without the
loss or a backward pass.

Precision: training records the graph on a :data:`TRAIN_DTYPE` (float32)
tape, the mixed-precision recipe of Micikevicius et al. (arXiv:1710.03740):
parameters, the optimizer and checkpoints stay float64.  A
:class:`Parameters` is a :class:`FlatTensors`, the named views of one float64
vector, which :meth:`Parameters.leaves` casts in one pass per update, and the
float32 gradients come back gathered into one vector of the same layout.
Fold scoring (validation during training, test folds and ``qckt eval``)
follows the training dtype on a forward-only tape.  Only export (:func:`sequence_outputs`)
and :func:`batch_predictions`' default record at float64, so exported values
and the float64 batch reference do not depend on the training precision's
rounding.
"""

import itertools
import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, as_tensor
from .data import atomic_write
from .errors import ConfigError, DataError, DomainError, ShapeError
from .errors import require_finite_nonnegative, require_ints

VARIANTS = ("full", "no_irt", "no_ks", "no_ps", "no_ks_ps")

CHECKPOINT_MAGIC = b"QCKT0001"

# the dtype of the training forward and backward and of fold scoring; the
# parameters stay float64
TRAIN_DTYPE = np.float32


@dataclass(frozen=True)
class ModelConfig:
    """Sizes and variant switches; n_questions/n_kcs must match the dataset."""

    n_questions: int
    n_kcs: int
    dim: int = 64
    lambda_aux: float = 1.0
    variant: str = "full"

    def __post_init__(self):
        require_ints("sizes", 1, n_questions=self.n_questions, n_kcs=self.n_kcs, dim=self.dim)
        require_finite_nonnegative("lambda_aux", self.lambda_aux)
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


def param_count(config):
    """Number of trainable scalars of a model, from :func:`param_shapes`."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def _spans(shapes):
    """name -> (start, stop, shape): each tensor's slice of a vector that
    holds the tensors of ``shapes`` back to back, in its order."""
    spans, lo = {}, 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        spans[name] = (lo, hi, tuple(shape))
        lo = hi
    return spans


# block -> members: the gate tensors that one recurrence reads stacked by
# rows, recorded as one leaf.  The members are adjacent in param_shapes
# order, so each block is one slice of the parameter vector.
GATE_BLOCKS = {f"{p}_{i}..{p}_{j}": tuple(f"{p}_{k}" for k in range(i, j + 1))
               for p, i, j in (("W", 1, 4), ("W", 5, 8), ("U", 1, 8), ("b", 1, 4), ("b", 5, 8))}


def _leaf_spans(spans):
    """The spans of :meth:`Parameters.leaves`: each of :data:`GATE_BLOCKS`
    in its members' place, over their slices and shaped as them stacked by
    rows; every other name as in ``spans``."""
    block_of = {name: block for block, members in GATE_BLOCKS.items() for name in members}
    leaf_spans = {}
    for name, (lo, hi, shape) in spans.items():
        leaf = block_of.get(name, name)
        if leaf in leaf_spans:  # a later member: its block grows by its rows
            lo, _, (rows, *rest) = leaf_spans[leaf]
            shape = (rows + shape[0], *rest)
        leaf_spans[leaf] = (lo, hi, shape)
    return leaf_spans


class FlatTensors(Mapping):
    """Named tensors stored back to back in one contiguous vector, ``flat``.

    ``spans`` maps each name, in order, to (start, stop, shape), and
    ``self[name]`` is the view of ``flat[start:stop]`` in that shape.
    Assigning to a name writes into its view, and a value of another shape
    raises ShapeError; names cannot be added or removed.  So the mapping and
    the vector never drift apart, and a pass over the whole model (a cast, a
    copy, an optimizer step) is one pass over ``flat``.
    """

    __slots__ = ("spans", "flat", "_views")

    def __init__(self, spans, flat):
        self.spans, self.flat = spans, flat
        self._views = {name: flat[lo:hi].reshape(shape) for name, (lo, hi, shape) in spans.items()}

    def __getitem__(self, name):
        return self._views[name]

    def __setitem__(self, name, value):
        view, value = self[name], np.asarray(value)
        if value.shape != view.shape:
            raise ShapeError(f"tensor {name} has shape {view.shape}, got {value.shape}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def items(self):
        return self._views.items()

    def __reduce__(self):
        # pickled views would come back as copies; rebuild them over the vector
        return FlatTensors, (self.spans, self.flat)

    def like(self, flat):
        """The same names over another vector of the same size."""
        return FlatTensors(self.spans, flat)

    def name_at(self, i):
        """The name whose slice holds entry i of ``flat``."""
        return next(name for name, (lo, hi, _) in self.spans.items() if lo <= i < hi)


class Parameters(FlatTensors):
    """The named tensors of one model, in :func:`param_shapes` order, over
    one float64 vector ``flat``, which is kept as it is; ``blocks`` is the
    same vector under the names of :meth:`leaves`.  A Parameters pickles as
    its config and that vector."""

    __slots__ = ("config", "blocks")

    def __init__(self, config, flat):
        flat = as_tensor(flat)
        if flat.shape != (param_count(config),):
            raise ShapeError(f"parameter vector has shape {flat.shape}, "
                             f"expected ({param_count(config)},)")
        super().__init__(_spans(param_shapes(config)), flat)
        self.config = config
        self.blocks = FlatTensors(_leaf_spans(self.spans), flat)

    @classmethod
    def init(cls, config, seed):
        """Seeded initialization.

        Weight matrices and head weight vectors are uniform within
        +/- 1/sqrt(fan_in); embeddings are N(0, 0.02^2); biases start at zero
        except the forget-gate biases b_2 and b_6 (1.0) so the cells begin by
        remembering.  The learned-fusion variant starts as the plain sum
        (irt_w = 1, irt_b = 0).  The draws are one per name, in
        :func:`param_shapes` order, each written into its view of a zero
        vector.
        """
        rng = np.random.default_rng(seed)
        params = cls(config, np.zeros(param_count(config)))
        for name, (_, _, shape) in params.spans.items():
            if name in ("Q", "K"):
                params[name] = rng.normal(0.0, 0.02, size=shape)
            elif name in ("irt_w", "b_2", "b_6"):
                params[name] = np.ones(shape)
            elif not (name.startswith("b") or name == "irt_b"):
                fan_in = shape[-1] if len(shape) == 2 else shape[0]
                lim = 1.0 / np.sqrt(fan_in)
                params[name] = rng.uniform(-lim, lim, size=shape)
        return params

    def __reduce__(self):
        return Parameters, (self.config, self.flat)

    def copy(self):
        return Parameters(self.config, self.flat.copy())

    def leaves(self, tape):
        """Record each entry of ``blocks`` as a tape leaf; returns name ->
        Node.  The vector is cast to the tape's dtype in one pass (not at all
        on a float64 tape), and each leaf is a view of its slice of the cast,
        so the leaves' gradients, in order, tile the vector."""
        blocks = self.blocks
        if blocks.flat.dtype != tape.dtype:
            blocks = blocks.like(blocks.flat.astype(tape.dtype))
        return {name: tape.leaf(arr) for name, arr in blocks.items()}

    # -- checkpoint IO -----------------------------------------------------

    def save(self, path):
        """Write magic + JSON header + raw little-endian float64 payload (the
        vector), atomically: a failed save leaves any earlier file intact."""
        header = {
            "config": asdict(self.config),
            "tensors": [[name, list(shape)] for name, (_, _, shape) in self.spans.items()],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with atomic_write(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(np.ascontiguousarray(self.flat, dtype="<f8"))

    @classmethod
    def load(cls, path):
        """Read a :meth:`save` file; malformed content raises DataError.

        The header must declare exactly the tensors of its config, and the
        file must hold exactly their bytes, before any payload is read.
        """
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise DataError(f"not a checkpoint file: bad magic {magic!r} in {path}")
            size = fh.read(4)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if len(size) != 4 or struct.unpack("<I", size)[0] > left:
                raise DataError(f"checkpoint truncated in its header: {path}")
            try:
                raw = fh.read(struct.unpack("<I", size)[0])
                header = json.loads(raw.decode("utf-8"))
                config = ModelConfig(**header["config"])
                shapes = param_shapes(config)
                if header["tensors"] != [[name, list(shape)] for name, shape in shapes.items()]:
                    raise DataError(f"checkpoint tensors do not fit its config: {path}")
                count = param_count(config)
                if 8 * count != left - len(raw):
                    raise DataError(f"checkpoint payload does not fit its header: {path}")
                flat = np.empty(count, "<f8")
                if fh.readinto(flat) != 8 * count:
                    raise DataError(f"checkpoint truncated in its payload: {path}")
                return cls(config, flat)
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                # bad UTF-8 or JSON, missing, unknown or invalid config keys
                raise DataError(
                    f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
                ) from exc


# -- batched differentiable graph -------------------------------------------


class Batch:
    """Packed step-major columns for a group of
    :class:`qckt.data.StudentSequence` objects.

    The sequences are sorted longest first by a stable sort, so equal
    lengths keep the caller's order.  Step t (t = 0..L-2) reads interaction t
    and predicts interaction t + 1 of the ``widths[t]`` sequences longer than
    t + 1, which are the first ``widths[t]`` in that order; prediction column
    p is step t of the k-th longest sequence, for p = widths[0] + ... +
    widths[t-1] + k.  There are ``n_preds`` = sum(length - 1) such columns.

    ``qids`` and ``responses`` cover 2 * n_preds columns: each column's input
    interaction, then each column's next interaction, so
    ``responses[n_preds:]`` are the targets.  ``kc_in`` and ``kc_next`` are
    the (rows, cols, wts) triples of :meth:`Tape.embed_mean_flat` for the
    input and the next interactions: each column's KCs in column order, each
    weighted 1/(its column's KC count).  ``order`` puts prediction columns
    back in the caller's order, step-major over the caller's positions.
    ``train`` builds fresh batches every epoch from its shuffled order.
    """

    __slots__ = ("qids", "responses", "kc_in", "kc_next", "widths", "order", "n_preds")

    def __init__(self, seqs):
        if not seqs:
            raise DataError("empty batch")
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        if lengths.min() < 2:
            raise DataError("batch contains a sequence shorter than 2")
        responses = np.concatenate([s.responses for s in seqs])
        bad = responses[(responses != 0) & (responses != 1)]
        if bad.size:
            raise DomainError(f"response must be 0 or 1, got {bad[0].item()!r}")
        kcs = list(itertools.chain.from_iterable(s.kcs for s in seqs))
        sizes = np.fromiter(map(len, kcs), np.int64, len(kcs))
        if not sizes.all():
            raise DomainError("interaction without KCs")

        by_len = np.argsort(-lengths, kind="stable")
        # live[t, k]: the k-th longest sequence predicts at step t; its
        # nonzero entries, row by row, are the packed columns
        live = np.arange(lengths.max() - 1)[:, None] < lengths[by_len] - 1
        step, rank = np.nonzero(live)
        widths = live.sum(axis=1)
        P = len(step)
        pos = by_len[rank]
        # interaction read by each column, then the one it predicts, as
        # indices into the sequences' concatenated columns
        at = np.cumsum(lengths)[pos] - lengths[pos] + step
        at = np.concatenate([at, at + 1])
        self.qids = np.concatenate([s.questions for s in seqs])[at]
        self.responses = responses[at].astype(np.float64)

        # column c's KCs are those of interaction at[c], which end at
        # cumsum(sizes)[at[c]] in flat; entries run column by column
        flat = np.fromiter(itertools.chain.from_iterable(kcs), np.int64, int(sizes.sum()))
        col_sizes = sizes[at]
        col_end = np.cumsum(col_sizes)
        shift = np.repeat(np.cumsum(sizes)[at] - col_end, col_sizes)
        rows = flat[shift + np.arange(col_end[-1])]
        cols = np.repeat(np.arange(2 * P), col_sizes)
        wts = np.repeat(1.0 / col_sizes, col_sizes)
        e = col_end[P - 1]
        self.kc_in = (rows[:e], cols[:e], wts[:e])
        self.kc_next = (rows[e:], cols[e:] - P, wts[e:])
        self.widths = tuple(widths.tolist())
        self.order = np.argsort(step * len(seqs) + pos)
        self.n_preds = P


@dataclass
class GraphOutputs:
    """Tape nodes of one batch forward pass.

    ``loss`` is None on a forward-only tape.  ``beta`` and ``zeta`` are None
    where the variant leaves them out, unless the graph was built for export;
    ``mastery`` is the (m x n_preds) per-KC mastery matrix of an export graph,
    else None.
    """

    loss: object
    r_hat: object
    alpha: object
    beta: object
    zeta: object
    mastery: np.ndarray = None


def _recurrence(tape, nodes, inputs, widths):
    """The recurrent tracks over the packed step columns of their inputs,
    as one :meth:`Tape.lstm_gates` node; returns each track's (d x P)
    hidden states in column order.

    ``inputs`` holds the acquisition track's input node, then the mastery
    track's if it runs.  Track t projects all its input columns (W x + b)
    with the t-th W and b blocks in one :meth:`Tape.matmul`, into its row
    block of one array that a :meth:`Tape.vstack` takes without a copy; the
    recurrence reads the U block whole, running as many tracks as there are
    projections, and :meth:`Tape.rows` views hand back each track's hidden
    states.  No backward reads the projections, so they are released as soon
    as the recurrence has run: otherwise both tracks' projections would stay
    live through the heads, whose alpha layer makes the update's memory peak.
    """
    U = nodes["U_1..U_8"]
    d = len(U.value) // 8
    buf = np.empty((4 * d * len(inputs), inputs[0].value.shape[1]), tape.dtype)
    gates = (("W_1..W_4", "b_1..b_4"), ("W_5..W_8", "b_5..b_8"))
    projs = [tape.matmul(nodes[w], x, nodes[b], out=buf[4 * d * t : 4 * d * (t + 1)])
             for t, (x, (w, b)) in enumerate(zip(inputs, gates))]
    proj = tape.vstack(projs, out=buf)
    h = tape.lstm_gates(proj, U, widths)
    tape.release(proj, *projs)
    return [tape.rows(h, d * t, d * (t + 1)) for t in range(len(inputs))]


def build_graph(tape, nodes, batch, config, export=False):
    """Record the full batch forward pass on a tape.

    ``nodes`` maps the names of :meth:`Parameters.leaves` (the gate blocks
    of :data:`GATE_BLOCKS`, every other tensor by name) to leaves.  No op
    is recorded per step, so the tape length does not depend on L.  Every
    op runs once over the batch's P = ``batch.n_preds`` packed columns (see
    :class:`Batch`): the embeddings of the P input and, for zeta, the P next
    interactions, the response-split input encodings and their projections,
    one :meth:`Tape.lstm_gates` node for both tracks, and the alpha/beta/zeta
    heads over its P hidden states, each a :meth:`Tape.matmul` with its relu
    in place and a last layer fused into :meth:`Tape.relu_pool`.  Score
    vectors therefore align with ``batch.responses[P:]``.  The fusion and the loss follow the active
    variant; ``export`` also records the scores the variant leaves out and
    the per-KC masteries, which exports report for every variant.
    The loss, one :meth:`Tape.logistic_loss` recorded only on a tape with
    gradients, is the mean BCE of the logit plus ``lambda_aux`` times that of
    each score the variant uses.
    """
    P = batch.n_preds
    n = nodes

    k_in = tape.embed_mean_flat(n["K"], *batch.kc_in, P)
    r = batch.responses[:P]

    q_in = tape.embed(n["Q"], batch.qids[:P])
    qk = tape.vstack([q_in, k_in])
    inputs = [tape.split_by_response(qk, r)]
    if config.needs_mastery_lstm or export:
        inputs.append(tape.split_by_response(k_in, r))
    # no backward and no later op reads the embeddings
    tape.release(q_in, k_in, qk)
    hidden = _recurrence(tape, n, inputs, batch.widths)
    h_ka, h_ks = hidden[0], hidden[1] if len(hidden) > 1 else None
    hidden_a = tape.matmul(n["W_a1"], h_ka, n["b_a1"], relu=True)
    alpha = tape.relu_pool(n["W_a2"], hidden_a, n["b_a2"], n["w_a"])

    beta = zeta = mastery = None
    if config.uses_beta or export:
        hidden_g = tape.matmul(n["W_g1"], h_ks, n["b_g1"], relu=True)
        beta = tape.relu_pool(n["W_g2"], hidden_g, n["b_g2"], n["w_g"])
        if export:
            # the per-KC terms that relu_pool sums, evaluated off the tape
            pre = n["W_g2"].value @ hidden_g.value + n["b_g2"].value[:, None]
            mastery = ad.sigmoid(n["w_g"].value[:, None] * np.maximum(pre, 0.0))
    if config.uses_zeta or export:
        q_next = tape.embed(n["Q"], batch.qids[P:])
        k_next = tape.embed_mean_flat(n["K"], *batch.kc_next, P)
        u = tape.vstack([h_ks, q_next, k_next])
        hidden_p = tape.matmul(n["W_p1"], u, n["b_p1"], relu=True)
        zeta = tape.add(tape.relu_pool(n["W_p2"], hidden_p, n["b_p2"], n["w_p"]), n["b_p"])

    scores = [alpha] + [beta] * config.uses_beta + [zeta] * config.uses_zeta
    if config.variant == "no_irt":
        logit = tape.add(tape.dot_columns(n["irt_w"], tape.vstack(scores)), n["irt_b"])
    else:
        logit = tape.add(*scores)
    r_hat = tape.sigmoid(logit)

    loss = None
    if tape.with_grad:
        lam = config.lambda_aux / P
        aux = scores if lam else []
        loss = tape.logistic_loss([logit] + aux, batch.responses[P:], [1 / P] + [lam] * len(aux))
    return GraphOutputs(loss, r_hat, alpha, beta, zeta, mastery)


def batch_loss_and_grads(params, batch):
    """One forward/backward pass on a :data:`TRAIN_DTYPE` tape; returns
    (loss value, name -> gradient), the gradients of that dtype gathered
    into one :class:`FlatTensors` laid out as ``params``."""
    tape = Tape(TRAIN_DTYPE)
    nodes = params.leaves(tape)
    graph = build_graph(tape, nodes, batch, params.config)
    tape.backward(graph.loss)
    grads = np.concatenate([Tape.grad(node).ravel() for node in nodes.values()])
    return float(graph.loss.value), params.like(grads)


def sequence_outputs(params, seq):
    """Export graph of one sequence (B = 1, no backward pass): every score
    and the per-KC masteries, one column per prediction, at float64."""
    tape = Tape(grad=False)
    return build_graph(tape, params.leaves(tape), Batch([seq]), params.config, export=True)


def batch_predictions(params, batch, dtype=np.float64):
    """Flat (predictions, targets) for one batch, no backward pass, in the
    caller's order: step-major over the sequences' positions in the batch.
    Recorded at ``dtype`` on a forward-only tape: fold scoring passes
    :data:`TRAIN_DTYPE`, and the float64 default is the reference that
    export is checked against."""
    tape = Tape(dtype, grad=False)
    graph = build_graph(tape, params.leaves(tape), batch, params.config)
    return graph.r_hat.value[batch.order], batch.responses[batch.n_preds :][batch.order]
