"""Reverse-mode automatic differentiation on a per-run tape.

Tensors are C-contiguous float64 numpy arrays (scalars are 0-d arrays).  A
:class:`Tape` records every operation as an append-only list of nodes, so the
node list is already topologically ordered and :meth:`Tape.backward` is a
single reverse sweep.  Tapes are cheap and rebuilt for every sequence batch;
one tape is single-threaded, distinct tapes share nothing.

Beyond the rank-1 core ops, most ops accept an extra trailing batch axis
(columns), which is how sequence batches are pushed through the model graph.
Time is folded into that axis too, step-major: :meth:`Tape.lstm_gates` runs a
whole LSTM recurrence as one node, so no graph built here loops over time.
"""

import numpy as np

from . import kernels
from .errors import DomainError, ShapeError

EPS_PROB = 1e-12  # probability clamp before logs


def as_tensor(x):
    """Coerce to a C-ordered float64 ndarray (0-d for scalars)."""
    return np.asarray(x, dtype=np.float64, order="C")


def sigmoid(x):
    """Numerically stable logistic function, elementwise: the gate kernel's,
    for arrays of any shape and for scalars."""
    x = np.asarray(x, dtype=np.float64)
    return kernels._sigmoid(x.reshape(-1)).reshape(x.shape)[()]


def bce_value(pred, target):
    """Binary cross entropy with the standard probability clamp."""
    p = np.clip(pred, EPS_PROB, 1.0 - EPS_PROB)
    return -(target * np.log(p) + (1.0 - target) * np.log1p(-p))


class Node:
    """One recorded operation: kind, input node ids, output value.

    ``grad`` is populated by :meth:`Tape.backward`; it always has the same
    shape as ``value``.
    """

    __slots__ = ("id", "op", "value", "inputs", "grad", "name", "_backward")

    def __init__(self, nid, op, value, inputs, backward, name=None):
        self.id = nid
        self.op = op
        self.value = value
        self.inputs = inputs
        self.grad = None
        self.name = name
        self._backward = backward

    def __repr__(self):
        return f"Node({self.id}, {self.op}, shape={self.value.shape})"


def _ensure_grad(node):
    """Give node a zeroed gradient buffer if it has none yet."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    return node.grad


def _accumulate(node, g):
    """Add gradient contribution g (shaped like node.value) to node.grad.
    The first one is copied, so no two nodes ever share a gradient buffer."""
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


def flatten_groups(groups):
    """Turn per-column index groups into flat (rows, cols, weights) arrays.

    Weight of each member is 1/len(group), so a weighted scatter computes the
    per-group mean.
    """
    rows, cols, wts = [], [], []
    for j, grp in enumerate(groups):
        grp = list(grp)
        if not grp:
            raise DomainError("embed_mean: empty index group")
        inv = 1.0 / len(grp)
        rows.extend(grp)
        cols.extend([j] * len(grp))
        wts.extend([inv] * len(grp))
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(wts, dtype=np.float64),
    )


class Tape:
    def __init__(self):
        self.nodes = []

    def _record(self, op, value, inputs, backward, name=None):
        node = Node(len(self.nodes), op, as_tensor(value), tuple(inputs), backward, name)
        self.nodes.append(node)
        return node

    def leaf(self, value, name=None):
        """Record an input tensor (parameter or constant)."""
        return self._record("leaf", value, (), None, name=name)

    # -- core ops ----------------------------------------------------------

    def matmul(self, w, x):
        """W (r x c) times x, where x is a vector (c,) or batch (c x B)."""
        wv, xv = w.value, x.value
        if wv.ndim != 2 or xv.ndim not in (1, 2) or wv.shape[1] != xv.shape[0]:
            raise ShapeError(f"cannot multiply {wv.shape} by {xv.shape}")
        out = wv @ xv

        def backward(g):
            _accumulate(w, np.outer(g, xv) if xv.ndim == 1 else g @ xv.T)
            _accumulate(x, wv.T @ g)

        return self._record("matmul", out, (w, x), backward)

    def add(self, a, b):
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g)

        return self._record("add", a.value + b.value, (a, b), backward)

    def mul(self, a, b):
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul shapes differ: {a.value.shape} vs {b.value.shape}")

        def backward(g):
            _accumulate(a, g * b.value)
            _accumulate(b, g * a.value)

        return self._record("mul", a.value * b.value, (a, b), backward)

    def sigmoid(self, x):
        y = sigmoid(x.value)

        def backward(g):
            _accumulate(x, g * y * (1.0 - y))

        return self._record("sigmoid", y, (x,), backward)

    def tanh(self, x):
        y = np.tanh(x.value)

        def backward(g):
            _accumulate(x, g * (1.0 - y * y))

        return self._record("tanh", y, (x,), backward)

    def relu(self, x):
        # gradient at exactly 0 is 0 (subgradient choice)
        y = np.maximum(x.value, 0.0)
        pos = x.value > 0

        def backward(g):
            _accumulate(x, g * pos)

        return self._record("relu", y, (x,), backward)

    def vstack(self, parts):
        """Axis-0 concatenation of matrices/vectors with equal trailing shape."""
        parts = tuple(parts)
        out = np.concatenate([p.value for p in parts], axis=0)
        sizes = [p.value.shape[0] for p in parts]

        def backward(g):
            off = 0
            for p, k in zip(parts, sizes):
                _accumulate(p, g[off : off + k])
                off += k

        return self._record("vstack", out, parts, backward)

    def sum_pool(self, x):
        """Sum of a rank-1 tensor; gradient broadcasts 1 to every entry."""
        if x.value.ndim != 1:
            raise ShapeError(f"sum_pool requires a vector, got shape {x.value.shape}")

        def backward(g):
            _accumulate(x, np.broadcast_to(g, x.value.shape))

        return self._record("sum_pool", x.value.sum(), (x,), backward)

    # -- batched extensions --------------------------------------------------

    def add_bias(self, x, b):
        """Add a (r,) bias to every column of a (r x B) matrix."""
        if x.value.ndim != 2 or b.value.shape != (x.value.shape[0],):
            raise ShapeError(f"add_bias shapes: {x.value.shape} and {b.value.shape}")

        def backward(g):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=1))

        return self._record("add_bias", x.value + b.value[:, None], (x, b), backward)

    def scale_columns(self, x, coeffs):
        """Multiply column j of x by the constant coeffs[j] (no grad to coeffs)."""
        coeffs = as_tensor(coeffs)
        if x.value.ndim != 2 or coeffs.shape != (x.value.shape[1],):
            raise ShapeError(f"scale_columns shapes: {x.value.shape} and {coeffs.shape}")

        def backward(g):
            _accumulate(x, g * coeffs[None, :])

        return self._record("scale_columns", x.value * coeffs[None, :], (x,), backward)

    def as_row(self, x):
        """View a (B,) vector as a (1 x B) single-row matrix."""
        if x.value.ndim != 1:
            raise ShapeError(f"as_row requires a vector, got {x.value.shape}")

        def backward(g):
            _accumulate(x, g[0])

        return self._record("as_row", x.value[None, :], (x,), backward)

    def col_slice(self, x, start, stop):
        """Columns start..stop-1 of a (r x N) matrix -> (r x (stop - start))."""
        if x.value.ndim != 2 or not 0 <= start < stop <= x.value.shape[1]:
            raise ShapeError(f"col_slice [{start}:{stop}] of shape {x.value.shape}")

        def backward(g):
            _ensure_grad(x)
            x.grad[:, start:stop] += g

        return self._record("col_slice", x.value[:, start:stop], (x,), backward)

    def relu_pool(self, W, x, b, w):
        """Pooled relu layer: w . relu(W x[:, j] + b) for each column -> (N,).

        One node in place of matmul, add_bias, relu, a row scaling and a
        column sum; only the (r x N) relu output is kept for the backward.
        """
        Wv, xv, bv, wv = W.value, x.value, b.value, w.value
        if (
            Wv.ndim != 2
            or xv.ndim != 2
            or Wv.shape[1] != xv.shape[0]
            or bv.shape != (Wv.shape[0],)
            or wv.shape != bv.shape
        ):
            raise ShapeError(f"relu_pool shapes: {Wv.shape}, {xv.shape}, {bv.shape}, {wv.shape}")
        act = Wv @ xv
        act += bv[:, None]
        np.maximum(act, 0.0, out=act)

        def backward(g):
            _accumulate(w, act @ g)
            # the relu output is > 0 exactly where its preactivation is
            ga = np.multiply.outer(wv, g)
            ga *= act > 0.0
            _accumulate(W, ga @ xv.T)
            _accumulate(b, ga.sum(axis=1))
            _accumulate(x, Wv.T @ ga)

        return self._record("relu_pool", wv @ act, (W, x, b, w), backward)

    def dot_columns(self, w, x):
        """w . x[:, j] for each column -> (B,)."""
        if x.value.ndim != 2 or w.value.shape != (x.value.shape[0],):
            raise ShapeError(f"dot_columns shapes: {w.value.shape} and {x.value.shape}")

        def backward(g):
            _accumulate(w, x.value @ g)
            _accumulate(x, np.outer(w.value, g))

        return self._record("dot_columns", w.value @ x.value, (w, x), backward)

    def add_scalar(self, x, s):
        """Add a scalar parameter node to every entry of x."""
        if s.value.ndim != 0:
            raise ShapeError("add_scalar expects a scalar node")

        def backward(g):
            _accumulate(x, g)
            _accumulate(s, g.sum())

        return self._record("add_scalar", x.value + s.value, (x, s), backward)

    def scale_const(self, x, c):
        """Multiply by a python constant."""
        c = float(c)

        def backward(g):
            _accumulate(x, g * c)

        return self._record("scale_const", x.value * c, (x,), backward)

    def embed(self, table, indices):
        """Select rows of an (n x d) table -> columns of a (d x B) matrix."""
        indices = np.asarray(indices, dtype=np.int64)
        out = table.value[indices].T

        def backward(g):
            _ensure_grad(table)
            np.add.at(table.grad, indices, g.T)

        return self._record("embed", out, (table,), backward)

    def embed_mean_flat(self, table, rows, cols, wts, n_cols):
        """Average row groups of an (n x d) table -> columns of (d x n_cols).

        The groups, one non-empty index collection per output column, come
        pre-flattened by :func:`flatten_groups`.
        """
        d = table.value.shape[1]
        out = np.zeros((d, n_cols))
        np.add.at(out.T, cols, table.value[rows] * wts[:, None])

        def backward(g):
            _ensure_grad(table)
            np.add.at(table.grad, rows, g.T[cols] * wts[:, None])

        return self._record("embed_mean", out, (table,), backward)

    def lstm_gates(self, proj, u, B):
        """A whole LSTM recurrence as one node -> (d x T*B) hidden states.

        ``proj`` (4d x T*B) holds the input projections W x + b of T steps,
        step-major (columns t*B..t*B+B-1 are step t); ``u`` (4d x d) is the
        stacked U.  From zero h and c, step t runs :func:`kernels.gates_forward`
        on its columns of proj plus u @ h; the backward is one reverse-time
        sweep of :func:`kernels.gates_backward`.
        """
        pv, uv = proj.value, u.value
        d = uv.shape[-1] if uv.ndim else 0
        N = pv.shape[-1] if pv.ndim else 0
        if pv.ndim != 2 or len(pv) != 4 * d or uv.shape != (4 * d, d) or not 0 < B <= N or N % B:
            raise ShapeError(f"lstm_gates shapes: {pv.shape} and {uv.shape} at B = {B}")
        h = c = zero = np.zeros((d, B))
        steps, hs = [], []  # (gates, tanh c, c_prev, h_prev) per step, as the kernel made them
        for s in range(0, N, B):
            gates, tc, c_next, h_next = kernels.gates_forward(pv[:, s : s + B] + uv @ h, c)
            steps.append((gates, tc, c, h))
            h, c = h_next, c_next
            hs.append(h)

        def backward(g):
            dproj, du = np.empty_like(pv), np.zeros_like(uv)
            dh = dc = zero
            for s, (gates, tc, c_prev, h_prev) in zip(range(N - B, -1, -B), reversed(steps)):
                dz, dc = kernels.gates_backward(g[:, s : s + B] + dh, dc, gates, tc, c_prev)
                dproj[:, s : s + B] = dz
                du += dz @ h_prev.T
                dh = uv.T @ dz
            if proj.grad is None:
                proj.grad = dproj  # fresh, so no other node shares it
            else:
                proj.grad += dproj
            _accumulate(u, du)

        h = np.concatenate(hs, axis=1)
        return self._record("lstm_gates", h, (proj, u), backward)

    def bce_sum(self, pred, targets, mask=None):
        """Sum of binary cross entropies of a (N,) prediction vector.

        ``targets`` (and optional 0/1 ``mask``) are constants; masked-out
        positions contribute nothing to value or gradient.
        """
        targets = as_tensor(targets)
        if pred.value.shape != targets.shape or pred.value.ndim != 1:
            raise ShapeError(f"bce_sum shapes: {pred.value.shape} and {targets.shape}")
        m = np.ones_like(targets) if mask is None else as_tensor(mask)
        p = np.clip(pred.value, EPS_PROB, 1.0 - EPS_PROB)
        inside = (pred.value > EPS_PROB) & (pred.value < 1.0 - EPS_PROB)
        val = float((m * bce_value(p, targets)).sum())

        def backward(g):
            _accumulate(pred, g * m * inside * (p - targets) / (p * (1.0 - p)))

        return self._record("bce_sum", val, (pred,), backward)

    # -- reverse sweep -------------------------------------------------------

    def backward(self, loss):
        """Fill ``grad`` on every node reachable from the scalar loss."""
        if loss.value.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)

    @staticmethod
    def grad(node):
        """Gradient of the last backward pass; zeros if unreachable from loss."""
        if node.grad is None:
            return np.zeros_like(node.value)
        return node.grad


class GradCheckReport:
    """Per-parameter max relative error between tape and finite differences."""

    def __init__(self, h, tol):
        self.h = h
        self.tol = tol
        self.max_rel_err = {}
        self.failures = []

    @property
    def passed(self):
        return not self.failures and all(e < self.tol for e in self.max_rel_err.values())

    def worst(self):
        return max(self.max_rel_err.values()) if self.max_rel_err else 0.0

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL {self.failures or ''}"
        return f"GradCheckReport(worst={self.worst():.3g}, tol={self.tol}, {state})"


def grad_check(build, params, h=1e-5, tol=1e-4):
    """Compare tape gradients against central finite differences.

    ``build(tape, nodes)`` must deterministically construct a scalar loss from
    the dict of parameter leaf nodes.  Gradients are checked entrywise with
    relative error |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).
    """
    params = {k: as_tensor(v) for k, v in params.items()}

    def loss_value():
        tape = Tape()
        nodes = {k: tape.leaf(v, name=k) for k, v in params.items()}
        return float(build(tape, nodes).value)

    tape = Tape()
    nodes = {k: tape.leaf(v, name=k) for k, v in params.items()}
    loss = build(tape, nodes)
    tape.backward(loss)

    report = GradCheckReport(h, tol)
    for name, arr in params.items():
        g_ad = Tape.grad(nodes[name])
        if not np.all(np.isfinite(g_ad)):
            report.failures.append(f"non-finite tape gradient for {name}")
            report.max_rel_err[name] = np.inf
            continue
        g_fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), g_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * h)
        if not np.all(np.isfinite(g_fd)):
            report.failures.append(f"non-finite finite-difference gradient for {name}")
            report.max_rel_err[name] = np.inf
            continue
        denom = np.maximum(1e-8, np.abs(g_ad) + np.abs(g_fd))
        report.max_rel_err[name] = float(np.max(np.abs(g_ad - g_fd) / denom)) if flat.size else 0.0
    return report
