"""Reverse-mode automatic differentiation on a per-run tape.

Tensors are C-contiguous numpy arrays of the tape's one float dtype
(scalars are 0-d arrays).  A :class:`Tape` records every operation as an
append-only list of nodes, so the node list is already topologically ordered
and :meth:`Tape.backward` is a single reverse sweep.  Tapes are cheap and
rebuilt for every sequence batch, and distinct tapes share nothing.  Ops are
recorded and swept on the calling thread.  :meth:`Tape.relu_pool` and the
large GEMMs of :meth:`Tape.matmul` hand work to other threads: their blocks
run on the process's lanes, one per CPU it may run on (:func:`lane_count`).
The blocks are fixed by the shapes alone and the caller takes their results
back in block order, so no value depends on the lane count.  What runs on a
lane calls numpy only.

Precision: a tape is float64 unless made with another dtype.  Only
:meth:`Tape.leaf` casts a value, so a float32 tape takes float64 parameters
and returns float32 gradients; ops cast the constant arrays they take (a
response vector, targets) the same way.  Every other value an op records,
and every gradient a backward returns, must already have the tape's dtype:
anything else raises ``TypeError``, so an op that silently promotes to
float64 fails at once instead of running the rest of the graph at float64.  A tape made
with ``grad=False`` is forward-only: it keeps no backward closure and no
state that only a backward reads, and its :meth:`Tape.backward` raises.

Twelve ops and :meth:`Tape.leaf` record every model graph.  The elementwise
ops take any shape, and :meth:`Tape.add` adds a 0-d part to every entry.
:meth:`Tape.matmul` multiplies by a (feature x column) matrix, never a
vector, and the batched ops work over such columns: that is how sequence
batches are pushed through the model graph.  Time is folded into the column
axis too, step-major and packed (each step holds only the sequences still
running): :meth:`Tape.lstm_gates` runs the whole LSTM recurrences of all of
a graph's tracks, stacked by rows, as one node with one time loop, so no
graph built here loops over time.

Gradient protocol: an op's backward is a pure function of the output
gradient that returns one gradient per entry of the node's ``inputs``, in
order, and writes to no node.  :meth:`Tape.backward` alone sums them into
``Node.grad``: the first contribution is stored as given, later ones are
added out of place.  A stored gradient is never written after it is made, so
nodes may share gradient buffers.  A tape is swept once: as the sweep passes
a node that is not a leaf, it drops that node's gradient and backward closure
(with the activations the closure holds), so after :meth:`Tape.backward`
gradients remain on the leaves only.

The first :class:`Tape` of a process sets glibc's allocator to keep freed
memory in its heap (:func:`_keep_freed_memory_in_heap`) and numpy's bundled
OpenBLAS to one thread (:func:`_one_blas_thread`), so that the lanes are the
only threads the tape's work runs on and no value depends on the BLAS thread
count either; importing the module changes nothing.
"""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ShapeError

# relu_pool works through its rows in blocks of about this many bytes of
# float64 (r_k x N) activation, so no (r x N) float array outlives a block; a
# float32 tape takes blocks of the same rows, half the bytes
RELU_POOL_BLOCK_BYTES = 2 << 20
# matmul runs a GEMM of at least this many multiply-adds (r x c x N) as
# two blocks on the lanes: train-long's input projections and zeta head (W of
# 256 x 256, 256 x 128 and 192 x 192 at N near 1568) reach it, while every
# GEMM at the d = 16, B = 64 shapes (r x c at most 64 x 64, N at most 3136)
# and the d = 64 heads' 64 x 64 stay one block, where lanes cost more than
# they save
MATMUL_SPLIT_WORK = 1 << 25

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# this process's lanes: (pid, lane count, pool of the lanes after the first),
# made on first use in each process, since a pool made before a fork has no
# threads in the child
_lanes = (None, 1, None)
# how many processes started together share this one's CPUs (share_lanes)
_lane_share = 1


def lane_count():
    """The lanes :meth:`Tape.relu_pool` and :meth:`Tape.matmul` spread their
    blocks over in this process: the CPUs it may run on, split evenly between
    the processes started together with it (:func:`share_lanes`), and at
    least one."""
    return _lane_pool()[0]


def share_lanes(processes):
    """Split this process's CPUs between it and the other worker processes
    started together with it, ``processes`` in all, so that together they
    run no more lanes than there are CPUs.  Call it in each worker before
    anything there reads its lanes."""
    global _lane_share
    _lane_share = processes


def _lane_pool():
    """(lane count, pool of the lanes after the first) of this process."""
    global _lanes
    if _lanes[0] != os.getpid():
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        count = max(1, (cpus or 1) // _lane_share)
        pool = ThreadPoolExecutor(count - 1, thread_name_prefix="qckt-lane") if count > 1 else None
        _lanes = (os.getpid(), count, pool)
    return _lanes[1:]


def _in_lanes(blocks, work, done=None):
    """work(k, lane) for each block k, then done(k, lane), if given, on the
    calling thread, in block order.

    The blocks go out in rounds of one per lane: lane 0 is the calling
    thread and each other lane a thread of the process's pool, so at most one
    block is in flight per lane, and a lane's scratch is free again once its
    ``done`` has run.  With one lane the blocks run inline, one after the
    other, and one block runs inline without a look at the lanes.  ``work``
    calls numpy only.
    """
    if len(blocks) == 1:
        work(blocks[0], 0)
        if done:
            done(blocks[0], 0)
        return
    count, pool = _lane_pool()
    for lo in range(0, len(blocks), count):
        first, rest = blocks[lo], blocks[lo + 1 : lo + count]
        jobs = [pool.submit(work, k, lane) for lane, k in enumerate(rest, 1)]
        work(first, 0)
        if done:
            done(first, 0)
        for lane, (k, job) in enumerate(zip(rest, jobs), 1):
            job.result()
            if done:
                done(k, lane)


def _gemm_blocks(work, length):
    """The blocks a GEMM of ``work`` multiply-adds splits an axis of
    ``length`` entries into: the whole axis below :data:`MATMUL_SPLIT_WORK`,
    else two halves with the edge on a multiple of 16 entries (one block
    where the axis is shorter than 17), so a float32 column block starts on
    a 64-byte line.  The shape alone sets them, never the lane count: a
    split GEMM rounds as its blocks do, not always as the whole GEMM does,
    so the same blocks give the same bits on any host.
    """
    if work < MATMUL_SPLIT_WORK:
        return [slice(0, length)]
    half = -(-length // 32) * 16
    return [slice(lo, min(lo + half, length)) for lo in range(0, length, half)]


@functools.cache
def _openblas():
    """(thread-count setter, thread-count getter) of numpy's bundled
    OpenBLAS, found once per process; (None, None) where that library or
    either function is not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            lib = ctypes.CDLL(str(lib))
            setter, getter = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        getter.argtypes, getter.restype = (), ctypes.c_int
        return setter, getter
    return None, None


def blas_threads():
    """The thread count numpy's bundled OpenBLAS runs at now, or None where
    it is not found."""
    getter = _openblas()[1]
    return None if getter is None else getter()


@functools.cache
def _one_blas_thread():
    """Set numpy's bundled OpenBLAS to one thread, once per process.

    A GEMM with a long inner dimension, such as a weight gradient, rounds
    differently at two BLAS threads than at one, so an unpinned run's bits
    would follow the host's CPU count; the lanes take back the speed of the
    other threads.  The setting is process-wide; where the setter is not
    found nothing is pinned.
    """
    setter = _openblas()[0]
    if setter is not None:
        setter(1)


@functools.cache
def _keep_freed_memory_in_heap():
    """Stop glibc from handing freed memory back to the OS, once per process.

    An update frees and allocates again the same multi-MB arrays.  By default
    glibc serves such sizes with fresh mappings and trims the heap top when
    they are freed, so every update faults its pages in again.  After this
    call blocks under 32 MiB come from the heap, and the heap is trimmed only
    when more than 1 GiB at its top is free.  The setting is process-wide;
    where there is no glibc nothing happens.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def as_tensor(x):
    """Coerce to a C-ordered float64 ndarray (0-d for scalars)."""
    return np.asarray(x, dtype=np.float64, order="C")


def sigmoid(x):
    """Numerically stable logistic function, elementwise: the gate kernel's,
    for arrays of any shape and for scalars.  A float32 array stays float32;
    anything else is computed at float64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    return kernels._sigmoid(x.reshape(-1)).reshape(x.shape)[()]


class Node:
    """One recorded operation: kind, input nodes, output value.

    ``_backward(g)`` maps the gradient of ``value`` to a tuple with one
    gradient per input.  ``grad`` is set only by :meth:`Tape.backward`, as the
    sum of the contributions of the node's consumers; it has the same shape
    as ``value``, may share its buffer with other nodes and is never written
    in place.  As the sweep passes a node that is not a leaf, it runs the
    node's backward and then sets ``grad`` and ``_backward`` to None, so after
    the sweep only leaves carry a gradient.  On a forward-only tape
    ``_backward`` is None from the start.
    """

    __slots__ = ("id", "op", "value", "inputs", "grad", "_backward")

    def __init__(self, nid, op, value, inputs, backward):
        self.id = nid
        self.op = op
        self.value = value
        self.inputs = inputs
        self.grad = None
        self._backward = backward

    def __repr__(self):
        return f"Node({self.id}, {self.op}, shape={self.value.shape})"


class Tape:
    """An operation record of one dtype; ``grad=False`` makes it forward-only."""

    def __init__(self, dtype=np.float64, grad=True):
        _keep_freed_memory_in_heap()
        _one_blas_thread()
        self.dtype = np.dtype(dtype)
        self.with_grad = grad
        self.nodes = []
        self.swept = False

    def _check(self, what, arr):
        if arr.dtype != self.dtype:
            raise TypeError(f"{what} is {arr.dtype} on a {self.dtype} tape")

    def _record(self, op, value, inputs, backward):
        value = np.asarray(value, order="C")
        self._check(f"the value of {op}", value)
        node = Node(len(self.nodes), op, value, tuple(inputs), backward if self.with_grad else None)
        self.nodes.append(node)
        return node

    def leaf(self, value):
        """Record an input tensor (parameter or constant), cast to the
        tape's dtype."""
        return self._record("leaf", np.asarray(value, dtype=self.dtype), (), None)

    # -- core ops ----------------------------------------------------------

    def matmul(self, w, x, b, out=None, relu=False):
        """Affine layer W x + b: W (r x c) times the (c x N) matrix x, then
        the (r,) bias added to every column.  ``out``, an (r x N) array of
        the tape's dtype such as a row block of a larger one, receives the
        result and becomes the node's value; it rounds as a fresh array
        does.  ``relu`` applies max(., 0) in place, so the node keeps only
        the activation; the backward passes g where it is positive (a
        preactivation of exactly 0 gets no gradient).

        The forward runs by row blocks of W into row blocks of the value, the
        backward as dW and db by row blocks of g and dx by column blocks of
        g, each block on one of the process's lanes (:func:`_in_lanes`).
        The shape alone fixes the blocks (:func:`_gemm_blocks`): a GEMM of
        r c N below :data:`MATMUL_SPLIT_WORK` is one block, run inline as
        one numpy call per product, and a larger one two.  No block's result
        is summed with another's, so every value is the one-lane loop's bit
        for bit on any number of lanes.
        """
        wv, xv, bv = w.value, x.value, b.value
        if wv.ndim != 2 or xv.ndim != 2 or wv.shape[1] != xv.shape[0] or bv.shape != (len(wv),):
            raise ShapeError(f"cannot multiply {wv.shape} by {xv.shape} and add {bv.shape}")
        (r, c), N = wv.shape, xv.shape[1]
        rows = _gemm_blocks(r * c * N, r)
        if out is None:
            out = np.empty((r, N), np.result_type(wv, xv))

        def forward(k, lane):
            block = np.matmul(wv[k], xv, out=out[k])
            block += bv[k, None]
            if relu:
                np.maximum(block, 0.0, out=block)

        _in_lanes(rows, forward)
        # only a relu's backward reads the value, which Tape.release may free
        active = out if relu else None

        def backward(g):
            dtype = np.result_type(wv, xv, g)
            dW, dx, db = np.empty((r, c), dtype), np.empty((c, N), dtype), np.empty(r, dtype)
            # g where the relu passes it, written by the row blocks
            gm = g if active is None else np.empty_like(g)

            def by_rows(k, lane):
                if active is not None:
                    np.multiply(g[k], active[k] > 0, out=gm[k])
                np.matmul(gm[k], xv.T, out=dW[k])
                gm[k].sum(axis=1, out=db[k])

            def by_columns(k, lane):
                np.matmul(wv.T, gm[:, k], out=dx[:, k])

            _in_lanes(rows, by_rows)
            _in_lanes(_gemm_blocks(r * c * N, N), by_columns)
            return dW, dx, db

        return self._record("matmul", out, (w, x, b), backward)

    def add(self, *parts):
        """Sum of parts of one shape, left to right, where a 0-d part is
        added to every entry and gets g.sum(); one part is returned as is."""
        if len(parts) == 1:
            return parts[0]
        if len({p.value.shape for p in parts} - {()}) > 1:
            raise ShapeError(f"add shapes differ: {[p.value.shape for p in parts]}")
        scalar = [p.value.ndim == 0 for p in parts]
        value = sum((p.value for p in parts[1:]), parts[0].value)
        return self._record("add", value, parts, lambda g: tuple(g.sum() if s else g for s in scalar))

    def sigmoid(self, x):
        y = sigmoid(x.value)
        return self._record("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))

    def vstack(self, parts, out=None):
        """Stack by rows as ``np.vstack`` does, an (N,) part as one row; the
        backward gives each part its rows of g in the part's shape here,
        which a :meth:`release` may change later.

        With ``out``, the parts' values must already be its consecutive row
        blocks, in order, as :meth:`matmul` leaves them when given those
        blocks as ``out``: ``out`` becomes the value, and nothing is copied.
        """
        parts = tuple(parts)
        shapes = [p.value.shape for p in parts]
        bounds = np.cumsum([0] + [s[0] if len(s) > 1 else 1 for s in shapes]).tolist()
        if out is None:
            value = np.vstack([p.value for p in parts])
        else:
            # part i must be out[bounds[i]:bounds[i + 1]]: same address, shape and strides
            addr = out.__array_interface__["data"][0]
            if bounds[-1] != len(out) or any(
                p.value.strides != out.strides
                or p.value.shape[1:] != out.shape[1:]
                or p.value.__array_interface__["data"][0] != addr + lo * out.strides[0]
                for p, lo in zip(parts, bounds)
            ):
                raise ShapeError("vstack: the parts are not the row blocks of out")
            value = out
        blocks = list(zip(bounds, bounds[1:], shapes))

        def backward(g):
            return tuple(g[lo:hi].reshape(shape) for lo, hi, shape in blocks)

        return self._record("vstack", value, parts, backward)

    def rows(self, x, lo, hi):
        """Rows lo..hi-1 of a matrix, as a view; the backward places the
        gradient in those rows of a zero matrix."""
        xv = x.value
        if xv.ndim != 2 or not 0 <= lo < hi <= len(xv):
            raise ShapeError(f"rows {lo}..{hi} of a {xv.shape} matrix")

        def backward(g):
            full = np.zeros_like(xv)
            full[lo:hi] = g
            return (full,)

        return self._record("rows", xv[lo:hi], (x,), backward)

    # -- batched extensions --------------------------------------------------

    def split_by_response(self, x, r):
        """Response split [x * r; x * (1 - r)] of an (h x N) matrix: column
        j scaled by the constant r[j] over column j scaled by 1 - r[j]."""
        r = np.asarray(r, dtype=self.dtype)
        if x.value.ndim != 2 or r.shape != (x.value.shape[1],):
            raise ShapeError(f"split_by_response shapes: {x.value.shape} and {r.shape}")
        h, r_not = len(x.value), 1.0 - r
        out = np.empty((2 * h, len(r)), dtype=self.dtype)
        np.multiply(x.value, r, out=out[:h])
        np.multiply(x.value, r_not, out=out[h:])
        return self._record("split_by_response", out, (x,), lambda g: (g[:h] * r + g[h:] * r_not,))

    def relu_pool(self, W, x, b, w):
        """Pooled relu layer: w . relu(W x[:, j] + b) for each column -> (N,).

        One node in place of matmul, relu, a row scaling and a column sum.
        The forward runs over blocks of rows (:data:`RELU_POOL_BLOCK_BYTES`)
        and keeps only the bool (r x N) mask of positive preactivations for
        the backward, and on a forward-only tape not even that; the backward
        needs no activation, since sum_j g_j relu(W x_j + b) = rowsum(W * M) + b * (m @ g)
        with m the mask as float and M = m @ (x * g).T.

        Forward and backward hand the blocks to the process's lanes
        (:func:`_in_lanes`), each lane with scratch for one block made here,
        on the calling thread.  A block writes its own rows of the mask, dW,
        db and dw; its share of the output and of dx goes to its lane's
        scratch and is summed here in block order, so every value is the
        one-lane loop's bit for bit.  A call of one block, such as every
        B = 1 export's, runs inline without a look at the lanes, and its
        forward writes the output directly.
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
        (r, c), N, dtype = Wv.shape, xv.shape[1], self.dtype
        # [W b] @ [x; 1] adds the bias inside the GEMM, saving a pass
        Wb, x1 = np.hstack([Wv, bv[:, None]]), np.vstack([xv, np.ones(N, dtype)])
        step = max(1, RELU_POOL_BLOCK_BYTES // (8 * max(N, 1)))
        blocks = [slice(lo, min(lo + step, r)) for lo in range(0, r, step)]
        one = len(blocks) == 1
        lanes, rows = 1 if one else min(lane_count(), len(blocks)), min(step, r)
        mask = np.empty((r, N), dtype=bool) if self.with_grad else None
        # one block writes the output itself; more write their shares into
        # their lanes' rows of parts, which are summed in block order
        out = np.empty(N, dtype) if one else np.zeros(N, dtype)
        acts, parts = np.empty((lanes, rows, N), dtype), out[None] if one else np.empty((lanes, N), dtype)

        def forward(k, lane):
            act = np.matmul(Wb[k], x1, out=acts[lane, : k.stop - k.start])
            if mask is not None:
                np.greater(act, 0.0, out=mask[k])
            np.maximum(act, 0.0, out=act)
            np.matmul(wv[k], act, out=parts[lane])

        _in_lanes(blocks, forward, None if one else lambda k, lane: np.add(out, parts[lane], out=out))

        def backward(g):
            xg = (xv * g).T
            dW, dx = np.empty_like(Wv), np.zeros_like(xv)
            db, dw = np.empty_like(bv), np.empty_like(wv)
            # per lane: the block's mask as float, M, m @ g, W scaled by w
            # and the block's share of dx
            ms, Ms = np.empty((lanes, rows, N), dtype), np.empty((lanes, rows, c), dtype)
            mgs, Ws = np.empty((lanes, rows), dtype), np.empty((lanes, rows, c), dtype)
            dxs = np.empty((lanes, c, N), dtype)

            def block(k, lane):
                n = k.stop - k.start
                m, M, mg, Wk = ms[lane, :n], Ms[lane, :n], mgs[lane, :n], Ws[lane, :n]
                np.copyto(m, mask[k])
                np.matmul(m, xg, out=M)
                np.matmul(m, g, out=mg)
                np.multiply(wv[k, None], M, out=dW[k])
                np.multiply(wv[k], mg, out=db[k])
                np.multiply(Wv[k], wv[k, None], out=Wk)
                np.matmul(Wk.T, m, out=dxs[lane])
                np.einsum("ij,ij->i", Wv[k], M, out=dw[k])
                dw[k] += np.multiply(bv[k], mg, out=mg)

            _in_lanes(blocks, block, lambda k, lane: np.add(dx, dxs[lane], out=dx))
            dx *= g
            return dW, dx, db, dw

        return self._record("relu_pool", out, (W, x, b, w), backward)

    def dot_columns(self, w, x):
        """w . x[:, j] for each column -> (B,)."""
        wv, xv = w.value, x.value
        if xv.ndim != 2 or wv.shape != (xv.shape[0],):
            raise ShapeError(f"dot_columns shapes: {wv.shape} and {xv.shape}")
        return self._record("dot_columns", wv @ xv, (w, x), lambda g: (xv @ g, np.outer(wv, g)))

    def embed(self, table, indices):
        """Select rows of an (n x d) table -> columns of a (d x B) matrix.

        The backward sums the columns of g into the rows they came from with
        one ``np.bincount`` per feature row, in index order: at float64 that
        is ``np.add.at`` bit for bit, and at float32 it sums in float64 and
        rounds once.  A negative index raises ``IndexError``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n, d = table.value.shape
        if indices.size and indices.min() < 0:
            raise IndexError(f"negative row index into a table of {n} rows")

        def backward(g):
            gt = np.empty((d, n), self.dtype)
            for k in range(d):
                gt[k] = np.bincount(indices, g[k], minlength=n)
            return (gt.T,)

        return self._record("embed", table.value[indices].T, (table,), backward)

    def embed_mean_flat(self, table, rows, cols, wts, n_cols):
        """Weighted row groups of an (m x d) table -> columns of (d x n_cols).

        The groups, one non-empty index collection per output column, come
        flattened: entry i adds wts[i] times table row rows[i] to column
        cols[i], with wts[i] = 1 / (size of its group).  The entries form one
        (m x n_cols) averaging matrix A, in which repeated entries add; the
        forward is the GEMM table.T @ A and the backward A @ g.T.
        """
        m = len(table.value)
        if len(rows) and rows.min() < 0:
            raise IndexError(f"negative row index into a table of {m} rows")
        A = np.bincount(rows * n_cols + cols, wts, minlength=m * n_cols)
        if A.size != m * n_cols:
            raise IndexError(f"row index out of range for a table of {m} rows")
        A = A.reshape(m, n_cols).astype(self.dtype, copy=False)
        return self._record("embed_mean", table.value.T @ A, (table,), lambda g: (A @ g.T,))

    def lstm_gates(self, proj, u, widths):
        """The LSTM recurrences of k tracks over packed columns as one node
        -> (kd x N), track t's hidden states in rows td..(t+1)d-1.

        ``proj`` (k4d x N) stacks k tracks' input projections W x + b, and
        ``u`` (at least k4d x d) whole tracks' U, in the same order; k is
        len(proj) // 4d, and the rows of u past the first k4d are not read
        and get a zero gradient.  In proj the steps run back to back: step t
        owns the next ``widths[t]`` columns, one per sequence still running,
        and the widths never grow.  Every track starts from zero h and c, and
        step t runs :func:`kernels.gates_forward` once for all tracks, on
        (k x 4d x w) views: each track's columns of proj plus its U @ h, where
        h and c keep their first ``widths[t]`` columns, so a sequence that
        ends drops out of the state.  The tracks share nothing, so each gets
        the values a one-track node gives it, bit for bit.  The backward is
        one reverse-time sweep of :func:`kernels.gates_backward` that adds
        each step's dh and dc into the leading columns of the step before.
        What that sweep reads, each step's gates, tanh c and c, is kept on a
        tape with ``grad`` only; it reads h_prev from the output, and never
        reads proj's value, which the caller may :meth:`release` once this
        returns.
        """
        pv, uv = proj.value, u.value
        d = uv.shape[-1] if uv.ndim == 2 else 0
        N = pv.shape[-1] if pv.ndim else 0
        widths = list(widths)
        if (
            pv.ndim != 2
            or not d
            or not len(pv)
            or len(uv) % (4 * d)
            or len(pv) % (4 * d)
            or len(pv) > len(uv)
            or not widths
            or widths[-1] < 1
            or sum(widths) != N
            or widths != sorted(widths, reverse=True)
        ):
            raise ShapeError(f"lstm_gates shapes: {pv.shape} and {uv.shape} at widths {widths}")
        k = len(pv) // (4 * d)
        # (k x 4d x .) views of the tracks' row blocks
        p3, u3 = pv.reshape(k, 4 * d, N), uv[: 4 * d * k].reshape(k, 4 * d, d)
        # each step's h goes into its columns of the output, which the
        # backward reads as h_prev, so no second copy of h is kept
        out = np.empty((k, d, N), self.dtype)
        h = c = h_prev = np.zeros((k, d, widths[0]), self.dtype)
        # (start, gates, tanh c, c_prev, h_prev) per step
        steps = []
        s = 0
        for w in widths:
            if w < h.shape[-1]:  # sliced only where the width drops
                h, c, h_prev = h[..., :w], c[..., :w], h_prev[..., :w]
            z = u3 @ h
            z += p3[..., s : s + w]
            gates, tc, c_next, h = kernels.gates_forward(z, c)
            if self.with_grad:
                steps.append((s, gates, tc, c, h_prev))
            c = c_next
            h_prev = out[..., s : s + w]
            h_prev[...] = h
            s += w

        def backward(g):
            dproj, du = np.empty((k, 4 * d, N), uv.dtype), np.zeros_like(uv)
            du3, ut3 = du[: 4 * d * k].reshape(k, 4 * d, d), u3.transpose(0, 2, 1)
            g = g.reshape(k, d, N)
            dh = dc = np.zeros((k, d, widths[-1]), uv.dtype)
            for s, gates, tc, c_prev, h_prev in reversed(steps):
                w, live = tc.shape[-1], dh.shape[-1]
                if live == w:
                    dh = g[..., s : s + w] + dh
                else:  # sequences that end at this step get no later gradient
                    dh, dh_later = g[..., s : s + w].copy(), dh
                    dh[..., :live] += dh_later
                    dc = np.concatenate([dc, np.zeros((k, d, w - live), uv.dtype)], axis=-1)
                dz, dc = kernels.gates_backward(dh, dc, gates, tc, c_prev)
                dproj[..., s : s + w] = dz
                du3 += dz @ h_prev.transpose(0, 2, 1)
                dh = ut3 @ dz
            return dproj.reshape(4 * d * k, N), du

        return self._record("lstm_gates", out.reshape(k * d, N), (proj, u), backward)

    def release(self, *nodes):
        """Free the values of nodes that nothing reads any more.

        For an op's output that no backward and no later op reads, such as
        the input projections once :meth:`lstm_gates` has run: each value
        becomes an empty array of the tape's dtype with the same trailing
        shape, so its memory goes now instead of with the tape.  The nodes
        keep their place on the tape, and gradients still flow through them.
        """
        for node in nodes:
            if node.op == "leaf":
                raise ValueError("a leaf's value is read by Tape.grad; it cannot be released")
            node.value = np.empty((0,) + node.value.shape[1:], self.dtype)

    def logistic_loss(self, scores, targets, weights):
        """Weighted logistic loss of (N,) logit vectors against constant
        ``targets``: sum_k w_k sum_j [softplus(s_kj) - t_j s_kj] -> scalar.

        The BCE of sigmoid(s_k) taken from the logits: nothing is clamped, so
        the gradient w_k (sigmoid(s_k) - t) holds at every s.  A node may be
        passed more than once; :meth:`backward` sums its contributions.
        """
        scores, weights = tuple(scores), tuple(map(float, weights))
        targets = np.asarray(targets, dtype=self.dtype)
        shapes = sorted({s.value.shape for s in scores})
        if targets.ndim != 1 or shapes != [targets.shape] or len(weights) != len(scores):
            raise ShapeError(f"logistic_loss: {shapes}, {len(weights)} weights, {targets.shape}")
        # exp(-|s|) gives softplus and sigmoid both, and never overflows
        exps = [np.exp(-np.abs(s.value)) for s in scores]
        val = sum(w * float(np.log1p(e).sum() + np.maximum(s.value, 0.0).sum() - targets @ s.value)
                  for s, e, w in zip(scores, exps, weights))

        def backward(g):
            return tuple((g * w) * (np.where(s.value >= 0, 1.0, e) / (1.0 + e) - targets)
                         for s, e, w in zip(scores, exps, weights))

        return self._record("logistic_loss", self.dtype.type(val), scores, backward)

    # -- reverse sweep -------------------------------------------------------

    def backward(self, loss):
        """Fill ``grad`` on every leaf reachable from the scalar loss.

        The only place that assigns ``Node.grad``: each input's first
        contribution is stored as given, later ones are added out of place.
        Each node that is not a leaf loses its gradient and backward closure
        as soon as the sweep has passed it, so a tape is swept once; a second
        call raises, as does any call on a forward-only tape.  A gradient
        not of the tape's dtype raises ``TypeError``.
        """
        if not self.with_grad:
            raise RuntimeError("this tape is forward-only; record on a Tape(grad=True)")
        if loss.value.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        if self.swept:
            raise RuntimeError("this tape has been swept already; record a new one")
        self.swept = True
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.id + 1]):
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                for inp, g in zip(node.inputs, node._backward(node.grad)):
                    g = np.asarray(g)
                    self._check(f"a gradient from {node.op}", g)
                    inp.grad = g if inp.grad is None else inp.grad + g
            node.grad = node._backward = None

    @staticmethod
    def grad(node):
        """A leaf's gradient from the sweep; zeros if unreachable from the loss."""
        if node.grad is None:
            return np.zeros_like(node.value)
        return node.grad
