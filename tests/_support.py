"""Shared helpers for the test modules."""

import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import qckt.autodiff as ad
import qckt.errors
import qckt.model as qm
from qckt.data import StudentSequence
from qckt.errors import ShapeError

TESTS = Path(__file__).resolve().parent

# every exception class the package defines: the only ones its loaders raise
PACKAGE_ERRORS = tuple(
    v for v in vars(qckt.errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


def run_python(code, timeout=300):
    """Run ``code`` in a fresh interpreter that imports the package and the
    test helpers; returns what it printed, parsed as JSON.  Past ``timeout``
    seconds the interpreter and every process it started are killed, and
    ``subprocess.TimeoutExpired`` is raised."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    with subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, err[-2000:]
    return json.loads(out)


def seq_of(rows):
    """A :class:`StudentSequence` of (question, kcs, response) rows with
    timestamps 0, 1, ...; responses keep their values, so a test can pass
    one that is not 0/1."""
    rows = list(rows)
    return StudentSequence.from_columns(
        "s",
        np.array([q for q, _, _ in rows], dtype=np.int64),
        [kcs for _, kcs, _ in rows],
        np.array([r for _, _, r in rows]),
        np.arange(len(rows)),
    )


def make_seq(rng, length, n, m, max_kcs=3):
    rows = []
    for _ in range(length):
        q = int(rng.integers(n))
        size = int(rng.integers(1, min(max_kcs, m) + 1))
        kcs = tuple(int(k) for k in rng.choice(m, size=size, replace=False))
        rows.append((q, kcs, int(rng.integers(2))))
    return seq_of(rows)


def budget_batch():
    """Initial parameters and one batch for the memory budgets: n = 2000,
    m = 20, d = 16, B = 16 sequences of lengths 40-50."""
    params = qm.Parameters.init(qm.ModelConfig(2000, 20, 16), seed=5)
    rng = np.random.default_rng(5)
    lengths = rng.integers(40, 51, size=16)
    return params, qm.Batch([make_seq(rng, int(n), 2000, 20) for n in lengths])


def random_params(cfg, seed, scale=0.05):
    """Generic-position parameters for finite-difference comparisons.

    The training init puts many biases exactly at zero, which parks relu
    preactivations on their kink; central differences then step across the
    kink and disagree with the subgradient for reasons that are not bugs.
    Adding continuous noise to every tensor makes exact-kink events have
    probability zero.
    """
    p = qm.Parameters.init(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    return qm.Parameters(cfg, p.flat + rng.normal(0.0, scale, size=p.flat.shape))


def stack(arrays):
    """A :class:`qckt.model.FlatTensors` of copies of the arrays of a name ->
    array mapping, back to back in its order in one fresh vector of their
    common dtype."""
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    flat = np.concatenate([arr.ravel() for arr in arrays.values()])
    return qm.FlatTensors(qm._spans({name: arr.shape for name, arr in arrays.items()}), flat)


def with_header(blob, edit):
    """A checkpoint whose JSON header has gone through ``edit``."""
    start = len(qm.CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", blob, len(qm.CHECKPOINT_MAGIC))
    header = json.loads(blob[start : start + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    return qm.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + blob[start + hlen :]


class Tape(ad.Tape):
    """The package tape plus the ops that only finite-difference graphs use."""

    def mul(self, a, b):
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul shapes differ: {a.value.shape} vs {b.value.shape}")
        av, bv = a.value, b.value
        return self._record("mul", av * bv, (a, b), lambda g: (g * bv, g * av))

    def relu(self, x):
        # gradient at exactly 0 is 0 (subgradient choice); the mask is made
        # by the backward, from the input's value, which the tape keeps
        return self._record("relu", np.maximum(x.value, 0.0), (x,), lambda g: (g * (x.value > 0),))

    def tanh(self, x):
        y = np.tanh(x.value)
        return self._record("tanh", y, (x,), lambda g: (g * (1.0 - y * y),))

    def scale_const(self, x, c):
        """Multiply by a python constant."""
        c = float(c)
        return self._record("scale_const", x.value * c, (x,), lambda g: (g * c,))

    def col_slice(self, x, start, stop):
        """Columns start..stop-1 of a (r x N) matrix -> (r x (stop - start))."""
        if x.value.ndim != 2 or not 0 <= start < stop <= x.value.shape[1]:
            raise ShapeError(f"col_slice [{start}:{stop}] of shape {x.value.shape}")

        def backward(g):
            gx = np.zeros_like(x.value)
            gx[:, start:stop] = g
            return (gx,)

        return self._record("col_slice", x.value[:, start:stop], (x,), backward)

    def sum_pool(self, x):
        """Sum of a rank-1 tensor; gradient broadcasts 1 to every entry."""
        if x.value.ndim != 1:
            raise ShapeError(f"sum_pool requires a vector, got shape {x.value.shape}")
        shape = x.value.shape
        return self._record("sum_pool", x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shape),))


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
    the dict of parameter leaf nodes on a :class:`Tape` of this module.
    Gradients are checked entrywise with relative error
    |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).
    """
    params = {k: ad.as_tensor(v) for k, v in params.items()}

    def loss_value():
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in params.items()}
        return float(build(tape, nodes).value)

    tape = Tape()
    nodes = {k: tape.leaf(v) for k, v in params.items()}
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
