"""The fused LSTM gate kernel, forward and backward.

The per-timestep gate math of the recurrent cells is the inner loop of
training: a few elementwise passes over (4d x B) arrays for every step of
every batch, where the fixed cost is numpy's per-pass overhead and the
temporaries it allocates, not the arithmetic.  So each kernel writes its
intermediates into its own output arrays (``out=`` and in-place operators)
in the evaluation order of the plain formulas, which keeps its results bit
for bit those of the formulas.  :meth:`qckt.autodiff.Tape.lstm_gates`, one
tape node for both tracks of a graph, calls :func:`gates_forward` once per
step in its forward loop and :func:`gates_backward` once per step in its
reverse-time sweep, each time over every track at once.

Both take float arrays of one dtype, float32 or float64 (``c_prev`` may be a
column slice of a wider state), return C-contiguous ones of that dtype, are
bit-deterministic and write into none of their inputs.  Every array may carry
leading axes, one entry per track: a (k x 4d x B) stack gives each track the
results of a (4d x B) call bit for bit, since every pass is elementwise.

Gate layout: preactivations are stacked as four d-row blocks
``[input; forget; output; candidate]`` in a single (4d x B) array.  Every
gate, including the candidate, goes through the logistic function -- that is
the model definition here, not an oversight.
"""

import numpy as np


def _sigmoid(x):
    # exp(min(x, 0)) / (1 + exp(-|x|)): for x >= 0 the numerator is exactly 1
    # and for x < 0 exactly exp(x), so this is the sign-split form
    # 1 / (1 + exp(-x)) | exp(x) / (1 + exp(x)) bit for bit, and neither
    # exp overflows; seven passes over two fresh arrays, with no mask
    num = np.minimum(x, 0)
    np.exp(num, out=num)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num /= e
    return num


def gates_forward(z, c_prev):
    """z: (... x 4d x B) stacked preactivations, c_prev: (... x d x B).

    Returns (gates, tanh_c, c, h) with gates stacked like z: c = f * c_prev +
    i * cand, tanh_c = tanh(c), h = o * tanh_c.
    """
    d = c_prev.shape[-2]
    gates = _sigmoid(z)
    i = gates[..., :d, :]
    f = gates[..., d : 2 * d, :]
    o = gates[..., 2 * d : 3 * d, :]
    cand = gates[..., 3 * d :, :]
    c = f * c_prev
    tc = i * cand
    c += tc
    np.tanh(c, out=tc)
    return gates, tc, c, o * tc


def gates_backward(dh, dc_in, gates, tc, c_prev):
    """Reverse of :func:`gates_forward`; returns (dz, dc_prev).

    dc = dc_in + (dh * o) * (1 - tanh_c^2); the gate blocks of dz are
    ((dc * cand) * i) * (1 - i), ((dc * c_prev) * f) * (1 - f),
    ((dh * tanh_c) * o) * (1 - o) and ((dc * i) * cand) * (1 - cand), and
    dc_prev = dc * f.
    """
    d = c_prev.shape[-2]
    i = gates[..., :d, :]
    f = gates[..., d : 2 * d, :]
    o = gates[..., 2 * d : 3 * d, :]
    cand = gates[..., 3 * d :, :]
    buf = tc * tc
    np.subtract(1.0, buf, out=buf)
    dc = dh * o
    dc *= buf
    dc += dc_in
    # each block's product a * b, then * g and * (1 - g) in one pass each
    # over all four blocks, so every element is ((a * b) * g) * (1 - g)
    dz = np.empty_like(gates)
    np.multiply(dc, cand, out=dz[..., :d, :])
    np.multiply(dc, c_prev, out=dz[..., d : 2 * d, :])
    np.multiply(dh, tc, out=dz[..., 2 * d : 3 * d, :])
    np.multiply(dc, i, out=dz[..., 3 * d :, :])
    dz *= gates
    dz *= np.subtract(1.0, gates)
    dc *= f
    return dz, dc
