"""The fused LSTM gate kernel, forward and backward.

The per-timestep gate math of the two recurrent cells is the inner loop of
training: a dozen elementwise passes over (4d x B) arrays for every step of
every batch.  :meth:`qckt.autodiff.Tape.lstm_gates`, one tape node per
recurrence, calls :func:`gates_forward` once per step in its forward loop and
:func:`gates_backward` once per step in its reverse-time sweep.

Both take float arrays of one dtype, float32 or float64 (``c_prev`` may be a
column slice of a wider state), return C-contiguous ones of that dtype, and
are bit-deterministic.

Gate layout: preactivations are stacked as four d-row blocks
``[input; forget; output; candidate]`` in a single (4d x B) array.  Every
gate, including the candidate, goes through the logistic function -- that is
the model definition here, not an oversight.
"""

import numpy as np


def _sigmoid(x):
    # exp(-|x|) never overflows; both branches are computed and one is kept
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gates_forward(z, c_prev):
    """z: (4d x B) stacked preactivations, c_prev: (d x B).

    Returns (gates, tanh_c, c, h) with gates stacked like z.
    """
    d = c_prev.shape[0]
    gates = _sigmoid(z)
    i = gates[:d]
    f = gates[d : 2 * d]
    o = gates[2 * d : 3 * d]
    cand = gates[3 * d :]
    c = f * c_prev + i * cand
    tc = np.tanh(c)
    h = o * tc
    return gates, tc, c, h


def gates_backward(dh, dc_in, gates, tc, c_prev):
    """Reverse of :func:`gates_forward`; returns (dz, dc_prev)."""
    d = c_prev.shape[0]
    i = gates[:d]
    f = gates[d : 2 * d]
    o = gates[2 * d : 3 * d]
    cand = gates[3 * d :]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dz = np.empty_like(gates)
    dz[:d] = dc * cand * i * (1.0 - i)
    dz[d : 2 * d] = dc * c_prev * f * (1.0 - f)
    dz[2 * d : 3 * d] = dh * tc * o * (1.0 - o)
    dz[3 * d :] = dc * i * cand * (1.0 - cand)
    return dz, dc * f
