"""Backend-switchable numeric kernels for the recurrent hot path.

The per-timestep gate math of the two recurrent cells is the inner loop of
training: a dozen elementwise passes over (4d x B) arrays for every step of
every batch.  Two interchangeable implementations live here:

* ``numpy``  -- vectorized reference implementation,
* ``numba``  -- a fused ``@njit`` version doing one pass per array.

The active backend is chosen at import time from the ``QCKT_BACKEND``
environment variable (``numba`` or ``numpy``; default ``numba`` when
importable) and can be switched at runtime with :func:`set_backend`.

All kernels take and return C-contiguous float64 arrays.  Within one backend
results are bit-deterministic; across backends they agree to ~1 ulp (the two
exp implementations differ in the last bit).

Gate layout: preactivations are stacked as four d-row blocks
``[input; forget; output; candidate]`` in a single (4d x B) array.  Every
gate, including the candidate, goes through the logistic function -- that is
the model definition here, not an oversight.
"""

import os

import numpy as np

from .errors import ConfigError

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAS_NUMBA = False


def _np_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _np_gates_forward(z, c_prev):
    """z: (4d x B) stacked preactivations, c_prev: (d x B).

    Returns (gates, tanh_c, c, h) with gates stacked like z.
    """
    d = c_prev.shape[0]
    gates = _np_sigmoid(z)
    i = gates[:d]
    f = gates[d : 2 * d]
    o = gates[2 * d : 3 * d]
    cand = gates[3 * d :]
    c = f * c_prev + i * cand
    tc = np.tanh(c)
    h = o * tc
    return gates, tc, c, h


def _np_gates_backward(dh, dc_in, gates, tc, c_prev):
    """Reverse of :func:`_np_gates_forward`; returns (dz, dc_prev)."""
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


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _nb_gates_forward(z, c_prev):
        d, b = c_prev.shape
        gates = np.empty_like(z)
        tc = np.empty_like(c_prev)
        c = np.empty_like(c_prev)
        h = np.empty_like(c_prev)
        for col in range(b):
            for row in range(4 * d):
                x = z[row, col]
                if x >= 0.0:
                    gates[row, col] = 1.0 / (1.0 + np.exp(-x))
                else:
                    e = np.exp(x)
                    gates[row, col] = e / (1.0 + e)
            for row in range(d):
                cv = (
                    gates[d + row, col] * c_prev[row, col]
                    + gates[row, col] * gates[3 * d + row, col]
                )
                c[row, col] = cv
                t = np.tanh(cv)
                tc[row, col] = t
                h[row, col] = gates[2 * d + row, col] * t
        return gates, tc, c, h

    @numba.njit(cache=True)
    def _nb_gates_backward(dh, dc_in, gates, tc, c_prev):
        d, b = c_prev.shape
        dz = np.empty_like(gates)
        dc_prev = np.empty_like(c_prev)
        for col in range(b):
            for row in range(d):
                i = gates[row, col]
                f = gates[d + row, col]
                o = gates[2 * d + row, col]
                cand = gates[3 * d + row, col]
                t = tc[row, col]
                dc = dc_in[row, col] + dh[row, col] * o * (1.0 - t * t)
                dz[row, col] = dc * cand * i * (1.0 - i)
                dz[d + row, col] = dc * c_prev[row, col] * f * (1.0 - f)
                dz[2 * d + row, col] = dh[row, col] * t * o * (1.0 - o)
                dz[3 * d + row, col] = dc * i * cand * (1.0 - cand)
                dc_prev[row, col] = dc * f
        return dz, dc_prev


BACKENDS = {"numpy": (_np_gates_forward, _np_gates_backward)}
if HAS_NUMBA:
    BACKENDS["numba"] = (_nb_gates_forward, _nb_gates_backward)


def _default_backend():
    requested = os.environ.get("QCKT_BACKEND", "").strip().lower()
    if requested:
        if requested not in ("numpy", "numba"):
            raise ConfigError(f"QCKT_BACKEND must be 'numpy' or 'numba', got {requested!r}")
        if requested == "numba" and not HAS_NUMBA:
            return "numpy"
        return requested
    return "numba" if HAS_NUMBA else "numpy"


_active = _default_backend()


def set_backend(name):
    """Select the kernel backend ('numpy' or 'numba') for subsequent calls."""
    global _active
    if name not in BACKENDS:
        raise ConfigError(f"unknown backend {name!r}; available: {sorted(BACKENDS)}")
    _active = name


def get_backend():
    return _active


def gates_forward(z, c_prev):
    return BACKENDS[_active][0](z, c_prev)


def gates_backward(dh, dc_in, gates, tc, c_prev):
    return BACKENDS[_active][1](dh, dc_in, gates, tc, c_prev)


def warmup():
    """Trigger JIT compilation on tiny inputs so timing runs start hot."""
    if _active != "numba":
        return
    z = np.zeros((8, 2))
    c = np.zeros((2, 2))
    gates, tc, cc, h = gates_forward(z, c)
    gates_backward(h, cc, gates, tc, c)
