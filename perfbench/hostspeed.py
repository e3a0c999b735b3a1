"""Host speed, sampled by fixed reference kernels between units of work.

On a shared 2-core x86 host the speed of code like qckt's (small numpy
operations driven from a Python loop) moved between levels up to 1.9x apart,
for seconds to minutes at a time, and runs of the same code could not agree
within any bound.  The benchmark therefore reports times at reference speed:
between units of work it runs two short kernels, each like one kind of work
qckt does, and scales a measured duration by ``nominal time / local time`` of
the kernel of the same kind, where the local time is the median of the
samples nearest to the measured interval.  The kinds slow down by different
factors when the host does: scaled by one kernel, batched graph work and
value-level forwards could not both hold steady.  The kernels use only numpy and this
file, so no change to ``qckt`` can move them, and the time they take is never
counted as work.

The unscaled times stay in the report line.
"""

import gc
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

clock = time.perf_counter

# Each kernel's time (ms) on the host the benchmark was defined on (2-core
# x86, Python 3.11, numpy 2.4, OpenBLAS) at its faster level, so scaled times
# read as milliseconds of that host at that level.
NOMINAL_MS = {"tape": 4.6, "steps": 1.8}
KINDS = tuple(NOMINAL_MS)
NEAREST = 5  # samples whose median gives the local kernel time


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


class HostSpeed:
    """Reference-kernel samples of one run, and scaling by them."""

    def __init__(self):
        rng = np.random.default_rng(0x5BEED)
        self._w = rng.standard_normal((64, 16))
        self._x = rng.standard_normal((16, 64))
        self._m = rng.standard_normal((16, 16))
        self._v = rng.standard_normal(16)
        self.start = array("d")
        self.end = array("d")
        self._mid = array("d")
        self._ms = {kind: array("d") for kind in KINDS}

    def _tape(self):
        # a miniature tape: small GEMMs and elementwise ops in a Python loop,
        # then a reverse sweep over the recorded nodes
        nodes, v = [], self._x
        for i in range(300):
            h = self._w @ v
            node = _Node(np.tanh(h[:16]) * 0.5 + v, (len(nodes), i))
            nodes.append(node)
            v = node.value
        for node in reversed(nodes):
            grads = {"g": node.value * (1.0 - node.value)}
            grads["g"] += 1.0

    def _steps(self):
        # a value-level recurrence over one vector, one output row per step
        rows, u = [], self._v
        for i in range(400):
            u = np.tanh(self._m @ u) * 0.5 + self._v
            s = float(u.sum())
            rows.append({"step": i, "sum": s, "key": (i, s)})

    def sample(self):
        # a collection inside a kernel would walk the program's whole heap
        # and tie the kernels' time to the state of qckt
        gc.disable()
        try:
            t0 = t = clock()
            for kind, kernel in zip(KINDS, (self._tape, self._steps)):
                kernel()
                t, t_prev = clock(), t
                self._ms[kind].append(1e3 * (t - t_prev))
        finally:
            gc.enable()
        self.start.append(t0)
        self.end.append(t)
        self._mid.append(0.5 * (t0 + t))

    def __len__(self):
        return len(self.start)

    def kernel_ms(self, t, kind):
        """Median time (ms) of the ``kind`` kernel over the NEAREST samples to ``t``."""
        n = len(self._mid)
        if n == 0:
            raise RuntimeError("no host-speed sample taken")
        i = bisect_left(self._mid, t)
        lo, hi = max(0, i - NEAREST), min(n, i + NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self._mid[j] - t))[:NEAREST]
        return statistics.median(self._ms[kind][j] for j in near)

    def busy(self, t0, t1):
        """Seconds the kernels ran inside [t0, t1]."""
        i, j = bisect_left(self.start, t0), bisect_right(self.start, t1)
        return sum(min(self.end[k], t1) - self.start[k] for k in range(i, j))

    def scaled(self, t0, t1, kind):
        """Seconds of ``kind`` work in [t0, t1] at reference speed.

        The kernels' own time inside the interval is not work and is taken
        out first.
        """
        work = (t1 - t0) - self.busy(t0, t1)
        return work * NOMINAL_MS[kind] / self.kernel_ms(0.5 * (t0 + t1), kind)

    def summary(self):
        """Per kind: nominal, and the 10th, 50th and 90th percentile kernel time (ms)."""
        out = {}
        for kind in KINDS:
            xs = sorted(self._ms[kind])
            out[kind] = {"nominal": NOMINAL_MS[kind]}
            if xs:
                out[kind].update(p10=xs[len(xs) // 10], p50=statistics.median(xs), p90=xs[9 * len(xs) // 10])
        return out
