"""Spans around calls into ``qckt``, recorded from outside the package.

A :class:`Tracer` replaces public functions and methods of the ``qckt``
modules with wrappers that record one span per call: name, start, end, the
enclosing span and the trace (one parameter update or one CLI request) it
belongs to.  Spans stay in memory in flat arrays and are written out once, at
the end of a run.

Two instrumentation levels share this code:

* ``Tracer(only=TIMING_SPANS)`` wraps the handful of calls that delimit a
  parameter update.  End-to-end runs use it to time updates; it adds a few
  microseconds per update.
* ``Tracer()`` wraps every public function, which yields per-layer self
  times and the counts gathered by observers (tape nodes, GEMM FLOPs, tape
  bytes, recurrent cells).  Only trace runs use it.

A layer is a ``qckt`` module.  A span's self time is its duration minus the
durations of its direct children, so the self times of a subtree add up to
the duration of its root.
"""

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("autodiff", "kernels", "model", "training", "data", "evaluation", "cli")

# Constructors that do real work get a span named after the class.  The
# per-element value classes (tape nodes, interactions) are left alone.
TIMED_CONSTRUCTORS = ("Batch", "Parameters", "PredictionSet", "AdamState")

# The calls that delimit a parameter update inside ``qckt.training.train``.
TRAIN = "training.train"
UPDATE_OPENERS = ("model.Batch", "model.batch_loss_and_grads")
UPDATE_CLOSER = "training.adam_step"
VALIDATION = "training.predictions_over"
TIMING_SPANS = (TRAIN, VALIDATION, UPDATE_CLOSER) + UPDATE_OPENERS

OBSERVE = "trace.observe"


class Tracer:
    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.trace_keys = []
        self._kind_counts = {}
        self.current = self.new_trace("setup")
        self._stack = []
        self._patches = []
        self.observers = {}
        self._observe_id = self.intern(OBSERVE)
        self._train_id = self.intern(TRAIN)
        self._update_open = False
        # called between two updates inside ``train``, outside any span
        self.between_updates = None
        self.enter_hooks = {
            **dict.fromkeys(UPDATE_OPENERS, self._open_update),
            UPDATE_CLOSER: self._close_update,
            VALIDATION: self._open_validation,
        }

    # -- traces and names ----------------------------------------------------

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_trace(self, kind):
        """Start a new trace of ``kind`` and make it current; returns its id."""
        seq = self._kind_counts.get(kind, 0)
        self._kind_counts[kind] = seq + 1
        self.trace_keys.append((kind, seq))
        self.current = len(self.trace_keys) - 1
        return self.current

    # phase switches inside ``train``: an update runs from its first batch or
    # loss call to the end of its Adam step, validation from predictions_over
    # until the next update starts
    def _open_update(self, parent):
        if parent == self._train_id and not self._update_open:
            self._update_open = True
            self.new_trace("update")

    def _close_update(self, parent):
        if parent == self._train_id:
            self._update_open = False

    def _after_update(self, parent):
        if self.between_updates is not None and parent >= 0 and self.name_id[parent] == self._train_id:
            self.between_updates()

    def _open_validation(self, parent):
        if parent == self._train_id:
            self._update_open = False
            self.new_trace("validation")

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.intern(name)
        enter = self.enter_hooks.get(name)
        leave = self._after_update if name == UPDATE_CLOSER else None
        observe = self.observers.get(name)
        name_id, starts, ends, parents, traces = (
            self.name_id, self.start, self.end, self.parent, self.trace
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        observe_id = self._observe_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if enter is not None:
                enter(name_id[parent] if parent >= 0 else -1)
            idx = len(starts)
            name_id.append(nid)
            parents.append(parent)
            traces.append(tracer.current)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                # observer time is a child span of the caller, so it is not
                # charged to any qckt layer
                t0 = clock()
                observe(args, result)
                name_id.append(observe_id)
                parents.append(parent)
                traces.append(tracer.current)
                starts.append(t0)
                ends.append(clock())
            if leave is not None:
                leave(parent)
            return result

        return traced

    def install(self, package):
        """Patch every public function of ``package``'s layer modules."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}

        def wrapper_for(name, fn):
            if self.only is not None and name not in self.only:
                return None
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
            return wrappers[id(fn)][1]

        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper_for(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj, wrapper_for)

        # a function is reached through every module that imported it
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def _install_class(self, layer, cls, wrapper_for):
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and cls.__name__ in TIMED_CONSTRUCTORS:
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            wrapper = wrapper_for(name, fn)
            if wrapper is not None:
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._update_open = False

    # -- read-out ------------------------------------------------------------

    def table(self):
        """Spans as numpy arrays (name id, start, end, parent, trace)."""
        return SpanTable(self)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,trace_kind,trace_seq\n")
            names, keys = self.names, self.trace_keys
            for i in range(len(self.start)):
                kind, seq = keys[self.trace[i]]
                fh.write(
                    f"{i},{names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{kind},{seq}\n"
                )


class SpanTable:
    """Columnar view of a tracer's spans with derived self times."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.trace_keys = list(tracer.trace_keys)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.trace = np.frombuffer(tracer.trace, dtype=np.int32).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child
        # layer index per span; observer spans go to the extra "trace" layer
        prefixes = [n.split(".", 1)[0] for n in self.names]
        layer_of = [LAYERS.index(p) if p in LAYERS else len(LAYERS) for p in prefixes]
        self.layer = np.asarray(layer_of, dtype=np.int64)[self.name_id]
        parent_trace = np.where(self.parent >= 0, self.trace[np.maximum(self.parent, 0)], -1)
        # a top span's parent lies outside its trace (or it has none)
        self.top = parent_trace != self.trace
        self.kind = np.asarray([k for k, _ in self.trace_keys])[self.trace]

    def named(self, name):
        nid = self.names.index(name) if name in self.names else -1
        return self.name_id == nid

    def windows(self, kind):
        """(trace id, start, end) of every trace of ``kind`` that has spans.

        A window runs from the first start to the last end of the trace's top
        spans.
        """
        top = self.top & (self.kind == kind)
        ids = np.unique(self.trace[top])
        lo = np.full(len(self.trace_keys), np.inf)
        hi = np.full(len(self.trace_keys), -np.inf)
        np.minimum.at(lo, self.trace[top], self.start[top])
        np.maximum.at(hi, self.trace[top], self.end[top])
        return [(int(t), float(lo[t]), float(hi[t])) for t in ids]


class Counters:
    """Computed counts per trace, gathered by observers on a full tracer.

    * ``graphs``, ``nodes``, ``tape_bytes``: per ``build_graph`` call, the
      tape length and the bytes of the node values it holds when it returns;
    * ``matmul_flop``: 2*r*c*B per ``Tape.matmul``; ``backward`` counts
      reverse sweeps, each of which runs two more GEMMs of that size;
    * ``gate_cells``: hidden units times columns pushed through
      ``Tape.lstm_gates``; ``useful_steps``: sum of (length - 1) over the
      sequences of every ``Batch`` built, i.e. the columns that carry a real
      interaction in each recurrent track.
    """

    KEYS = ("graphs", "nodes", "tape_bytes", "matmul_flop", "backward", "gate_cells", "useful_steps")

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_trace = {}
        tracer.observers.update(
            {
                "model.build_graph": self._graph,
                "autodiff.Tape.matmul": self._matmul,
                "autodiff.Tape.backward": self._backward,
                "autodiff.Tape.lstm_gates": self._gates,
                "model.Batch": self._batch,
            }
        )

    def _add(self, key, value):
        row = self.by_trace.get(self.tracer.current)
        if row is None:
            row = self.by_trace[self.tracer.current] = dict.fromkeys(self.KEYS, 0)
        row[key] += value

    def _graph(self, args, result):
        nodes = args[0].nodes
        self._add("graphs", 1)
        self._add("nodes", len(nodes))
        self._add("tape_bytes", sum(n.value.nbytes for n in nodes))

    def _matmul(self, args, result):
        (r, c), x = args[1].value.shape, args[2].value
        self._add("matmul_flop", 2 * r * c * (x.shape[1] if x.ndim == 2 else 1))

    def _backward(self, args, result):
        self._add("backward", 1)

    def _gates(self, args, result):
        rows, cols = args[1].value.shape
        self._add("gate_cells", rows // 4 * cols)

    def _batch(self, args, result):
        seqs = args[1]
        self._add("useful_steps", sum(len(getattr(s, "interactions", s)) - 1 for s in seqs))

    def total(self, trace_ids):
        out = dict.fromkeys(self.KEYS, 0)
        for tid in trace_ids:
            for key, value in self.by_trace.get(tid, {}).items():
                out[key] += value
        return out
