"""The benchmark's workloads: two training shapes and a CLI serving loop.

Every workload is a closed loop with one caller in one process.  It repeats a
fixed unit of work (a ``train`` call, a scoring and export pass, or a cycle
of CLI requests) until its share of the run's time is spent, and counts every
repetition the same way, so rates and medians do not depend on how many
repetitions fit.

Between units of work each workload samples the host's speed with the
reference kernels of ``hostspeed``, and reports its times at reference
speed; the unscaled times go to the report line.

In a trace run, repetitions alternate between fully traced and
uninstrumented; per-layer figures come from the traced ones and the tracing
overhead from comparing the two.  Per-layer times are not scaled.
"""

import contextlib
import csv
import io
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import CorpusSpec, generate, to_dataset, write_csv
from .hostspeed import HostSpeed
from .tracing import LAYERS, TIMING_SPANS, Counters, Tracer

clock = time.perf_counter

SETUP_REPEATS = 5
TOLERANCE = 1e-9  # batch graph vs value-level forward, per prediction
TRACKS = 2  # recurrent tracks of the full model (acquisition and mastery)
MIN_TRACED_REPS = 2  # so computed counts can be compared between repetitions

E2E_UNITS = {
    "train_preds_per_s": "preds/s",
    "update_ms_p50": "ms",
    "update_ms_tail": "ms",
    "valid_auc": "auc",
    "score_preds_per_s": "preds/s",
    "export_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}
# Printed in the report line, not in the result.  A value-level export takes
# about 5 ms; on a shared host some exports of every run were stretched 2-6x
# by pauses no reference kernel sees, and whether a run had more or fewer
# than ten of them decided its tail (5-seed IQR/median 0.36).
REPORT_UNITS = {"export_ms_tail": "ms"}

# per-layer metrics that are the mean inclusive time of one call
PER_CALL = {
    "autodiff.backward_ms": ("autodiff.Tape.backward",),
    "kernels.gates_forward_ms": ("kernels.gates_forward",),
    "kernels.gates_backward_ms": ("kernels.gates_backward",),
    "model.build_graph_ms": ("model.build_graph",),
    "model.batch_ms": ("model.Batch",),
    "model.batch_predictions_ms": ("model.batch_predictions",),
    "model.forward_sequence_ms": ("model.forward_sequence",),
    "model.params_load_ms": ("model.Parameters.load",),
    "training.adam_ms": ("training.adam_step",),
    "training.clip_ms": ("training.clip_gradients",),
    "data.load_dataset_ms": ("data.load_dataset",),
    "data.kfold_split_ms": ("data.kfold_split",),
    "evaluation.auc_ms": ("evaluation.auc",),
    # one export computes both tables; charged per exported sequence
    "evaluation.export_ms": ("evaluation.export_module_outputs", "evaluation.export_knowledge_states"),
}
PER_UNIT_CALLS = {
    "kernels.gates_forward_calls": "kernels.gates_forward",
    "kernels.gates_backward_calls": "kernels.gates_backward",
}

LAYER_UNITS = {
    "autodiff.nodes_per_update": "count",
    "autodiff.matmul_gflop_per_update": "GFLOP",
    "autodiff.tape_mb_per_update": "MB",
    "model.pad_frac": "frac",
    "training.validation_ms": "ms",
    **{name: "ms" for name in PER_CALL},
    **{name: "count" for name in PER_UNIT_CALLS},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS + ("trace",)},
    "trace.unit_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.spans_per_unit": "count",
}


@dataclass(frozen=True)
class TrainShape:
    spec: CorpusSpec
    dim: int
    batch_size: int
    max_len: int  # preprocessing chunk length
    epochs: int  # per train call; patience equals it, so every epoch runs
    lr: float
    exports: int  # held-out sequences exported and checked per repetition


@dataclass(frozen=True)
class ServeShape:
    spec: CorpusSpec
    dim: int
    epochs: int
    lr: float
    exports: int  # export requests per cycle, one per student drawn


SHAPES = {
    "full": {
        # criterion-4 corpus shape; per-node Python overhead dominates
        "train-short": TrainShape(CorpusSpec(2000, 200, 20, (5, 5), (10, 50)), 16, 64, 200, 1, 1e-2, 8),
        # long chunked sequences over a large question table; GEMMs dominate
        "train-long": TrainShape(CorpusSpec(120, 2000, 100, (1, 3), (200, 300)), 64, 32, 50, 1, 1e-2, 12),
        # 500 students keep an eval request near half a second, so a run has
        # about 30; four set-up epochs give the update metrics 100 samples
        "serve": ServeShape(CorpusSpec(500, 200, 20, (1, 3), (10, 50)), 16, 4, 1e-2, 4),
    },
    "tiny": {
        "train-short": TrainShape(CorpusSpec(60, 20, 6, (2, 2), (4, 12)), 4, 8, 200, 1, 1e-2, 2),
        "train-long": TrainShape(CorpusSpec(20, 40, 8, (1, 3), (30, 50)), 4, 8, 10, 1, 1e-2, 2),
        "serve": ServeShape(CorpusSpec(60, 20, 6, (1, 3), (4, 12)), 4, 1, 1e-2, 2),
    },
}


class Ledger:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @contextlib.contextmanager
    def op(self, what):
        self.attempted += 1
        state = {"ok": True}

        def check(cond, detail):
            if not cond and state["ok"]:
                state["ok"] = False
                self._fail(what, detail)
            return cond

        try:
            yield check
        except Exception as exc:  # a raising operation is a failed operation
            if state["ok"]:
                self._fail(what, repr(exc))

    def _fail(self, what, detail):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {detail}")


def p50_tail(samples):
    """Median and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n
    return statistics.median(xs), xs[-1], 100.0


def timing_metrics(updates_ms, train_calls, score_calls, export_ms):
    """Timing metrics; ``*_calls`` are (predictions, seconds) per call."""
    p50, tail, pct = p50_tail(updates_ms)
    e50, etail, epct = p50_tail(export_ms)
    metrics = {
        "train_preds_per_s": rate(train_calls),
        "update_ms_p50": p50,
        "update_ms_tail": tail,
        "score_preds_per_s": rate(score_calls),
        "export_ms_p50": e50,
        "export_ms_tail": etail,
    }
    return metrics, {"update_ms_tail": pct, "export_ms_tail": epct}


def rate(calls):
    """Median over calls of predictions per second.

    A median, because a burst of contention the reference kernels miss
    stretches a few calls, and a ratio of sums would take those in.
    """
    return statistics.median(n / s for n, s in calls)


def ms(durations):
    return [1e3 * d for d in durations]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def n_preds(seqs):
    return sum(len(s) - 1 for s in seqs)


# -- per-layer read-out ------------------------------------------------------


def layer_metrics(tracer, counters, windows, dim):
    """Per-layer figures from a full tracer.

    ``windows`` lists the units of work as (trace id, start, end).  Self times
    and the unattributed rest are per unit and add up to ``trace.unit_ms``.
    """
    tab = tracer.table()
    units = len(windows)
    unit_ids = np.array([w[0] for w in windows], dtype=np.int64)
    span_s = sum(w[2] - w[1] for w in windows)
    in_units = np.isin(tab.trace, unit_ids)
    out = {}
    self_by_layer = np.bincount(
        tab.layer[in_units], weights=tab.self_time[in_units], minlength=len(LAYERS) + 1
    )
    for i, layer in enumerate(LAYERS + ("trace",)):
        out[f"{layer}.self_ms"] = 1e3 * self_by_layer[i] / units
    out["trace.unit_ms"] = 1e3 * span_s / units
    unattributed = span_s - self_by_layer.sum()
    out["trace.unattributed_ms"] = 1e3 * unattributed / units
    out["trace.unattributed_frac"] = unattributed / span_s
    out["trace.spans_per_unit"] = float(in_units.sum()) / units

    for metric, names in PER_CALL.items():
        first = tab.named(names[0])
        total = sum(tab.dur[tab.named(n)].sum() for n in names)
        out[metric] = 1e3 * total / first.sum() if first.any() else 0.0
    for metric, name in PER_UNIT_CALLS.items():
        out[metric] = float((tab.named(name) & in_units).sum()) / units
    valid = tab.top & (tab.kind == "validation")
    out["training.validation_ms"] = 1e3 * tab.dur[valid].sum() / units

    unit_set = set(unit_ids.tolist())
    c = counters.total(unit_set)
    graphs = max(c["graphs"], 1)
    # a reverse sweep runs two more GEMMs per forward one (dW and dx)
    flop = sum(
        row["matmul_flop"] * (3 if row["backward"] else 1)
        for tid, row in counters.by_trace.items()
        if tid in unit_set
    )
    out["autodiff.nodes_per_update"] = c["nodes"] / graphs
    out["autodiff.matmul_gflop_per_update"] = flop / 1e9 / graphs
    out["autodiff.tape_mb_per_update"] = c["tape_bytes"] / 1e6 / graphs
    out["model.pad_frac"] = (
        1.0 - TRACKS * dim * c["useful_steps"] / c["gate_cells"] if c["gate_cells"] else 0.0
    )
    return out


def rep_counts(tracer, counters, first_trace, first_span):
    """Computed counts of one traced repetition, for the exact-repeat check."""
    ids = range(first_trace, len(tracer.trace_keys))
    totals = counters.total(ids)
    calls = {}
    for nid in tracer.name_id[first_span:]:
        calls[tracer.names[nid]] = calls.get(tracer.names[nid], 0) + 1
    totals["calls"] = dict(sorted(calls.items()))
    return totals


def overhead(traced, untraced):
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def repeat(budget, trace, body):
    """Call ``body(traced)`` until ``budget`` seconds are spent.

    In a trace run the calls alternate between traced and uninstrumented,
    starting traced, and at least MIN_TRACED_REPS are traced.  Returns the
    call durations keyed by whether the call was traced.
    """
    durations = {True: [], False: []}
    begin = clock()
    while True:
        traced = trace and len(durations[True]) <= len(durations[False])
        t0 = clock()
        body(traced)
        durations[traced].append(clock() - t0)
        enough = not trace or len(durations[True]) >= MIN_TRACED_REPS
        # stop at the call boundary nearest to the budget
        if enough and clock() - begin + 0.5 * durations[traced][-1] >= budget:
            return durations


class Instrumented:
    """Installs a tracer around one repetition and keeps its computed counts."""

    def __init__(self, qckt, trace):
        self.qckt = qckt
        self.full = Tracer() if trace else None
        self.counters = Counters(self.full) if trace else None
        self.counts = {}

    @contextlib.contextmanager
    def rep(self, kind, tracer):
        """Run one repetition of ``kind`` under ``tracer`` (None: no tracer)."""
        if tracer is None:
            yield None
            return
        first = (len(tracer.trace_keys), len(tracer.start))
        tracer.install(self.qckt)
        try:
            yield tracer
        finally:
            tracer.uninstall()
        if tracer is self.full:
            self.counts.setdefault(kind, []).append(rep_counts(self.full, self.counters, *first))


# -- training workloads ------------------------------------------------------

# share of each repetition spent scoring and exporting with the trained
# parameters; interleaving it with training spreads every kind of sample over
# the whole run
SCORE_SHARE = 0.35


def run_train(qckt, shape, seed, seconds, trace):
    ledger = Ledger()
    speed = HostSpeed()
    raw = to_dataset(generate(shape.spec, seed), qckt.data)
    B, E = shape.batch_size, shape.epochs

    setup = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        ds = qckt.data.preprocess(raw, min_len=3, max_len=shape.max_len)
        train_idx, valid_idx, test_idx = qckt.data.kfold_split(ds, k=5, seed=seed)[0]
        seqs = ds.sequences
        train_seqs = [seqs[i] for i in train_idx]
        valid_seqs = [seqs[i] for i in valid_idx]
        test_seqs = [seqs[i] for i in test_idx]
        mcfg = qckt.model.ModelConfig(n_questions=ds.n_questions, n_kcs=ds.n_kcs, dim=shape.dim)
        tcfg = qckt.training.TrainConfig(lr=shape.lr, batch_size=B, max_epochs=E, patience=E, seed=seed)
        # the first update and validation pass pay lazy allocation costs
        qckt.training.train(mcfg, replace(tcfg, max_updates=1), train_seqs, valid_seqs[:B])
        setup.append((t0, clock()))
        speed.sample()

    # held-out sequences of the median length, so export cost does not hinge
    # on which lengths the seed happened to draw
    median_len = statistics.median_low(len(s) for s in test_seqs)
    order = sorted(range(len(test_seqs)), key=lambda i: (abs(len(test_seqs[i]) - median_len), i))
    exported = [test_seqs[i] for i in order[: shape.exports]]
    batches = [test_seqs[i : i + B] for i in range(0, len(test_seqs), B)]

    timing = Tracer(only=TIMING_SPANS)
    timing.between_updates = speed.sample
    inst = Instrumented(qckt, trace)
    train_w, aucs, trained, refs = [], [], [], []
    score_w, export_w = [], []  # (start, end) of untraced calls; score_w adds predictions

    def train_call(traced):
        with inst.rep("train", inst.full if traced else timing) as tracer:
            tracer.new_trace("rep")
            with ledger.op("train") as check:
                t0 = clock()
                report = qckt.training.train(mcfg, tcfg, train_seqs, valid_seqs)
                t1 = clock()
                losses = np.asarray(report.train_losses, dtype=np.float64)
                if check(losses.size == E and np.isfinite(losses).all(), f"losses {losses}"):
                    aucs.append(report.best_valid_auc)
                    check(aucs[0] == aucs[-1], f"valid AUC {aucs[-1]!r} != {aucs[0]!r} on a rerun")
                    trained.append(report.best_params)
                    if not traced:
                        train_w.append((t0, t1))

    def score_pass(traced, params):
        # scoring batches and exports interleave, so both spread over the pass
        with inst.rep("score", inst.full if traced else None) as tracer:
            for i in range(max(len(batches), len(exported))):
                if i < len(batches):
                    if tracer:
                        tracer.new_trace("score")
                    with ledger.op("score") as check:
                        t0 = clock()
                        p, _ = qckt.model.batch_predictions(params, qckt.model.Batch(batches[i]))
                        t1 = clock()
                        check(np.all((p >= 0.0) & (p <= 1.0)), "prediction outside [0, 1]")
                        if not traced:
                            score_w.append((p.size, t0, t1))
                if i < len(exported):
                    if tracer:
                        tracer.new_trace("export")
                    with ledger.op("export") as check:
                        t0 = clock()
                        rows = qckt.evaluation.export_module_outputs(params, exported[i])
                        t1 = clock()
                        got = np.array([row["r_hat"] for row in rows])
                        if check(got.shape == refs[i].shape, f"{got.size} exported vs {refs[i].size} batch predictions"):
                            err = float(np.max(np.abs(got - refs[i])))
                            check(err <= TOLERANCE, f"forward_sequence vs batch_predictions differ by {err:.3g}")
                        if not traced:
                            export_w.append((t0, t1))
                if not traced:
                    speed.sample()

    def repetition(traced):
        t0 = clock()
        train_call(traced)
        score_for = (clock() - t0) * SCORE_SHARE / (1.0 - SCORE_SHARE)
        if not trained:
            return
        params = trained[-1]
        if not refs:
            # untimed reference for the value-level export: the batch graph
            # on each exported sequence alone
            refs.extend(qckt.model.batch_predictions(params, qckt.model.Batch([s]))[0] for s in exported)
        t_end = clock() + score_for
        score_pass(traced, params)
        while clock() < t_end:
            score_pass(traced, params)

    reps = repeat(seconds, trace, repetition)
    if not trained:
        raise RuntimeError(f"no train call succeeded: {ledger.errors}")

    update_w = [(lo, hi) for _, lo, hi in timing.table().windows("update")]
    updates = ms(hi - lo for lo, hi in update_w)
    result = {
        "ledger": ledger,
        "setup_s": [speed.scaled(*w, "tape") for w in setup],
        "setup_s_unscaled": [hi - lo for lo, hi in setup],
        "reps": len(reps[True]) + len(reps[False]),
        "samples": {"updates": len(updates), "exports": len(export_w), "train_calls": len(train_w),
                    "host_speed": len(speed)},
        "host_speed_ms": speed.summary(),
        "counts": inst.counts,
    }
    if trace:
        traced_windows = inst.full.table().windows("update")
        traced_updates = [1e3 * (hi - lo) for _, lo, hi in traced_windows]
        layers = layer_metrics(inst.full, inst.counters, traced_windows, shape.dim)
        layers["trace.overhead_frac"] = overhead(traced_updates, updates)
        result.update(layers=layers, tracer=inst.full)
        return result

    fit = E * n_preds(train_seqs)
    result["unscaled"], _ = timing_metrics(
        updates, [(fit, hi - lo) for lo, hi in train_w],
        [(n, hi - lo) for n, lo, hi in score_w], ms(hi - lo for lo, hi in export_w),
    )
    result["metrics"], result["percentiles"] = timing_metrics(
        ms(speed.scaled(*w, "tape") for w in update_w), [(fit, speed.scaled(*w, "tape")) for w in train_w],
        [(n, speed.scaled(lo, hi, "tape")) for n, lo, hi in score_w],
        ms(speed.scaled(*w, "steps") for w in export_w),
    )
    result["metrics"]["valid_auc"] = aucs[0]
    return result


# -- serving workload --------------------------------------------------------


def _cli(qckt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qckt.cli.main(argv)
    return code, err.getvalue().strip()


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_serve(qckt, shape, seed, seconds, trace, workdir):
    ledger = Ledger()
    speed = HostSpeed()
    corpus = generate(shape.spec, seed)
    data_csv = workdir / "interactions.csv"
    write_csv(corpus, data_csv)

    # set-up: train a fold-0 checkpoint through the CLI, several times
    timing = Tracer(only=TIMING_SPANS)
    timing.between_updates = speed.sample
    setup, checkpoints = [], []
    speed.sample()
    for i in range(SETUP_REPEATS):
        run_dir = workdir / f"run{i}"
        argv = [
            "train", "--data", str(data_csv), "--fold", "0", "--k", "5",
            "--d", str(shape.dim), "--max-epochs", str(shape.epochs),
            "--patience", str(shape.epochs), "--lr", repr(shape.lr),
            "--batch-size", "64", "--seed", str(seed), "--out", str(run_dir),
        ]
        timing.install(qckt)
        try:
            t0 = clock()
            code, err = _cli(qckt, argv)
            setup.append((t0, clock()))
        finally:
            timing.uninstall()
        speed.sample()
        if code != 0:
            raise RuntimeError(f"qckt train exited {code}: {err}")
        checkpoints.append((run_dir / "checkpoint.bin").read_bytes())
    run_dir = workdir / "run0"
    with ledger.op("train-determinism") as check:
        check(all(c == checkpoints[0] for c in checkpoints), "reruns wrote different checkpoints")

    # reference values for the checks, computed once and untimed
    ds = qckt.data.preprocess(qckt.data.load_dataset(data_csv))
    train_idx, _, test_idx = qckt.data.kfold_split(ds, k=5, seed=seed)[0]
    train_preds = n_preds([ds.sequences[i] for i in train_idx])
    test_preds = n_preds([ds.sequences[i] for i in test_idx])
    params = qckt.model.Parameters.load(run_dir / "checkpoint.bin")
    train_auc = float(_read_csv(run_dir / "report.csv")[0]["auc"])
    valid_auc = max(float(row["valid_auc"]) for row in _read_csv(run_dir / "epochs.csv"))
    # students of about the median length, so export cost does not hinge on
    # which lengths the seed happened to draw
    rng = np.random.default_rng([seed, 0x5E7E])
    off_median = np.abs(corpus.lengths - int(np.median(corpus.lengths)))
    pool = np.argsort(off_median, kind="stable")[: 4 * shape.exports]
    students = [corpus.student_id(int(s)) for s in rng.choice(pool, shape.exports, replace=False)]
    expected = {}
    for sid in students:
        first_chunk = next(s for s in ds.sequences if s.student_id == sid)
        expected[sid], _ = qckt.model.batch_predictions(params, qckt.model.Batch([first_chunk]))

    eval_argv = ["eval", "--data", str(data_csv), "--run", str(run_dir), "--out", str(workdir / "eval")]
    cycle = [("eval", None, eval_argv)] + [
        ("export", sid, ["export", "--data", str(data_csv), "--run", str(run_dir),
                         "--student", sid, "--out", str(workdir / "export")])
        for sid in students
    ]

    inst = Instrumented(qckt, trace)
    eval_w, export_w, windows = [], [], []  # windows: traced requests

    def cycle_rep(traced):
        with inst.rep("cycle", inst.full if traced else None) as tracer:
            for kind, sid, argv in cycle:
                with ledger.op(kind) as check:
                    tid = tracer.new_trace("request") if tracer else None
                    t0 = clock()
                    code, err = _cli(qckt, argv)
                    t1 = clock()
                    if tracer:
                        windows.append((tid, t0, t1))
                    if not check(code == 0, f"exit {code}: {err}"):
                        continue
                    if kind == "eval":
                        rows = [r for r in _read_csv(workdir / "eval" / "report.csv") if r["fold"] == "0"]
                        got = float(rows[0]["auc"])
                        check(got == train_auc, f"eval AUC {got!r} != train AUC {train_auc!r}")
                        if not traced:
                            eval_w.append((t0, t1))
                    else:
                        got = np.array([float(r["r_hat"]) for r in _read_csv(workdir / "export" / "steps.csv")])
                        ref = expected[sid]
                        if check(got.shape == ref.shape, f"{got.size} exported vs {ref.size} batch predictions"):
                            err_max = float(np.max(np.abs(got - ref)))
                            check(err_max <= TOLERANCE, f"export r_hat vs batch_predictions differ by {err_max:.3g}")
                        if not traced:
                            export_w.append((t0, t1))
                if not traced:
                    speed.sample()

    cycle_s = repeat(seconds, trace, cycle_rep)

    setup_spans = timing.table()
    update_w = [(lo, hi) for _, lo, hi in setup_spans.windows("update")]
    is_train = setup_spans.named("training.train")
    train_w = list(zip(setup_spans.start[is_train].tolist(), setup_spans.end[is_train].tolist()))
    result = {
        "ledger": ledger,
        "setup_s": [speed.scaled(*w, "tape") for w in setup],
        "setup_s_unscaled": [hi - lo for lo, hi in setup],
        "reps": len(cycle_s[True]) + len(cycle_s[False]),
        "samples": {"updates": len(update_w), "exports": len(export_w), "evals": len(eval_w),
                    "host_speed": len(speed)},
        "host_speed_ms": speed.summary(),
        "counts": inst.counts,
    }
    if trace:
        layers = layer_metrics(inst.full, inst.counters, windows, shape.dim)
        # request time per cycle: untraced cycles also run the host-speed
        # kernels, between requests
        traced_s = sum(hi - lo for _, lo, hi in windows) / len(cycle_s[True])
        untraced_s = sum(hi - lo for lo, hi in eval_w + export_w) / max(len(cycle_s[False]), 1)
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        result.update(layers=layers, tracer=inst.full)
        return result

    fit = shape.epochs * train_preds
    result["unscaled"], _ = timing_metrics(
        ms(hi - lo for lo, hi in update_w), [(fit, hi - lo) for lo, hi in train_w],
        [(test_preds, hi - lo) for lo, hi in eval_w], ms(hi - lo for lo, hi in export_w),
    )
    result["metrics"], result["percentiles"] = timing_metrics(
        ms(speed.scaled(*w, "tape") for w in update_w), [(fit, speed.scaled(*w, "tape")) for w in train_w],
        # an export request ends in the value-level forward; measured,
        # the "steps" kernel tracked it more closely than "tape" did
        [(test_preds, speed.scaled(*w, "tape")) for w in eval_w],
        ms(speed.scaled(*w, "steps") for w in export_w),
    )
    result["metrics"]["valid_auc"] = valid_auc
    return result


def finish(result):
    """Add the metrics every workload shares and check the computed counts."""
    ledger = result["ledger"]
    for kind, counts in result["counts"].items():
        with ledger.op(f"{kind}-count-repeat") as check:
            check(all(c == counts[0] for c in counts), f"computed counts differ between {kind} repetitions")
    if "metrics" in result:
        result["metrics"].update(
            peak_rss_mb=peak_rss_mb(),
            setup_s=statistics.median(result["setup_s"]),
            ok_frac=1.0 - ledger.failed / ledger.attempted,
        )
        result["unscaled"]["setup_s"] = statistics.median(result["setup_s_unscaled"])
        bad = [k for k, v in result["metrics"].items() if not (math.isfinite(v) and v > 0)]
        with ledger.op("metrics") as check:
            check(not bad, f"metrics not positive and finite: {bad}")
    return result
