"""qckt benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object; the line
before it is a report with the environment, sample counts and the computed
counts.  ``python3 perfbench/selftest.py`` runs every workload at a tiny
size and checks that every metric named in BENCHMARK.json is emitted.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("train-short", "train-long", "serve")


def import_program():
    """Import qckt from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "qckt" / "__init__.py").is_file():
        raise SystemExit(f"error: no qckt sources under {src}")
    sys.path.insert(0, str(src))
    import qckt
    import qckt.cli
    import qckt.training

    if Path(qckt.__file__).resolve().parent != (src / "qckt").resolve():
        raise SystemExit(f"error: imported qckt from {qckt.__file__}, not from {src}")
    return qckt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every corpus for the self-test")
    args = parser.parse_args(argv)

    qckt = import_program()
    from perfbench.envinfo import environment, load_average
    from perfbench.tracing import LAYERS
    from perfbench.workloads import E2E_UNITS, LAYER_UNITS, REPORT_UNITS, SHAPES, finish, run_serve, run_train

    env = environment(qckt, ROOT, BLAS_THREADS)
    workdir = ROOT / "perfbench" / ".work"
    shape = SHAPES[args.size][args.workload]
    if args.workload == "serve":
        serve_dir = workdir / "serve"
        shutil.rmtree(serve_dir, ignore_errors=True)
        serve_dir.mkdir(parents=True)
        result = run_serve(qckt, shape, args.seed, args.seconds, args.trace, serve_dir)
    else:
        result = run_train(qckt, shape, args.seed, args.seconds, args.trace)
    finish(result)
    env["loadavg_end"] = load_average()

    ledger = result["ledger"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "repetitions": result["reps"],
        "samples": result["samples"],
        "host_speed_ms": result["host_speed_ms"],
        "setup_s_samples": result["setup_s"],
        "setup_s_unscaled_samples": result["setup_s_unscaled"],
        "failed_frac": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "counts": {kind: counts[0] for kind, counts in result["counts"].items()},
    }
    if args.trace:
        units = LAYER_UNITS
        values = result["layers"]
        spans_path = workdir / f"spans-{args.workload}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        result["tracer"].write_csv(spans_path)
        report["spans_csv"] = str(spans_path.relative_to(ROOT))
        report["accounting_ms"] = {
            "unit": values["trace.unit_ms"],
            "sum_of_self": sum(values[f"{layer}.self_ms"] for layer in LAYERS + ("trace",)),
            "unattributed": values["trace.unattributed_ms"],
        }
    else:
        units = E2E_UNITS
        values = result["metrics"]
        report["tail_percentiles"] = result["percentiles"]
        report["metrics"] = {name: {"value": float(values[name]), "unit": unit}
                             for name, unit in REPORT_UNITS.items()}
        all_units = {**E2E_UNITS, **REPORT_UNITS}
        report["unscaled"] = {name: {"value": float(v), "unit": all_units[name]}
                              for name, v in result["unscaled"].items()}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
