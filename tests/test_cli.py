"""End-to-end command-line tests on a tiny synthetic corpus.

Everything drives :func:`qckt.cli.main` with an argv list and checks exit
codes, the fixed output file names, and the documented error buckets
(0 ok, 1 validation, 2 runtime/data).
"""

import csv
import io
import json
import os
import platform
import shutil
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import qckt.cli
import qckt.model
import qckt.training
from _support import with_header
from qckt.cli import COMMANDS, build_parser, main
from qckt.data import HEADER, load_dataset, preprocess
from qckt.evaluation import export_knowledge_states, export_module_outputs
from qckt.model import CHECKPOINT_MAGIC, Parameters, sequence_outputs

SYNTH = [
    "synth",
    "--students", "16",
    "--questions", "8",
    "--kcs", "4",
    "--seq-len", "6,10",
    "--seed", "3",
]
TRAIN_FAST = [
    "--d", "4",
    "--max-epochs", "2",
    "--batch-size", "16",
    "--k", "2",
    "--seed", "1",
]


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """data/ with a synthetic log plus run/ trained on fold 0, and few/ with
    a log of 4 students."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = root / "data"
    assert main(SYNTH + ["--out", str(data_dir)]) == 0
    data = data_dir / "dataset.csv"
    run = root / "run0"
    rc = main(
        ["train", "--data", str(data), "--fold", "0", "--out", str(run)] + TRAIN_FAST
    )
    assert rc == 0
    assert main(SYNTH + ["--students", "4", "--out", str(root / "few")]) == 0
    return {"root": root, "data": data, "run0": run, "few": root / "few" / "dataset.csv"}


@pytest.fixture(scope="module")
def reused(workspace):
    """A --fold all --k 3 run in a clean directory, and the same run trained
    into a directory that holds an earlier --fold 1 --d 3 run."""
    root, data = workspace["root"], workspace["data"]
    train = ["train", "--data", str(data)] + TRAIN_FAST
    assert main(train + ["--fold", "1", "--d", "3", "--out", str(root / "reused")]) == 0
    for name in ("clean", "reused"):
        assert main(train + ["--fold", "all", "--k", "3", "--out", str(root / name)]) == 0
    return {"data": data, "clean": root / "clean", "reused": root / "reused"}


class TestSynth:
    def test_writes_dataset_oracle_manifest(self, workspace):
        data_dir = workspace["data"].parent
        assert (data_dir / "dataset.csv").exists()
        assert (data_dir / "oracle.csv").exists()
        assert (data_dir / "manifest.json").exists()
        students = {row["student_id"] for row in read_csv(workspace["data"])}
        assert len(students) == 16

    def test_same_flags_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SYNTH + ["--out", str(a)]) == 0
        assert main(SYNTH + ["--out", str(b)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "oracle.csv").read_bytes() == (b / "oracle.csv").read_bytes()

    def test_zero_students_is_validation_error(self, tmp_path):
        out = tmp_path / "bad"
        rc = main(["synth", "--students", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_manifest_records_command_and_seed(self, workspace):
        doc = json.loads((workspace["data"].parent / "manifest.json").read_text())
        assert doc["command"] == "synth"
        assert doc["seed"] == 3
        assert "dataset.csv" in doc["outputs"]
        assert doc["version"]
        env = doc["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["threads"] == {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        assert env["cpu_count"] == os.cpu_count()
        assert env["train_dtype"] == "float32" == np.dtype(qckt.model.TRAIN_DTYPE).name


class TestTrain:
    def test_single_fold_outputs(self, workspace):
        run = workspace["run0"]
        for name in ("checkpoint.bin", "epochs.csv", "report.csv", "manifest.json"):
            assert (run / name).exists(), name
        row = read_csv(run / "report.csv")[0]
        assert 0.0 <= float(row["auc"]) <= 1.0
        assert row["fold"] == "0"
        epochs = read_csv(run / "epochs.csv")
        assert len(epochs) == 2

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        again = tmp_path / "again"
        rc = main(
            ["train", "--data", str(workspace["data"]), "--fold", "0",
             "--out", str(again)] + TRAIN_FAST
        )
        assert rc == 0
        run = workspace["run0"]
        assert (again / "checkpoint.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()
        assert (again / "report.csv").read_bytes() == (run / "report.csv").read_bytes()

    def test_variant_flag_reaches_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "noks"
        rc = main(
            ["train", "--data", str(workspace["data"]), "--fold", "0",
             "--variant", "no_ks", "--out", str(out)] + TRAIN_FAST
        )
        assert rc == 0
        params = Parameters.load(out / "checkpoint.bin")
        assert params.config.variant == "no_ks"

    def test_fold_all_writes_per_fold_checkpoints(self, workspace, tmp_path):
        out = tmp_path / "cv"
        rc = main(["train", "--data", str(workspace["data"]), "--out", str(out)] + TRAIN_FAST)
        assert rc == 0
        assert (out / "checkpoint_fold0.bin").exists()
        assert (out / "checkpoint_fold1.bin").exists()
        rows = read_csv(out / "report.csv")
        assert [r["fold"] for r in rows] == ["0", "1", "mean", "std"]
        epochs = read_csv(out / "epochs.csv")
        assert {r["fold"] for r in epochs} == {"0", "1"}

    def test_grid_with_overridden_axes(self, workspace, tmp_path):
        out = tmp_path / "grid"
        rc = main(
            ["train", "--data", str(workspace["data"]), "--grid",
             "--grid-lambdas", "0,1", "--grid-lrs", "1e-2", "--grid-dims", "4",
             "--max-epochs", "1", "--batch-size", "16", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "report.csv")
        assert len(rows) == 2
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["best"]["valid_auc"] == max(float(r["valid_auc"]) for r in rows)

    def test_bad_fold_is_validation_error_without_outputs(self, workspace, tmp_path):
        out = tmp_path / "nope"
        rc = main(
            ["train", "--data", str(workspace["data"]), "--fold", "7",
             "--out", str(out)] + TRAIN_FAST
        )
        assert rc == 1
        assert not out.exists()

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        rc = main(
            ["train", "--data", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path / "o")] + TRAIN_FAST
        )
        assert rc == 2

    def test_config_file_sets_defaults_and_flags_win(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 8\nmax-epochs = 1\n# comment line\n\nseed = 1\n")
        out_a = tmp_path / "fromfile"
        rc = main(
            ["train", "--config", str(cfg), "--data", str(workspace["data"]),
             "--fold", "0", "--batch-size", "16", "--k", "2", "--out", str(out_a)]
        )
        assert rc == 0
        assert Parameters.load(out_a / "checkpoint.bin").config.dim == 8

        out_b = tmp_path / "flagwins"
        rc = main(
            ["train", "--config", str(cfg), "--data", str(workspace["data"]),
             "--fold", "0", "--batch-size", "16", "--k", "2", "--d", "4",
             "--out", str(out_b)]
        )
        assert rc == 0
        assert Parameters.load(out_b / "checkpoint.bin").config.dim == 4

    def test_malformed_config_file_is_validation_error(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        rc = main(
            ["train", "--config", str(cfg), "--data", str(workspace["data"]),
             "--out", str(tmp_path / "o")] + TRAIN_FAST
        )
        assert rc == 1


class TestEval:
    def test_single_run_report(self, workspace, tmp_path):
        out = tmp_path / "eval"
        rc = main(
            ["eval", "--data", str(workspace["data"]),
             "--run", str(workspace["run0"]), "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "report.csv")
        folds = [r["fold"] for r in rows]
        assert folds == ["0", "mean", "std"]
        assert 0.0 <= float(rows[0]["auc"]) <= 1.0
        assert not (out / "pmatrix.csv").exists()

    def test_identical_cv_runs_give_unit_pmatrix(self, workspace, tmp_path):
        runs = []
        for name in ("cva", "cvb"):
            out = tmp_path / name
            rc = main(
                ["train", "--data", str(workspace["data"]), "--out", str(out)]
                + TRAIN_FAST
            )
            assert rc == 0
            runs.append(out)
        out = tmp_path / "cmp"
        rc = main(
            ["eval", "--data", str(workspace["data"]),
             "--run", str(runs[0]), "--run", str(runs[1]), "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "pmatrix.csv")
        assert float(rows[0]["cvb"]) == 1.0
        assert float(rows[1]["cva"]) == 1.0

    def test_single_fold_runs_exit_2_before_writing(self, workspace, tmp_path):
        # two one-fold runs cannot give a p-value matrix; eval must fail
        # before it writes anything, not after report.csv
        out = tmp_path / "cmp"
        rc = main(
            ["eval", "--data", str(workspace["data"]),
             "--run", str(workspace["run0"]), "--run", str(workspace["run0"]), "--out", str(out)]
        )
        assert rc == 2
        assert not (out / "report.csv").exists()

    def test_run_dir_without_manifest_is_runtime_error(self, workspace, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["eval", "--data", str(workspace["data"]),
             "--run", str(empty), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_run_dir_without_checkpoint_is_runtime_error(self, workspace, tmp_path):
        stub = tmp_path / "stub"
        stub.mkdir()
        shutil.copy(workspace["run0"] / "manifest.json", stub)
        rc = main(
            ["eval", "--data", str(workspace["data"]),
             "--run", str(stub), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_uses_the_runs_folds_and_preprocessing(self, tmp_path):
        # trained with --min-len 30, the run's test fold exists only under
        # that preprocessing; eval must reproduce the training report exactly
        data_dir, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--students", "24", "--questions", "8", "--kcs", "4",
                     "--seq-len", "12,45", "--seed", "4", "--out", str(data_dir)]) == 0
        data = data_dir / "dataset.csv"
        assert main(["train", "--data", str(data), "--fold", "0", "--min-len", "30",
                     "--out", str(run)] + TRAIN_FAST) == 0
        rc = main(["eval", "--data", str(data), "--run", str(run), "--out", str(tmp_path / "ev")])
        assert rc == 0
        trained = read_csv(run / "report.csv")[0]
        evaluated = read_csv(tmp_path / "ev" / "report.csv")[0]
        for key in ("fold", "auc", "acc"):
            assert evaluated[key] == trained[key], key
        # a student with fewer than 30 interactions is not in the run's data
        lengths = {}
        for row in read_csv(data):
            lengths[row["student_id"]] = lengths.get(row["student_id"], 0) + 1
        short = min(lengths, key=lengths.get)
        assert lengths[short] < 30
        rc = main(["export", "--data", str(data), "--run", str(run), "--student", short,
                   "--out", str(tmp_path / "ex")])
        assert rc == 2

    def test_scores_at_the_runs_batch_size(self, workspace, tmp_path, monkeypatch):
        # eval scores a test fold as run_fold did, in batches of --batch-size
        sizes = []
        scorer = qckt.training.predictions_over
        monkeypatch.setattr(qckt.training, "predictions_over",
                            lambda p, seqs, size: sizes.append(size) or scorer(p, seqs, size))
        rc = main(["eval", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert sizes == [16]

    def test_missing_listed_checkpoint_exits_2_before_writing(self, reused, tmp_path, capsys):
        run = tmp_path / "cv3"
        shutil.copytree(reused["clean"], run)
        (run / "checkpoint_fold1.bin").unlink()
        capsys.readouterr()
        rc = main(["eval", "--data", str(reused["data"]), "--run", str(run),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "checkpoint_fold1.bin" in err[0]
        assert not (tmp_path / "o").exists()

    def test_ignores_an_earlier_runs_files(self, reused, tmp_path):
        # the reused directory still holds the single-fold run's checkpoint.bin
        assert (reused["reused"] / "checkpoint.bin").exists()
        rc = main(["eval", "--data", str(reused["data"]), "--run", str(reused["reused"]),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = read_csv(tmp_path / "o" / "report.csv")
        assert [r["fold"] for r in rows] == ["0", "1", "2", "mean", "std"]

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_data_the_run_was_not_trained_on_exits_2(self, workspace, tmp_path, capsys, command):
        lines = workspace["data"].read_text(encoding="utf-8").splitlines(keepends=True)
        student = lines[1].split(",")[0]
        edited = tmp_path / "data.csv"
        edited.write_text("".join(lines[:-1]), encoding="utf-8")  # one row fewer
        argv = [command, "--data", str(edited), "--run", str(workspace["run0"]),
                "--out", str(tmp_path / "o")]
        capsys.readouterr()
        rc = main(argv + (["--student", student] if command == "export" else []))
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "SHA-256" in err[0], err
        assert not (tmp_path / "o").exists()

    def test_preprocessing_flags_are_gone(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
                   "--min-len", "3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unrecognized arguments: --min-len" in capsys.readouterr().err


class TestExport:
    def test_kc_subset_and_row_count(self, workspace, tmp_path):
        student = read_csv(workspace["data"])[0]["student_id"]
        out = tmp_path / "exp"
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", student, "--kcs", "0,1,2", "--out", str(out)]
        )
        assert rc == 0
        states = read_csv(out / "states.csv")
        assert list(states[0]) == ["step", "kc_0", "kc_1", "kc_2"]
        steps = read_csv(out / "steps.csv")
        n_rows = sum(1 for r in read_csv(workspace["data"]) if r["student_id"] == student)
        assert len(steps) == n_rows - 1
        assert len(states) == n_rows - 1
        for row in steps:
            assert 0.0 < float(row["r_hat"]) < 1.0

    def test_runs_the_value_forward_once(self, workspace, tmp_path, monkeypatch):
        # both tables come from one forward graph of the student's sequence
        calls = []
        build = qckt.model.build_graph

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(qckt.model, "build_graph", counting)
        student = read_csv(workspace["data"])[0]["student_id"]
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", student, "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert len(calls) == 1

    def test_reused_directory_exports_the_runs_own_model(self, reused, tmp_path):
        # steps.csv comes from fold 0 of the --fold all run, not from the
        # earlier run's checkpoint.bin left in the directory
        student = read_csv(reused["data"])[0]["student_id"]
        for name in ("clean", "reused"):
            assert main(["export", "--data", str(reused["data"]), "--run", str(reused[name]),
                         "--student", student, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "reused" / "steps.csv").read_bytes() == (
            tmp_path / "clean" / "steps.csv").read_bytes()

    def test_unknown_student_reports_count(self, workspace, tmp_path, capsys):
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", "ghost", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "16 students" in capsys.readouterr().err

    @pytest.mark.parametrize("student", ["\u00e9mile", "s1,q0", ""])
    def test_an_id_in_no_row_is_an_unknown_student(self, workspace, tmp_path, capsys, student):
        # the log is plain ASCII, so export finds rows by byte search; a
        # non-ASCII id is in no row
        capsys.readouterr()
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", student, "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unknown student id {student!r}; dataset has 16 students\n")
        assert not (tmp_path / "o").exists()

    def test_an_id_with_a_comma_matches_no_row(self, workspace, tmp_path, capsys):
        # "<sid>,<q>" begins every row in which sid answered q; no student
        # field holds a comma, so it is an unknown student even when those
        # rows would make a sequence of min-len steps
        pairs = Counter((r["student_id"], r["question_id"]) for r in read_csv(workspace["data"]))
        (sid, q), n = pairs.most_common(1)[0]
        assert n >= 3  # the default --min-len
        capsys.readouterr()
        student = f"{sid},{q}"
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", student, "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unknown student id {student!r}; dataset has 16 students\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_kc_is_validation_error(self, workspace, tmp_path):
        student = read_csv(workspace["data"])[0]["student_id"]
        rc = main(
            ["export", "--data", str(workspace["data"]), "--run", str(workspace["run0"]),
             "--student", student, "--kcs", "0,99", "--out", str(tmp_path / "o")]
        )
        assert rc == 1

    @pytest.mark.parametrize("kcs", ["0,99", "0,0,1"])
    def test_bad_kcs_exit_1_before_the_data_is_read(self, workspace, tmp_path, kcs):
        # an absent --data would exit 2 if it were read first
        rc = main(
            ["export", "--data", str(tmp_path / "absent.csv"), "--run", str(workspace["run0"]),
             "--student", "s0", "--kcs", kcs, "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert not (tmp_path / "o").exists()


def interleaved_log(padded):
    """An interaction log whose students' rows are interleaved, with
    timestamps out of order and tied, a KC label repeated within a field
    (``k1_k1``), a student longer than --max-len 8 and one shorter than
    --min-len 3.  ``padded`` pads every field with whitespace and gives one
    student a non-ASCII id.  Returns the log and its student ids."""
    rng = np.random.default_rng(7)
    kc_fields = {"A": ["k1_k1", "k1"], "B": ["k2"], "C": ["k1_k3"], "D": ["k3_k2", "k2_k3"],
                 "E": ["k4"], "F": ["k2_k4_k1"]}
    lengths = {f"s{i}": int(rng.integers(4, 8)) for i in range(10)}
    lengths.update({"long": 19, "short": 2, "\u00e9mile" if padded else "emile": 5})
    rows = []
    for sid, n in lengths.items():
        for _ in range(n):
            q = str(rng.choice(list(kc_fields)))
            kc = str(rng.choice(kc_fields[q]))
            rows.append([sid, q, kc, str(rng.integers(2)), str(rng.integers(0, 6))])
    pad = (lambda f: f" {f}\t") if padded else (lambda f: f)
    lines = [HEADER] + [",".join(map(pad, rows[i])) for i in rng.permutation(len(rows))]
    return "\n".join(lines) + "\n", list(lengths)


def csv_text(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


class TestExportAgainstTheFullParse:
    """export parses one student's rows with the run's label tables; its
    tables must be those of the first chunk of that student in the whole
    log, loaded and preprocessed as training did."""

    @pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
    def test_every_student(self, tmp_path, capsys, padded):
        text, students = interleaved_log(padded)
        data, run = tmp_path / "log.csv", tmp_path / "run"
        data.write_text(text, encoding="utf-8")
        assert main(["train", "--data", str(data), "--fold", "0", "--min-len", "3",
                     "--max-len", "8", "--out", str(run)] + TRAIN_FAST) == 0
        ds = preprocess(load_dataset(data), min_len=3, max_len=8)
        params = Parameters.load(run / "checkpoint.bin")
        kcs = list(range(ds.n_kcs))
        for sid in students:
            out = tmp_path / "export"
            capsys.readouterr()
            rc = main(["export", "--data", str(data), "--run", str(run), "--student", sid,
                       "--out", str(out)])
            chunks = [s for s in ds.sequences if s.student_id == sid]
            if not chunks:
                assert sid == "short"
                assert rc == 2
                err = capsys.readouterr().err
                assert f"unknown student id {sid!r}; dataset has {len(ds.students())} students" in err
                continue
            assert rc == 0, capsys.readouterr().err
            seq = chunks[0]
            outputs = sequence_outputs(params, seq)
            steps = export_module_outputs(params, seq, outputs=outputs)
            states = export_knowledge_states(params, seq, kcs, outputs=outputs)
            want_steps = csv_text(
                ["step", "question", "response", "r_hat", "sigma_alpha", "sigma_beta", "sigma_zeta"],
                steps,
            )
            want_states = csv_text(
                ["step"] + [f"kc_{k}" for k in kcs],
                [{"step": t + 1, **{f"kc_{k}": v for k, v in zip(kcs, row)}}
                 for t, row in enumerate(states)],
            )
            assert (out / "steps.csv").read_bytes().decode("utf-8") == want_steps, sid
            assert (out / "states.csv").read_bytes().decode("utf-8") == want_states, sid
        assert [len(s) for s in ds.sequences if s.student_id == "long"] == [8, 8, 3]


def with_dataset(blob, edit):
    """A manifest whose dataset block is ``edit`` of it."""
    doc = json.loads(blob)
    doc["dataset"] = edit(doc["dataset"])
    return json.dumps(doc).encode("utf-8")


def with_manifest(blob, key, value, section="config"):
    """A manifest whose ``section`` (None: the top level) sets ``key`` to
    ``value``."""
    doc = json.loads(blob)
    (doc[section] if section else doc)[key] = value
    return json.dumps(doc).encode("utf-8")


# case -> (file to corrupt, corruption of its bytes)
MALFORMED = {
    "checkpoint cut after its magic": ("checkpoint", lambda b: b[: len(CHECKPOINT_MAGIC)]),
    "unknown config key": ("checkpoint", lambda b: with_header(b, lambda h: h["config"].update(x=1))),
    "header without config": ("checkpoint", lambda b: with_header(b, lambda h: h.pop("config"))),
    "header not JSON": ("checkpoint", lambda b: CHECKPOINT_MAGIC + struct.pack("<I", 5) + b"{nope" + b),
    "CSV not UTF-8": ("data", lambda b: b.replace(b"s", b"\xff", 1)),
    "manifest fold null": ("manifest", lambda b: with_manifest(b, "fold", None)),
    "manifest fold not a number": ("manifest", lambda b: with_manifest(b, "fold", "x")),
    "manifest fold past k": ("manifest", lambda b: with_manifest(b, "fold", "7")),
    "manifest k 1": ("manifest", lambda b: with_manifest(b, "k", 1)),
    "manifest k past the students": ("manifest", lambda b: with_manifest(b, "k", 40)),
    "manifest batch_size 0": ("manifest", lambda b: with_manifest(b, "batch_size", 0)),
    "manifest outputs not a list": (
        "manifest", lambda b: with_manifest(b, "outputs", "checkpoint.bin", section=None)),
    "dataset block not an object": (
        "manifest", lambda b: with_manifest(b, "dataset", [], section=None)),
    "dataset question labels not a list": (
        "manifest", lambda b: with_manifest(b, "question_labels", "q0", section="dataset")),
    "dataset KC label not a string": (
        "manifest", lambda b: with_dataset(b, lambda d: {**d, "kc_labels": [0] + d["kc_labels"][1:]})),
    "dataset question label repeated": (
        "manifest", lambda b: with_dataset(
            b, lambda d: {**d, "question_labels": d["question_labels"][:1] * len(d["question_labels"])})),
    "dataset one question too few": (
        "manifest", lambda b: with_dataset(b, lambda d: {**d, "question_labels": d["question_labels"][:-1]})),
    "dataset one KC too many": (
        "manifest", lambda b: with_dataset(b, lambda d: {**d, "kc_labels": d["kc_labels"] + ["extra"]})),
    "dataset question labels renamed": (
        "manifest", lambda b: with_dataset(
            b, lambda d: {**d, "question_labels": [x + "x" for x in d["question_labels"]]})),
    "dataset KC labels renamed": (
        "manifest", lambda b: with_dataset(b, lambda d: {**d, "kc_labels": [x + "x" for x in d["kc_labels"]]})),
    "dataset students not an int": ("manifest", lambda b: with_manifest(b, "students", 16.0, section="dataset")),
    "dataset students a string": ("manifest", lambda b: with_manifest(b, "students", "16", section="dataset")),
}
# eval cases keep the bare case name as their id
MALFORMED_RUNS = [pytest.param("eval", case, id=case) for case in MALFORMED] + [
    pytest.param("export", case, id=f"export: {case}") for case in MALFORMED
]


def exit_code_and_errors(capsys, command, data, run, out, student):
    capsys.readouterr()
    argv = [command, "--data", str(data), "--run", str(run), "--out", str(out)]
    rc = main(argv + (["--student", student] if command == "export" else []))
    return rc, capsys.readouterr().err.splitlines()


@pytest.fixture(scope="module")
def fuzzed_run(workspace, tmp_path_factory):
    """A copy of run0 whose manifest a test may rewrite."""
    run = tmp_path_factory.mktemp("fuzzed") / "run"
    shutil.copytree(workspace["run0"], run)
    return run


class TestMalformedInputs:
    @pytest.mark.parametrize("command,case", MALFORMED_RUNS)
    def test_exit_2_with_one_error_line(self, workspace, tmp_path, capsys, command, case):
        target, corrupt = MALFORMED[case]
        run = tmp_path / "run"
        shutil.copytree(workspace["run0"], run)
        data = tmp_path / "data.csv"
        shutil.copy(workspace["data"], data)
        path = {"checkpoint": run / "checkpoint.bin", "manifest": run / "manifest.json"}.get(target, data)
        path.write_bytes(corrupt(path.read_bytes()))
        student = read_csv(workspace["data"])[0]["student_id"]
        rc, err = exit_code_and_errors(capsys, command, data, run, tmp_path / "o", student)
        assert rc == 2, err
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_run_without_dataset_block_must_be_retrained(self, workspace, tmp_path, capsys, command):
        # as every run written before the manifest carried the block
        run = tmp_path / "run"
        shutil.copytree(workspace["run0"], run)
        doc = json.loads((run / "manifest.json").read_text())
        del doc["dataset"]
        (run / "manifest.json").write_text(json.dumps(doc))
        student = read_csv(workspace["data"])[0]["student_id"]
        rc, err = exit_code_and_errors(capsys, command, workspace["data"], run, tmp_path / "o", student)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "retrain" in err[0], err

    # exit_code_and_errors drains capsys before each call
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(block=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
            st.sampled_from(["question_labels", "kc_labels", "students"]) | st.text(max_size=4), inner),
        max_leaves=12,
    ))
    def test_any_json_dataset_block_exits_2(self, workspace, fuzzed_run, capsys, block):
        doc = json.loads((workspace["run0"] / "manifest.json").read_text())
        assume(block != doc["dataset"])
        doc["dataset"] = block
        (fuzzed_run / "manifest.json").write_text(json.dumps(doc))
        student = read_csv(workspace["data"])[0]["student_id"]
        out = fuzzed_run / "o"
        rc, err = exit_code_and_errors(capsys, "export", workspace["data"], fuzzed_run, out, student)
        assert rc == 2, err
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()


# case -> (subcommand, invalid flags); each is invalid configuration, found
# before anything is written
BAD_FLAGS = {
    "train --lr inf": ("train", ["--lr", "inf"]),
    "train --seed -1": ("train", ["--seed", "-1"]),
    "train --grid-lambdas ''": ("train", ["--grid", "--grid-lambdas", ""]),
    "train --grid-lrs inf": ("train", ["--grid", "--grid-lrs", "inf"]),
    "train --grid-dims 0": ("train", ["--grid", "--grid-dims", "0"]),
    "train --grid-lambdas -1": ("train", ["--grid", "--grid-lambdas", "-1"]),
    "train --jobs 0": ("train", ["--jobs", "0"]),
    "train --jobs -3": ("train", ["--fold", "all", "--jobs", "-3"]),
    "train --k 1": ("train", ["--k", "1"]),
    "train --k 0": ("train", ["--k", "0"]),
    "train --k past the students": ("train", ["--fold", "0", "--k", "17"]),
    "train --grid on 4 students": ("train-few", ["--grid", "--grid-lambdas", "1",
                                                 "--grid-lrs", "1e-3", "--grid-dims", "4"]),
    "synth --gamma nan": ("synth", ["--gamma", "nan"]),
    "export --kcs ''": ("export", ["--kcs", ""]),
    "export --kcs ,": ("export", ["--kcs", ","]),
    "export --kcs 0,99": ("export", ["--kcs", "0,99"]),
    "export --kcs 0,0,1": ("export", ["--kcs", "0,0,1"]),
    "--config without a file": ("train", ["--config"]),
}


class TestMalformedFlags:
    @pytest.mark.parametrize("case", list(BAD_FLAGS))
    def test_exit_1_before_writing(self, workspace, tmp_path, capsys, case):
        command, flags = BAD_FLAGS[case]
        data = str(workspace["data"])
        base = {
            "train": ["train", "--data", data] + TRAIN_FAST,
            "train-few": ["train", "--data", str(workspace["few"])] + TRAIN_FAST,
            "synth": SYNTH,
            "export": ["export", "--data", data, "--run", str(workspace["run0"]),
                       "--student", read_csv(workspace["data"])[0]["student_id"]],
        }[command]
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(base + ["--out", str(out)] + flags) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if case == "--config without a file":
            assert err == "error: --config needs a key=value file\n"


# numpy's RuntimeWarnings raise, so an overflow warning main lets through fails
@pytest.mark.filterwarnings("error")
class TestDivergence:
    """A diverged model is refused with exit 2 and no checkpoint or table."""

    def test_one_epoch_at_a_huge_lr_exits_2_without_outputs(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--students", "20", "--out", str(data)]) == 0
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--data", str(data / "dataset.csv"), "--fold", "0", "--d", "3",
                   "--max-epochs", "1", "--lr", "1e308", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        # numpy's overflow warnings are silenced: stderr is the error line alone
        assert len(err) == 1 and err[0].startswith("error: diverged"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_non_finite_model_outputs_exit_2_without_tables(self, workspace, tmp_path, capsys, command):
        run = tmp_path / "run"
        shutil.copytree(workspace["run0"], run)
        params = Parameters.load(run / "checkpoint.bin")
        Parameters(params.config, {k: v * 1e300 for k, v in params.items()}).save(run / "checkpoint.bin")
        student = read_csv(workspace["data"])[0]["student_id"]
        rc, err = exit_code_and_errors(capsys, command, workspace["data"], run, tmp_path / "o", student)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert ("not finite" if command == "eval" else "diverged") in err[0]
        assert not (tmp_path / "o").exists()

    def test_memory_error_names_the_parameter_count(self, workspace, tmp_path, capsys, monkeypatch):
        def no_memory(cls, config, seed):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        # the allocation fails as a --d this large would, without allocating
        monkeypatch.setattr(qckt.model.Parameters, "init", classmethod(no_memory))
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main(["train", "--data", str(workspace["data"]), "--fold", "0", "--d", "200000",
                   "--out", str(out)])
        ds = preprocess(load_dataset(workspace["data"]))
        count = qckt.model.param_count(qckt.model.ModelConfig(ds.n_questions, ds.n_kcs, dim=200000))
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:") and f"{count:,} parameters" in err[0], err
        assert not out.exists()


class TestAtomicWrites:
    def test_failed_manifest_write_keeps_the_old_one(self, tmp_path, monkeypatch):
        out = tmp_path / "data"
        assert main(SYNTH + ["--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        assert main(SYNTH + ["--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestAblate:
    def test_two_variants_report_and_pmatrix(self, workspace, tmp_path):
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--data", str(workspace["data"]),
             "--variants", "full,no_ks_ps", "--d", "4", "--max-epochs", "1",
             "--batch-size", "16", "--k", "2", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "report.csv")
        variants = {r["variant"] for r in rows}
        assert variants == {"full", "no_ks_ps"}
        assert sum(1 for r in rows if r["fold"] == "mean") == 2
        pm = read_csv(out / "pmatrix.csv")
        assert set(pm[0]) == {"variant", "full", "no_ks_ps"}

    def test_unknown_variant_is_validation_error(self, workspace, tmp_path):
        rc = main(
            ["ablate", "--data", str(workspace["data"]), "--variants", "bogus",
             "--out", str(tmp_path / "o")] + TRAIN_FAST
        )
        assert rc == 1


BAD_PARSES = [
    ["synth", "--students", "x", "--out", "o"],
    ["train", "--data", "d.csv", "--variant", "bogus", "--out", "o"],
    ["train", "--data", "d.csv"],
    ["export", "--data", "d.csv", "--run", "r", "--out", "o"],
    ["eval", "--data", "d.csv", "--run", "r", "--min-len", "3", "--out", "o"],
    ["ablate", "--out", "o", "--jobs", "1.5"],
    ["train", "--version"],
    ["export", "--data", "d.csv", "--run", "r", "--student", "s0", "--out", "o", "extra"],
]
# argv that parse, with every flag of every command
GOOD_PARSES = [
    SYNTH + ["--kcs-per-question", "1,2", "--gamma", "0.1", "--out", "o"],
    ["train", "--data", "d.csv", "--fold", "0", "--min-len", "3", "--max-len", "8",
     "--variant", "no_ks", "--out", "o"] + TRAIN_FAST,
    ["train", "--data", "d.csv", "--grid", "--grid-lambdas", "0,1", "--grid-lrs", "1e-2",
     "--grid-dims", "4", "--max-epochs", "1", "--batch-size", "16", "--seed", "1", "--out", "o"],
    ["train", "--config", "run.cfg", "--data", "d.csv", "--lambda", "0.5", "--lr", "1e-2",
     "--patience", "3", "--no-clip", "--jobs", "2", "--out", "o"],
    ["eval", "--data", "d.csv", "--run", "a", "--run", "b", "--out", "o"],
    ["export", "--data", "d.csv", "--run", "r", "--student", "s0", "--kcs", "0,1,2", "--out", "o"],
    ["ablate", "--data", "d.csv", "--variants", "full,no_ks_ps", "--d", "4", "--max-epochs", "1",
     "--batch-size", "16", "--k", "2", "--seed", "1", "--out", "o"],
]


def bad_flags_argv(case):
    command, flags = BAD_FLAGS[case]
    base = {
        "train": ["train", "--data", "d.csv"] + TRAIN_FAST,
        "train-few": ["train", "--data", "few.csv"] + TRAIN_FAST,
        "synth": SYNTH,
        "export": ["export", "--data", "d.csv", "--run", "r", "--student", "s0"],
    }[command]
    return base + ["--out", "o"] + flags


def parse(parser, argv, capsys):
    """The namespace (as text, so that nan equals nan), or the exit code,
    and the printed text of a parse."""
    capsys.readouterr()
    try:
        result = repr(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


class TestParsing:
    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_no_command_is_validation_error(self):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        GOOD_PARSES + BAD_PARSES + [bad_flags_argv(case) for case in BAD_FLAGS]
        + [[command, "--help"] for command in COMMANDS],
        ids=lambda argv: " ".join(argv),
    )
    def test_one_commands_parser_parses_as_the_whole_tree(self, argv, capsys):
        # same namespace, or same exit code and error text, and same help
        assert parse(build_parser(argv[0]), argv, capsys) == parse(build_parser(), argv, capsys)

    def test_main_builds_only_the_named_commands_parser(self, tmp_path, monkeypatch):
        built, whole = [], qckt.cli.build_parser

        def recording(command=None):
            built.append(command)
            return whole(command)

        monkeypatch.setattr(qckt.cli, "build_parser", recording)
        for argv in (["synth", "--students", "0", "--out", str(tmp_path / "o")], ["--version"], ["bogus"]):
            main(argv)
        assert built == ["synth", None, None]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_main_runs_the_handler_the_module_holds_now(self, tmp_path, monkeypatch, command):
        # a handler patched into the module after import is the one run
        ran = []
        monkeypatch.setattr(qckt.cli, f"cmd_{command}", ran.append)
        argv = {"eval": ["--run", "r"], "export": ["--run", "r", "--student", "s"]}.get(command, [])
        if command != "synth":
            argv += ["--data", "d.csv"]
        assert main([command, *argv, "--out", str(tmp_path / "o")]) == 0
        assert [args.command for args in ran] == [command]

    def test_the_whole_tree_stays_reachable(self, capsys):
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert "{synth,train,eval,export,ablate}" in capsys.readouterr().out
        assert main(["export", "--help"]) == 0
        assert "--student STUDENT" in capsys.readouterr().out
        assert main(["bogus"]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert main(["synth", "--bogus", "1", "--out", str(tmp_path / "o")]) == 1
