from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qckt.data as qd
import qckt.evaluation as qe
from _support import PACKAGE_ERRORS
from oracle import load_dataset_rows, oracle_predictions
from qckt.errors import ConfigError, DataError, DomainError, ParseError

EXAMPLE = """student_id,question_id,kc_ids,response,timestamp
alice,A,X,1,0
alice,B,X_Y,0,5
"""


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestInteraction:
    def test_validation(self):
        with pytest.raises(DataError):
            qd.Interaction(0, (), 1, 0)
        with pytest.raises(DomainError):
            qd.Interaction(0, (0,), 2, 0)


class TestLoadDataset:
    def test_two_row_example(self, tmp_path):
        ds = qd.load_dataset(write(tmp_path, EXAMPLE))
        assert ds.n_questions == 2 and ds.n_kcs == 2
        assert len(ds.sequences) == 1 and len(ds.sequences[0]) == 2
        assert ds.sequences[0].student_id == "alice"
        assert ds.qmatrix == {0: (0,), 1: (0, 1)}
        assert ds.question_labels == ["A", "B"] and ds.kc_labels == ["X", "Y"]
        alice = ds.sequences[0]
        first = (alice.questions[0], alice.kcs[0], alice.responses[0], alice.timestamps[0])
        assert first == (0, (0,), 1, 0)

    def test_unsorted_timestamps_get_sorted(self, tmp_path):
        text = EXAMPLE + "bob,A,X,1,9\nbob,B,X_Y,0,2\n"
        ds = qd.load_dataset(write(tmp_path, text))
        bob = ds.sequences[1]
        assert bob.timestamps.tolist() == [2, 9]

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        bad_fields = write(tmp_path, EXAMPLE + "alice,A,X,1\n", "f.csv")
        with pytest.raises(ParseError, match="line 4"):
            qd.load_dataset(bad_fields)
        bad_resp = write(tmp_path, EXAMPLE + "alice,A,X,7,3\n", "r.csv")
        with pytest.raises(ParseError, match="response"):
            qd.load_dataset(bad_resp)
        bad_ts = write(tmp_path, EXAMPLE + "alice,A,X,1,late\n", "t.csv")
        with pytest.raises(ParseError, match="timestamp"):
            qd.load_dataset(bad_ts)
        # an empty KC label would become a KC named ""
        for i, kc_field in enumerate(("k1_", "_", "a__b")):
            bad_kc = write(tmp_path, EXAMPLE + f"bob,C,{kc_field},1,3\n", f"k{i}.csv")
            with pytest.raises(ParseError, match="line 4: empty KC label"):
                qd.load_dataset(bad_kc)

    def test_structural_errors(self, tmp_path):
        with pytest.raises(ParseError):
            qd.load_dataset(write(tmp_path, "", "empty.csv"))
        with pytest.raises(ParseError, match="header"):
            qd.load_dataset(write(tmp_path, "who,what\n", "h.csv"))
        dup = EXAMPLE + qd.HEADER + "\n"
        with pytest.raises(ParseError, match="duplicate header"):
            qd.load_dataset(write(tmp_path, dup, "dup.csv"))
        with pytest.raises(DataError, match="without KCs"):
            qd.load_dataset(write(tmp_path, EXAMPLE + "alice,C,,1,9\n", "nok.csv"))

    def test_conflicting_kc_sets_rejected(self, tmp_path):
        text = EXAMPLE + "bob,A,Y,1,0\n"
        with pytest.raises(DataError, match="conflicting"):
            qd.load_dataset(write(tmp_path, text))

    def test_repeated_kc_label_counts_once(self, tmp_path):
        ds = qd.load_dataset(write(tmp_path, "student_id,question_id,kc_ids,response,timestamp\n"
                                   "s,A,a_a_b,1,0\ns,B,b_b,0,1\n"))
        assert ds.sequences[0].kcs == [(0, 1), (1,)]
        assert ds.n_kcs == 2 and ds.kc_labels == ["a", "b"]

    def test_kc_sets_compare_as_sets(self, tmp_path):
        same = EXAMPLE + "bob,B,Y_X_X,1,0\nbob,A,X_X,0,1\n"
        assert qd.load_dataset(write(tmp_path, same)).qmatrix == {0: (0,), 1: (0, 1)}
        with pytest.raises(DataError, match="conflicting"):
            qd.load_dataset(write(tmp_path, EXAMPLE + "bob,B,Y_Y,1,0\n"))

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(
        st.binary(max_size=300),
        st.text(alphabet="ab,_01 9\n\r-\xe9\x00", max_size=200).map(
            lambda t: (qd.HEADER + "\n" + t).encode("utf-8")),
    ))
    def test_arbitrary_bytes_raise_only_package_errors(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        path.write_bytes(blob)
        try:
            qd.load_dataset(path)
        except PACKAGE_ERRORS:
            pass

    def test_round_trip(self, tmp_path):
        ds = qd.load_dataset(write(tmp_path, EXAMPLE))
        out = tmp_path / "copy.csv"
        qd.save_dataset(ds, out)
        ds2 = qd.load_dataset(out)
        assert ds2.sequences == ds.sequences
        assert ds2.question_labels == ds.question_labels
        assert ds2.qmatrix == ds.qmatrix


# each question's KC labels; a row may permute or repeat them, or (as a
# fault) give its question another set
KC_LABELS = {"A": ["x"], "B": ["x", "y"], "C": ["z", "y", "x"]}
FAULTS = [
    "sid", "question", "no_kcs", "kc_label", "kc_conflict", "response", "timestamp",
    "short", "long", "blank", "spaces",
]


@st.composite
def log_line(draw, plain=False, ids=("s1", "s2", "s3")):
    """One line of an interaction log: mostly valid rows, some faulty or
    blank, with a student id of ``ids``.  A ``plain`` line is ASCII without
    whitespace, and its student ids prefix one another."""
    fault = draw(st.sampled_from(FAULTS)) if draw(st.integers(0, 7)) == 0 else None
    if fault == "blank" or (fault == "spaces" and plain):
        return ""
    if fault == "spaces":
        return draw(st.sampled_from([" ", "\t", "  \t "]))
    q = draw(st.sampled_from(list(KC_LABELS)))
    labels = draw(st.permutations(KC_LABELS[q]))
    labels += draw(st.lists(st.sampled_from(labels), max_size=2))
    fields = {
        "sid": draw(st.sampled_from(["s1", "s12", "s"] if plain else ids)),
        "question": q,
        "no_kcs": "_".join(labels),
        "response": draw(st.sampled_from(["0", "1"])),
        "timestamp": str(draw(st.integers(-2, 4))),
    }
    bad = {
        "sid": "",
        "question": "",
        "no_kcs": "",
        "kc_label": draw(st.sampled_from(["x_", "_", "x__y", "_y"])),
        "kc_conflict": draw(st.sampled_from(["w", "x_w", "y"])),
        "response": draw(st.sampled_from(["2", "", "1.0", "yes", "-1"])),
        "timestamp": draw(st.sampled_from(["late", "1.5", "", "1e3", "99999999999999999999"])),
    }
    if fault in ("kc_label", "kc_conflict"):
        fields["no_kcs"] = bad[fault]
    elif fault in bad:
        fields[fault] = bad[fault]
    if draw(st.integers(0, 9)) == 0:  # a huge timestamp is valid, only not 64-bit
        fields["timestamp"] = draw(st.sampled_from(["-99999999999999999999", "+3", "1_0"]))
    pads = st.just("") if plain else st.sampled_from(["", "", "", " ", "\t", "\x1f", "\xa0"])
    parts = [draw(pads) + v + draw(pads) for v in fields.values()]
    if fault == "short":
        parts = parts[: draw(st.integers(1, 4))]
    elif fault == "long":
        parts += [""] * draw(st.integers(1, 2))
    return ",".join(parts)


@st.composite
def log_text(draw, ids=("s1", "s2", "s3")):
    header = draw(st.sampled_from([qd.HEADER, qd.HEADER + " "]))
    lines = [header] + draw(st.lists(log_line(ids=ids), max_size=12))
    if draw(st.integers(0, 5)) == 0:  # a second header, maybe with spaces in or around it
        again = draw(st.sampled_from([qd.HEADER, " " + qd.HEADER + "\t", qd.HEADER.replace(",", " , ")]))
        lines.insert(draw(st.integers(1, len(lines))), again)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def plain_log_text(draw):
    """A log that ``parse_log(..., students={id})`` scans by bytes: ASCII, lines
    ended by "\n" alone, no whitespace within a line."""
    lines = [qd.HEADER] + draw(st.lists(log_line(plain=True), max_size=12))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), qd.HEADER)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def parsed_or_error(parse):
    try:
        return parse()
    except PACKAGE_ERRORS as exc:
        return type(exc), str(exc)


class TestColumnLoaderAgainstRowOracle:
    @settings(max_examples=600, deadline=None)
    @given(text=log_text(), block_rows=st.sampled_from([qd.BLOCK_ROWS, 1, 2, 3, 5]))
    def test_same_dataset_or_same_error(self, tmp_path_factory, text, block_rows):
        # small blocks carry ids, KC sets and faults across block boundaries
        path = tmp_path_factory.mktemp("log") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for load in (qd.load_dataset, load_dataset_rows):
            try:
                with mock.patch.object(qd, "BLOCK_ROWS", block_rows):
                    outcomes.append(load(path))
            except PACKAGE_ERRORS as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert not isinstance(got, Exception), got
        assert (got.n_questions, got.n_kcs) == (want.n_questions, want.n_kcs)
        assert got.question_labels == want.question_labels
        assert got.kc_labels == want.kc_labels
        assert got.qmatrix == want.qmatrix
        assert [s.student_id for s in got.sequences] == [s.student_id for s in want.sequences]
        for a, b in zip(got.sequences, want.sequences):
            assert a.questions.tolist() == b.questions.tolist()
            assert a.kcs == b.kcs
            assert a.responses.tolist() == b.responses.tolist()
            assert a.timestamps.tolist() == b.timestamps.tolist()

    @pytest.mark.parametrize("space", [" ", "\t", "\x1f", "\xa0", "\u3000"])
    def test_any_whitespace_around_a_field_is_stripped(self, tmp_path, space):
        text = EXAMPLE + f"bob,{space}A,X{space},1,{space}7\n"
        ds = qd.load_dataset(write(tmp_path, text))
        assert ds.sequences == load_dataset_rows(write(tmp_path, text, "rows.csv")).sequences
        assert ds.question_labels == ["A", "B"] and ds.sequences[1].timestamps.tolist() == [7]

    def test_sequences_share_the_qmatrix_tuples(self, tmp_path):
        ds = qd.load_dataset(write(tmp_path, EXAMPLE + "bob,B,Y_X,1,9\nbob,A,X,0,2\n"))
        for seq in ds.sequences:
            for q, kcs in zip(seq.questions.tolist(), seq.kcs):
                assert kcs is ds.qmatrix[q]

    def test_timestamps_beyond_64_bits_still_sort(self, tmp_path):
        text = EXAMPLE + "bob,A,X,1,99999999999999999999\nbob,B,X_Y,0,-99999999999999999999\n"
        bob = qd.load_dataset(write(tmp_path, text)).sequences[1]
        assert bob.timestamps.tolist() == [-99999999999999999999, 99999999999999999999]
        assert bob.questions.tolist() == [1, 0]


class TestParseOneStudent:
    """parse_log(..., students={id}, label_tables=): the rows of one
    student, with the ids of the whole log."""

    @settings(max_examples=300, deadline=None)
    @given(text=log_text(), block_rows=st.sampled_from([qd.BLOCK_ROWS, 1, 2]))
    def test_same_sequence_as_the_whole_log(self, text, block_rows):
        raw = text.encode("utf-8")
        with mock.patch.object(qd, "BLOCK_ROWS", block_rows):
            try:
                whole = qd.parse_log(raw, "log")
            except PACKAGE_ERRORS:
                return
            tables = (whole.question_labels, whole.kc_labels)
            for sid in ("s1", "s2", "s3", "s", "1"):
                one = qd.parse_log(raw, "log", students={sid}, label_tables=tables)
                assert (one.n_questions, one.n_kcs) == (whole.n_questions, whole.n_kcs)
                assert one.sequences == [s for s in whole.sequences if s.student_id == sid]
                for q, kcs in one.qmatrix.items():
                    assert whole.qmatrix[q] == kcs

    def test_reads_no_other_students_rows(self):
        raw = (EXAMPLE + "bob,A,,1,0\nalice,B,X_Y,1,9\n").encode("utf-8")
        alice = qd.parse_log(raw, "log", students={"alice"})
        assert [s.questions.tolist() for s in alice.sequences] == [[0, 1, 1]]
        with pytest.raises(DataError, match="at line 4"):
            qd.parse_log(raw, "log", students={"bob"})

    def test_a_faulty_row_reports_its_line_in_the_log(self):
        raw = (EXAMPLE + "bob,A,X,1,0\nalice,B,X_Y,2,9\n").encode("utf-8")
        with pytest.raises(ParseError, match="line 5: response"):
            qd.parse_log(raw, "log", students={"alice"})

    @pytest.mark.parametrize("tables,label", [
        ((["A"], ["X", "Y"]), "'B'"), ((["A", "B"], ["X"]), "'Y'"),
    ])
    def test_a_label_outside_the_tables_raises(self, tables, label):
        with pytest.raises(DataError, match=f"label {label} is not in the label tables at line 3"):
            qd.parse_log(EXAMPLE.encode("utf-8"), "log", students={"alice"}, label_tables=tables)

    def test_the_header_is_no_student(self):
        raw = EXAMPLE.encode("utf-8")
        assert qd._plain_student_rows(raw, "student_id") == ([], [])
        assert qd.parse_log(raw, "log", students={"student_id"}).sequences == []

    @settings(max_examples=300, deadline=None)
    @given(text=plain_log_text(), block_rows=st.sampled_from([qd.BLOCK_ROWS, 1, 2]))
    def test_byte_scan_equals_the_line_path(self, text, block_rows):
        raw = text.encode("ascii")
        tables = parsed_or_error(lambda: qd.parse_log(raw, "log"))
        tables = (tables.question_labels, tables.kc_labels) if isinstance(tables, qd.Dataset) else None
        # ids with a comma or a newline begin rows and span lines, but are
        # in no student field
        for sid in ("s1", "s12", "s", "1", "student_id", "", "s1,A", "s1,", "s1\ns1"):
            assert qd._plain_student_rows(raw, sid) is not None
            for labels in (None, tables):
                def one():
                    return qd.parse_log(raw, "log", students={sid}, label_tables=labels)

                with mock.patch.object(qd, "BLOCK_ROWS", block_rows):
                    scanned = parsed_or_error(one)
                    with mock.patch.object(qd, "_plain_student_rows", lambda raw, student: None):
                        assert parsed_or_error(one) == scanned

    def test_a_non_ascii_id_is_in_no_row_of_an_ascii_log(self):
        raw = EXAMPLE.encode("utf-8")
        assert qd._plain_student_rows(raw, "\u00e9mile") == ([], [])
        assert qd.parse_log(raw, "log", students={"\u00e9mile"}).sequences == []

    @pytest.mark.parametrize("student", ["alice", "", "\u00e9mile"])
    def test_an_empty_log_is_refused_on_either_path(self, student):
        with pytest.raises(ParseError, match="^log is empty$"):
            qd.parse_log(b"", "log", students={student})
        with pytest.raises(ParseError, match="line 1: bad header ''"):
            qd.parse_log(b"\n", "log", students={student})

    def test_a_last_row_without_a_newline(self):
        raw = EXAMPLE.rstrip("\n").encode("utf-8")
        assert qd._plain_student_rows(raw, "alice") == (["alice,A,X,1,0", "alice,B,X_Y,0,5"], [49, 63])
        assert qd.parse_log(raw, "log", students={"alice"}) == qd.parse_log(raw, "log")
        with pytest.raises(ParseError, match="line 5: response"):
            qd.parse_log(raw + b"\nbob,A,X,1,0\nalice,B,X,2,9", "log", students={"alice"})

    def test_ids_that_begin_with_the_id_are_not_rows(self):
        # s1 begins the ids of s10..s19 and s100..s199, whose rows the scan
        # must pass over
        rng = np.random.default_rng(3)
        rows = [f"s{i},{'AB'[t % 2]},X,{t % 2},{t}" for i in range(1, 200) for t in range(3)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        raw = "\n".join([qd.HEADER] + rows).encode("ascii")
        mine = [i for i, row in enumerate(rows) if row.startswith("s1,")]
        found, starts = qd._plain_student_rows(raw, "s1")
        assert found == [rows[i] for i in mine]
        assert [raw.count(b"\n", 0, at) for at in starts] == [i + 1 for i in mine]  # the header is line 1
        whole = qd.parse_log(raw, "log")
        one = qd.parse_log(raw, "log", students={"s1"}, label_tables=(whole.question_labels, whole.kc_labels))
        assert one.sequences == [s for s in whole.sequences if s.student_id == "s1"]
        # a line holding the id alone is still a faulty row at its own line
        with pytest.raises(ParseError, match=f"line {len(rows) + 2}: expected 5 fields, got 1"):
            qd.parse_log(raw + b"\ns1\n", "log", students={"s1"})
        with pytest.raises(ParseError, match=f"line {len(rows) + 2}: expected 5 fields, got 1"):
            qd.parse_log(raw + b"\ns1", "log", students={"s1"})


# the ids of TestParseSomeStudents' logs: prefixes of one another, and
# non-ASCII ones
SOME_IDS = ("s1", "s12", "s", "\u00e9mile", "\u00e9", "s\u00e9")


def restricted(text, students):
    """``text`` with every row whose stripped student field is not one of
    ``students`` made blank, so that each line keeps its number."""
    lines = text.splitlines()
    kept = [line if line.split(",", 1)[0].strip() in students else "" for line in lines[1:]]
    return "\n".join(lines[:1] + kept).encode("utf-8")


class TestParseSomeStudents:
    """parse_log(..., students=S, label_tables=) against the whole log with
    every row of a student outside S made blank: the same dataset, q-matrix
    and error; with the whole log's label tables, S's sequences of it."""

    @settings(max_examples=400, deadline=None)
    @given(
        text=st.one_of(plain_log_text(), log_text(ids=SOME_IDS)),
        students=st.sets(st.sampled_from(SOME_IDS + ("", "s2")), min_size=1, max_size=3),
        block_rows=st.sampled_from([qd.BLOCK_ROWS, 1, 2]),
    )
    def test_same_as_the_restricted_log(self, text, students, block_rows):
        raw = text.encode("utf-8")
        with mock.patch.object(qd, "BLOCK_ROWS", block_rows):
            whole = parsed_or_error(lambda: qd.parse_log(raw, "log"))
            tables = None
            if isinstance(whole, qd.Dataset):
                tables = (whole.question_labels, whole.kc_labels)
            for labels in (None, tables):
                some = parsed_or_error(lambda: qd.parse_log(raw, "log", students=students, label_tables=labels))
                want = parsed_or_error(lambda: qd.parse_log(restricted(text, students), "log", label_tables=labels))
                assert some == want
            if tables is None:
                return
            assert some.sequences == [s for s in whole.sequences if s.student_id in students]
            assert (some.n_questions, some.n_kcs) == (whole.n_questions, whole.n_kcs)
            assert some.qmatrix == {q: kcs for q, kcs in whole.qmatrix.items() if q in some.qmatrix}

    def test_any_collection_of_ids(self):
        raw = (EXAMPLE + "bob,A,X,1,3\ncarol,B,X_Y,1,4\n").encode("utf-8")
        whole = qd.parse_log(raw, "log")
        for students in (["bob", "alice"], ("carol",), {"bob": 1}, frozenset({"alice", "carol"})):
            got = qd.parse_log(raw, "log", students=students)
            assert got.students() == [s for s in whole.students() if s in students]


def seq_of(sid, length, q=0):
    items = [qd.Interaction(q, (0,), t % 2, t) for t in range(length)]
    return qd.StudentSequence(sid, items)


def toy_dataset(lengths):
    seqs = [seq_of(f"s{i}", L) for i, L in enumerate(lengths)]
    return qd.Dataset(seqs, 1, 1, {0: (0,)}, ["q0"], ["k0"])


class TestPreprocess:
    def test_drops_short_sequences(self):
        ds = qd.preprocess(toy_dataset([2, 3, 1]))
        assert [len(s) for s in ds.sequences] == [3]

    def test_chunking_arithmetic(self):
        ds = qd.preprocess(toy_dataset([450]))
        assert [len(s) for s in ds.sequences] == [200, 200, 50]
        assert all(s.student_id == "s0" for s in ds.sequences)
        # chunks are consecutive slices
        stamps = [t for s in ds.sequences for t in s.timestamps.tolist()]
        assert stamps == list(range(450))

    def test_trailing_chunk_below_min_is_dropped(self):
        ds = qd.preprocess(toy_dataset([202]))
        assert [len(s) for s in ds.sequences] == [200]

    def test_boundary_lengths(self):
        ds = qd.preprocess(toy_dataset([3, 200]))
        assert [len(s) for s in ds.sequences] == [3, 200]

    def test_bounds_invariant_random(self):
        rng = np.random.default_rng(4)
        ds = qd.preprocess(toy_dataset(rng.integers(1, 777, size=40)), min_len=3, max_len=50)
        assert all(3 <= len(s) <= 50 for s in ds.sequences)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            qd.preprocess(toy_dataset([5]), min_len=1)
        with pytest.raises(ConfigError):
            qd.preprocess(toy_dataset([5]), min_len=5, max_len=4)


class TestKfoldSplit:
    def test_partition_law(self):
        ds = toy_dataset([5] * 10)
        folds = qd.kfold_split(ds, k=5, seed=1)
        assert len(folds) == 5
        all_test = []
        for train, valid, test in folds:
            assert len(test) == 2
            groups = (set(train), set(valid), set(test))
            assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
            assert sorted(set().union(*groups)) == list(range(10))
            all_test.extend(test)
        assert sorted(all_test) == list(range(10))

    def test_deterministic(self):
        ds = toy_dataset([5] * 9)
        assert qd.kfold_split(ds, k=3, seed=7) == qd.kfold_split(ds, k=3, seed=7)
        assert qd.kfold_split(ds, k=3, seed=7) != qd.kfold_split(ds, k=3, seed=8)

    def test_chunks_stay_together(self):
        # one long student gets chunked into several sequences
        ds = qd.preprocess(toy_dataset([450, 5, 5, 5, 5, 450, 5, 5, 5, 5]))
        sid_of = [s.student_id for s in ds.sequences]
        for train, valid, test in qd.kfold_split(ds, k=5, seed=3):
            sides = {}
            for name, idxs in (("train", train), ("valid", valid), ("test", test)):
                for i in idxs:
                    assert sides.setdefault(sid_of[i], name) == name

    def test_train_valid_ratio(self):
        ds = toy_dataset([5] * 20)
        train, valid, test = qd.kfold_split(ds, k=5, seed=2)[0]
        assert len(test) == 4
        assert len(valid) == 4 and len(train) == 12  # 3:1 of the remaining 16

    def test_config_errors(self):
        ds = toy_dataset([5] * 3)
        with pytest.raises(ConfigError):
            qd.kfold_split(ds, k=5, seed=0)
        with pytest.raises(ConfigError):
            qd.kfold_split(ds, k=1, seed=0)


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            qd.SynthConfig(students=0)
        with pytest.raises(ConfigError):
            qd.SynthConfig(gamma=-0.1)
        with pytest.raises(ConfigError):
            qd.SynthConfig(kcs=3, kcs_per_question=(2, 5))
        with pytest.raises(ConfigError):
            qd.SynthConfig(seq_len=(5, 2))


class TestGenSynthetic:
    CFG = qd.SynthConfig(students=60, questions=20, kcs=6, seq_len=(4, 12), seed=11)

    def test_degenerate_probability(self):
        assert qd.response_prob(np.zeros(3), 0.0) == 0.5

    def test_seed_determinism(self):
        ds1, o1 = qd.gen_synthetic(self.CFG)
        ds2, o2 = qd.gen_synthetic(self.CFG)
        assert ds1.sequences == ds2.sequences and o1 == o2
        ds3, _ = qd.gen_synthetic(qd.SynthConfig(students=60, questions=20, kcs=6, seq_len=(4, 12), seed=12))
        assert ds3.sequences != ds1.sequences

    def test_shapes_and_ranges(self):
        ds, oracle = qd.gen_synthetic(self.CFG)
        assert len(ds.sequences) == 60
        assert ds.n_questions == 20 and ds.n_kcs == 6
        for seq in ds.sequences:
            assert 4 <= len(seq) <= 12
            for q, kcs in zip(seq.questions.tolist(), seq.kcs):
                assert 1 <= len(kcs) <= 3
                assert kcs == ds.qmatrix[q]
        assert len(oracle) == ds.n_interactions

    def test_correct_rate_tracks_oracle_mean(self):
        ds, oracle = qd.gen_synthetic(qd.SynthConfig(students=400, questions=30, kcs=8, seed=5))
        responses = np.concatenate([s.responses for s in ds.sequences])
        n = len(responses)
        assert abs(np.mean(responses) - np.mean(list(oracle.values()))) < 3.0 / np.sqrt(n)

    def test_oracle_auc_beats_chance(self):
        ds, oracle = qd.gen_synthetic(self.CFG)
        probs, labels = oracle_predictions(ds.sequences, oracle)
        assert qe.auc(qe.PredictionSet(probs, labels)) > 0.6

    def test_oracle_alignment_survives_chunking(self):
        ds, oracle = qd.gen_synthetic(qd.SynthConfig(students=30, questions=10, kcs=4, seq_len=(30, 40), seed=3))
        chunked = qd.preprocess(ds, min_len=3, max_len=8)
        probs, labels = oracle_predictions(chunked.sequences, oracle)
        # every chunk contributes len-1 targets with matching truth
        expect = sum(len(s) - 1 for s in chunked.sequences)
        assert probs.size == expect
        one = chunked.sequences[0]
        np.testing.assert_allclose(
            probs[: len(one) - 1],
            [oracle[(one.student_id, t)] for t in one.timestamps[1:].tolist()],
        )
