import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import stat
import time
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIVE_QUBIT_MAXLEN_PI4,
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_SIX_TERM,
    SEVEN_QUBIT_PI18,
    WORKED_SEVEN_QUBIT_SUPPORT,
    telescoped,
)
from paper_fixtures import append_column, w_state
from topophase import cli, search, stabilizers, states
from topophase.cli import build_parser, main
from topophase.states import (
    SparseState,
    ghz_state,
    state_to_json,
    support_state,
    weight_matrix,
)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("topophase: ") and err.count("\n") == 1, err


GOLDEN_N5_CSV = (
    "multiset,Z,chi_min_denominator\n"
    "1;1;1;1;1,2,3\n"
    "1;1;1;1;1,1,4\n"
    "2;1;1;1;1,2,4\n"
    "2;2;1;1;1,2,5\n"
)


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.json"
    path.write_text(state_to_json(ghz_state(3)))
    return str(path)


@pytest.fixture
def w3_file(tmp_path):
    path = tmp_path / "w3.json"
    path.write_text(state_to_json(w_state(3)))
    return str(path)


class TestAnalyze:
    def test_ghz3(self, ghz3_file, capsys):
        assert main(["analyze", ghz3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 2
        assert doc["chi_min"] == {"num": 1, "den": 1}

    def test_w3_continuous(self, w3_file, capsys):
        assert main(["analyze", w3_file]) == 0
        assert json.loads(capsys.readouterr().out)["chi_min"] == "continuous"

    def test_seven_qubit(self, tmp_path, capsys):
        path = tmp_path / "st18.json"
        path.write_text(state_to_json(support_state(7, SEVEN_QUBIT_PI18)))
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 36 and doc["chi_min"] == {"num": 1, "den": 18}

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "terms": [{"bits": "00"}]}')
        assert main(["analyze", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", [["analyze"], ["verify", "--derive"]],
                             ids=["analyze", "verify"])
    @pytest.mark.parametrize("doc", [
        '{"n": 2, "terms": [{"bits": "00"}, {"bits": "11", "amp": ["nan", 0]}]}',
        '{"n": true, "terms": [{"bits": "1"}]}',
    ], ids=["nan_amp", "bool_n"])
    def test_malformed_state_exit_code(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main([command[0], str(path), *command[1:]]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", [["analyze"], ["verify", "--derive"], ["construct"]],
                             ids=["analyze", "verify", "construct"])
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, command):
        # json.loads raises RecursionError here, not JSONDecodeError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main([command[0], str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"topophase: {path}: invalid JSON: ") and err.count("\n") == 1, err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=6)
                   | st.dictionaries(st.integers() | st.floats() | st.booleans(), inner, max_size=6)),
    max_leaves=20,
)


STATE_FAULTS = ("none", "document", "no_n", "no_terms", "n", "terms", "term", "no_bits", "bits",
                "bits_length", "bits_chars", "duplicate", "amp", "amp_entry", "amp_length",
                "truncate")


@st.composite
def malformed_state_texts(draw):
    """A valid state file of at most five qubits and six terms with one fault,
    or none: a non-object document, a missing or wrongly typed `n`, `terms`,
    term, `bits` or `amp`, a wrong-length or non-0/1 bitstring, a duplicate
    bitstring, an `amp` entry that is a string, a bool or +-1e308, an `amp`
    of the wrong length, or JSON cut short.  Returns the text and the qubit
    count of the valid file."""
    n = draw(st.integers(1, 5))
    bitstrings = st.text("01", min_size=n, max_size=n)
    terms = [{"bits": bits} for bits in draw(st.lists(bitstrings, min_size=1, max_size=6,
                                                       unique=True))]
    for term in terms:
        if draw(st.booleans()):
            term["amp"] = draw(st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    doc = {"n": n, "terms": terms}
    wrong = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
             | st.lists(st.integers(0, 1), max_size=2) | st.just({}))
    fault, term = draw(st.sampled_from(STATE_FAULTS)), draw(st.sampled_from(terms))
    if fault == "document":
        doc = draw(wrong)
    elif fault in ("no_n", "no_terms"):
        del doc[fault[3:]]
    elif fault in ("n", "terms"):
        doc[fault] = draw(wrong | st.integers(-1, 7) | st.just([]))
    elif fault == "term":
        terms[terms.index(term)] = draw(wrong)
    elif fault == "no_bits":
        del term["bits"]
    elif fault.startswith("bits"):
        term["bits"] = draw({"bits": wrong | st.integers(0, 3),
                             "bits_length": st.text("01", max_size=n + 2),
                             "bits_chars": st.text("01x2 ", min_size=n, max_size=n)}[fault])
    elif fault == "duplicate":
        terms.append(term)
    elif fault == "amp":
        term["amp"] = draw(wrong)
    elif fault == "amp_entry":
        entry = draw(st.sampled_from(["1", "nan", "", True, False, 1e308, -1e308]))
        term["amp"] = draw(st.permutations([entry, draw(st.floats(-2, 2))]))
    elif fault == "amp_length":
        term["amp"] = draw(st.lists(st.floats(-2, 2), max_size=3).filter(lambda v: len(v) != 2))
    text = json.dumps(doc)
    if fault == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, n


class TestMalformedStateFiles:
    @settings(max_examples=100, deadline=None)
    @given(malformed_state_texts())
    def test_every_command_exits_cleanly(self, tmp_path_factory, case):
        # Each run exits 0-3; a nonzero exit writes one stderr line and no
        # traceback (any exception fails the test, and so does any warning).
        text, n = case
        path = tmp_path_factory.getbasetemp() / "malformed.json"
        path.write_text(text)
        angles = ",".join(["1/3"] * n)
        for argv in (["analyze"], ["verify", "--derive"], ["verify", f"--phis={angles}"],
                     ["verify", f"--antidiag={angles}"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in (0, 1, 2, 3), (argv, text)
            if code:
                message = err.getvalue()
                assert message.startswith("topophase: ") and message.count("\n") == 1, (argv, text)
                assert "Traceback" not in message
            else:
                assert err.getvalue() == "", (argv, text)


class TestRender:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), json_values, max_size=6))
    def test_dump_matches_json(self, doc):
        # Floats (NaN and infinities included), unicode, number and bool keys,
        # tuples, bools among ints and nesting, byte for byte.
        assert cli._dump(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_search_json_matches_json(self, data):
        # The records template against the encoder, on random search documents:
        # parts up to 10^15, any bound_source text, with and without small
        # A-class matrices (drawn per record instead of computed).
        n = data.draw(st.integers(3, 22), label="n")
        value = st.integers(1, 10 ** 15)
        records = data.draw(st.lists(st.builds(
            lambda d, parts, z: search.SearchRecord(d, tuple(sorted(parts, reverse=True)), z),
            value, st.lists(value, min_size=n, max_size=n), value), max_size=30), label="records")
        row = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(tuple)
        classes = {(rec.multiset, rec.z): data.draw(st.lists(st.lists(row, max_size=3).map(tuple),
                                                             max_size=2)) for rec in records}
        a_classes = data.draw(st.booleans(), label="a_classes")
        source = data.draw(st.text(max_size=12), label="bound_source")
        result = search.SearchResult(n, data.draw(value), tuple(records), data.draw(value),
                                     data.draw(value))
        entries = []
        for rec in records:
            entry = {"multiset": list(rec.multiset), "Z": rec.z,
                     "chi_min_denominator": rec.denominator}
            if a_classes:
                entry["a_class_matrices"] = classes[rec.multiset, rec.z]
            entries.append(entry)
        doc = {"n": n, "sum_bound": result.sum_bound, "bound_source": source,
               "complete": result.complete, "records": entries,
               "chi_min_denominators": list(result.denominators),
               "multisets_scanned": result.multisets_scanned, "rank_tests": result.rank_tests}
        with mock.patch.object(search, "a_class_matrices", lambda multiset, z: classes[multiset, z]):
            text = cli._search_json(result, a_classes, source)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestOutputPath:
    @pytest.mark.parametrize("command", ["search", "analyze", "construct", "verify"])
    def test_unwritable_out_is_one_line(self, command, ghz3_file, tmp_path, capsys):
        structure = tmp_path / "structure.json"
        structure.write_text('{"multiset": [1, 1, 1], "Z": 1, "patterns": [[1], [2], [3]]}')
        argv = {
            "search": ["search", "--n", "3"],
            "analyze": ["analyze", ghz3_file],
            "construct": ["construct", str(structure)],
            "verify": ["verify", ghz3_file, "--derive"],
        }[command]
        missing = tmp_path / "no" / "such" / "dir" / "x"
        assert main([*argv, "--out", str(missing)]) == 1
        err = capsys.readouterr().err
        # The line names the target (search's first table is <base>.csv), not
        # the staged file beside it, so it reads the same on every run.
        target = f"{missing}.csv" if command == "search" else missing
        assert err == f"topophase: cannot write {target}: No such file or directory\n", err
        assert not (tmp_path / "no").exists()

    def test_search_writes_both_tables_or_neither(self, tmp_path, capsys):
        # The JSON target is a directory: the CSV written first must not
        # replace the old one, and no staged file may stay behind.
        (tmp_path / "x.json").mkdir()
        (tmp_path / "x.csv").write_bytes(b"old table\n")
        assert main(["search", "--n", "4", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"topophase: cannot write {tmp_path / 'x.json'}: Is a directory\n", err
        assert (tmp_path / "x.csv").read_bytes() == b"old table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]
        (tmp_path / "x.json").rmdir()
        assert main(["search", "--n", "4", "--out", str(tmp_path / "x")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]
        assert (tmp_path / "x.csv").read_text().startswith("multiset,Z,chi_min_denominator\n")

    def test_out_writes_through_a_pipe(self, ghz3_file, tmp_path, capsys):
        # A pipe is written in place, as a device would be: it stays a pipe,
        # and its reader, open before the run, gets the report.
        fifo = tmp_path / "report"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["analyze", ghz3_file, "--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ghz3.json", "report"]
        assert main(["analyze", ghz3_file]) == 0
        assert received.decode() == capsys.readouterr().out


class TestConfiguration:
    # Each value would have changed the run, or failed it, when these
    # variables were defaults for the flags.
    FORMER_VARIABLES = {
        "TOPOPHASE_BOUND": "x",
        "TOPOPHASE_TOLERANCE": "nan",
        "TOPOPHASE_WORKERS": "0",
        "TOPOPHASE_FORMAT": "xml",
        "TOPOPHASE_OUT": "no/such/dir/out",
        "TOPOPHASE_COMPLETE": "maybe",
    }

    def test_environment_is_ignored(self, ghz3_file, tmp_path, capsys, monkeypatch):
        commands = [
            ["search", "--n", "5"],
            ["analyze", ghz3_file],
            ["verify", ghz3_file, "--derive"],
            ["oracle-check", "--n", "3"],
        ]

        def run(name, env):
            for var in self.FORMER_VARIABLES:
                monkeypatch.delenv(var, raising=False)
            for var, value in env.items():
                monkeypatch.setenv(var, value)
            cwd = tmp_path / name
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            outputs = []
            for argv in commands:
                assert main(argv) == 0
                outputs.append(tuple(capsys.readouterr()))
            return outputs, {p.name: p.read_bytes() for p in cwd.iterdir()}

        clean = run("clean", {})
        assert set(clean[1]) == {"search_n5.csv", "search_n5.json"}
        assert run("former", self.FORMER_VARIABLES) == clean

    def test_format_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "5", "--format", "csv"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: ")
        assert list(tmp_path.iterdir()) == []

    def test_complete_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        # A --bound at or above the provable bound gives the complete table.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "5", "--complete"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: ")
        assert list(tmp_path.iterdir()) == []

    def test_tolerance_flag_is_gone(self, ghz3_file, tmp_path, capsys):
        # The residual measures float rounding only: the bound is the fixed
        # stabilizers.DEFAULT_TOLERANCE.
        out = tmp_path / "verify.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", ghz3_file, "--derive", "--tolerance", "1e-9", "--out", str(out)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["ghz3.json"]

    def test_parser_reused_safely(self, tmp_path, capsys, monkeypatch):
        # One parser serves every call in a process; each call must read as if
        # it had a parser of its own.
        state = tmp_path / "s4.json"
        state.write_text(state_to_json(
            support_state(5, ["11111", "10000", "01000", "00100", "00010", "00001"])))
        commands = [
            ["verify", str(state), "--derive", "--tolerance", "1e-9"],
            ["verify", "--help"],
            ["verify", str(state), "--derive", "--winding=0,0,0,0,0,-1"],
            ["verify", str(state), "--derive"],
            ["analyze", str(state)],
            ["search", "--n", "4", "--out", "s"],
            ["oracle-check", "--n", "3"],
        ]

        def run(name):
            cwd = tmp_path / name
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            outputs = []
            for argv in commands:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("SystemExit", exc.code)
                outputs.append((code, *capsys.readouterr()))
            return outputs, {p.name: p.read_bytes() for p in cwd.iterdir()}

        parsers = []
        cached = cli._parser
        monkeypatch.setattr(cli, "_parser", lambda: parsers.append(cached()) or parsers[-1])
        reused = run("reused")
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert run("fresh") == reused
        assert len(parsers) == len(commands)
        assert all(parser is parsers[0] for parser in parsers)
        assert [code for code, _, _ in reused[0]] == [
            ("SystemExit", 1), ("SystemExit", 0), 0, 0, 0, 0, 0]
        # The winding of the third call does not reach the fourth.
        assert json.loads(reused[0][2][1])["winding"] == [0, 0, 0, 0, 0, -1]
        assert json.loads(reused[0][3][1])["winding"] == [1, 0, 0, 0, 0, 0]
        assert set(reused[1]) == {"s.csv", "s.json"}

    def test_settable_value_count(self):
        # Every positional and option string of every subcommand, --help aside.
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        names = [name for sub in commands.choices.values() for action in sub._actions
                 if not isinstance(action, argparse._HelpAction)
                 for name in action.option_strings or [action.dest]]
        assert sorted(names) == [
            "--a-classes", "--antidiag", "--bound", "--derive", "--n", "--n",
            "--out", "--out", "--out", "--out", "--phis", "--winding",
            "--workers", "--workers", "state", "state", "structure",
        ]


class TestSearch:
    def test_n5_golden_csv(self, tmp_path, capsys):
        base = str(tmp_path / "out")
        assert main(["search", "--n", "5", "--out", base]) == 0
        assert (tmp_path / "out.csv").read_text() == GOLDEN_N5_CSV
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["chi_min_denominators"] == [3, 4, 5]
        assert len(doc["records"]) == 4
        out = capsys.readouterr().out
        assert "chi_min set: pi/3 pi/4 pi/5" in out

    @pytest.mark.usefixtures("two_cpus")
    def test_deterministic_across_runs_and_workers(self, tmp_path, capsys):
        texts = []
        for i, workers in enumerate(("1", "2", "1")):
            base = str(tmp_path / f"run{i}")
            assert main(["search", "--n", "5", "--workers", workers, "--out", base]) == 0
            texts.append((tmp_path / f"run{i}.csv").read_bytes()
                         + (tmp_path / f"run{i}.json").read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_a_classes_flag(self, tmp_path, capsys):
        base = str(tmp_path / "ac")
        assert main(["search", "--n", "3", "--a-classes", "--out", base]) == 0
        doc = json.loads((tmp_path / "ac.json").read_text())
        assert doc["records"][0]["a_class_matrices"]

    def test_bound_above_provable_writes_the_provable_table(self, tmp_path, capsys):
        csvs = []
        for bound in ("4", str(10 ** 20)):
            base = tmp_path / f"b{len(bound)}"
            assert main(["search", "--n", "4", "--bound", bound, "--out", str(base)]) == 0
            csvs.append(base.with_suffix(".csv").read_bytes())
            assert json.loads(base.with_suffix(".json").read_text())["sum_bound"] == int(bound)
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bound_below_n(self, tmp_path, capsys, workers):
        base = str(tmp_path / "low")
        assert main(["search", "--n", "5", "--bound", "3", "--workers", workers,
                     "--out", base]) == 2
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_a_class_limit_exceeded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(search, "A_CLASS_WORK_LIMIT", 0)
        base = str(tmp_path / "ac")
        assert main(["search", "--n", "3", "--a-classes", "--out", base]) == 2
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []
        # The work rule replaced the option.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "3", "--a-class-limit", "5", "--out", base])
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n, classes, digest", [
        (6, 49, "c88f2bd8d1925bbe6c29597d8a48a7c4ebc26b8143b95a2a8c39f7ee8ecc0731"),
        (7, 3613, "374ebd1bad5f06f1746521d0f9b9736114dfddb8ae21312e42dbbb450ffc9e8f"),
    ])
    def test_a_classes_json_pinned(self, n, classes, digest, tmp_path, capsys):
        # n = 7 includes the eight records beyond 20 000 raw selections,
        # checked once by orbit counting.
        base = str(tmp_path / "ac")
        assert main(["search", "--n", str(n), "--a-classes", "--out", base]) == 0
        data = (tmp_path / "ac.json").read_bytes()
        doc = json.loads(data)
        assert sum(len(rec["a_class_matrices"]) for rec in doc["records"]) == classes
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("n, flags, csv_digest, json_digest", [
        (8, ["--bound", "32"], "61758bbdec1565df701d317882dcbbcab40f2a51864bd5b408f9469b07b41e9d",
         "d5c2bec0bcfe27fb4d5e11b614fb33ee617d4783c49180ed4aca63a1b758da3d"),
        # Two forked workers: the records are pickled back, merged and sorted.
        (9, ["--workers", "2"], "75c67358640315f75d30809c50a5b2a5bacf3634feb0a8f2bad4ff9d72b6f5f3",
         "d7cbd8163c3900b16a1e7f0d0d09f9771ff2a26d03ef8cff83053ffba1c181f0"),
    ], ids=["n8_bound32", "n9_workers2"])
    @pytest.mark.usefixtures("two_cpus")
    def test_search_tables_pinned(self, n, flags, csv_digest, json_digest, tmp_path, capsys):
        base = str(tmp_path / "s")
        assert main(["search", "--n", str(n), *flags, "--out", base]) == 0
        assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest() == json_digest

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "3", "--workers", "0"],
        ["search", "--n", "3", "--workers", "-2"],
        ["oracle-check", "--n", "3", "--workers", "0"],
    ])
    def test_workers_below_one_rejected(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"topophase: workers must be at least 1, got {argv[-1]}\n"
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "notanint"])
        assert exc.value.code == 1

    def test_small_n_invariant_violation(self, capsys):
        assert main(["search", "--n", "2"]) == 2

    def test_n_beyond_exact_rank_test(self, tmp_path, capsys, monkeypatch):
        def no_work(task):
            raise AssertionError("scanned a chunk")

        monkeypatch.setattr(search, "_scan_batch", no_work)
        base = str(tmp_path / "big")
        assert main(["search", "--n", "23", "--out", base]) == 2
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [[], ["--bound", str(10 ** 20)]])
    def test_huge_n_refused_at_once(self, flags, tmp_path, capsys):
        base = str(tmp_path / "huge")
        start = time.perf_counter()
        assert main(["search", "--n", "100000000", *flags, "--out", base]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "topophase: search is exact only up to n = 22 (rank test modulo 2^31 - 1)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n, flags, bound, source, complete", [
        (5, ["--bound", "10"], 10, "user", True),
        (7, ["--bound", "56"], 56, "user", True),
        (5, [], 20, "default-4n", True),
        (7, [], 28, "default-4n", False),
        (5, ["--bound", "11"], 11, "user", True),
        (5, ["--bound", "9"], 9, "user", False),
    ])
    def test_bound_provenance(self, tmp_path, capsys, n, flags, bound, source, complete):
        base = str(tmp_path / "p")
        assert main(["search", "--n", str(n), *flags, "--out", base]) == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert (doc["sum_bound"], doc["bound_source"], doc["complete"]) == (
            bound, source, complete)
        err = capsys.readouterr().err
        if complete:
            assert err == ""
        else:
            provable = search.completeness_bound(n)
            assert err == (
                f"topophase: warning: bound {bound} is below the provable completeness "
                f"bound {provable} for n = {n}; the table may be truncated\n"
            )

    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_json_counters(self, tmp_path, capsys, workers):
        base = str(tmp_path / "c")
        assert main(["search", "--n", "6", "--bound", "24", "--workers", workers,
                     "--out", base]) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert (doc["multisets_scanned"], doc["rank_tests"]) == (962, 523)


class TestConstruct:
    def test_worked_seven_qubit_structure(self, tmp_path, capsys):
        spec = {
            "multiset": [4, 3, 3, 1, 1, 1, 1],
            "Z": 4,
            "patterns": [[1], [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]],
        }
        src = tmp_path / "structure.json"
        src.write_text(json.dumps(spec))
        out = tmp_path / "state.json"
        assert main(["construct", str(src), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [t["bits"] for t in doc["terms"]] == WORKED_SEVEN_QUBIT_SUPPORT

    def test_uniqueness_is_one_determinant(self, tmp_path, monkeypatch, capsys):
        # Wrap the functions in every module that imported them by name, as
        # the benchmark's tracer does: uniqueness is decided by the sign
        # matrix's determinant, with no solve.
        import topophase

        calls = {"determinant": 0, "solve_rational": 0}
        for name in calls:
            original = getattr(topophase.exactlinalg, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for mod in vars(topophase).values():
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        src = tmp_path / "structure.json"
        src.write_text(json.dumps(self.WORKED))
        assert main(["construct", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["bits"] for t in doc["terms"]] == WORKED_SEVEN_QUBIT_SUPPORT
        assert calls == {"determinant": 1, "solve_rational": 0}

    def test_three_qubit_structure(self, tmp_path, capsys):
        spec = {"multiset": [1, 1, 1], "Z": 1, "patterns": [[1], [2], [3]]}
        src = tmp_path / "structure.json"
        src.write_text(json.dumps(spec))
        assert main(["construct", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["bits"] for t in doc["terms"]] == ["111", "100", "010", "001"]

    WORKED = {
        "multiset": [4, 3, 3, 1, 1, 1, 1],
        "Z": 4,
        "patterns": [[1], [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]],
    }

    @pytest.mark.parametrize("change", [
        {"multiset": [4.9, 3, 3, 1, 1, 1, True], "Z": 4.2},
        {"multiset": [4.0, 3, 3, 1, 1, 1, 1]},
        {"multiset": [4, 3, 3, 1, 1, 1, True]},
        {"multiset": [4, 3, 3, 1, 1, 1, "1"]},
        {"multiset": "4331111"},
        {"multiset": {"4": 1}},
        {"Z": 4.0},
        {"Z": "4"},
        {"Z": True},
        {"Z": [4]},
        {"patterns": [[1.0], [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]]},
        {"patterns": [["1"], [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]]},
        {"patterns": [[True], [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]]},
        {"patterns": [1, [2, 4], [2, 5], [2, 6], [2, 7], [3, 6], [4, 5, 6, 7]]},
        {"patterns": "1 24 25 26 27 36 4567"},
    ])
    def test_non_integer_values_rejected(self, change, tmp_path, capsys):
        src = tmp_path / "structure.json"
        src.write_text(json.dumps({**self.WORKED, **change}))
        out = tmp_path / "state.json"
        assert main(["construct", str(src), "--out", str(out)]) == 1
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("patterns", [
        [[1], [2], [0]],
        [[1], [2], [4]],
        [[1], [2], [3, 3]],
    ], ids=["zero", "n_plus_one", "repeated"])
    def test_pattern_outside_positions_rejected(self, patterns, tmp_path, capsys):
        # The pattern is quoted 1-based, as the document wrote it.
        src = tmp_path / "structure.json"
        src.write_text(json.dumps({"multiset": [1, 1, 1], "Z": 1, "patterns": patterns}))
        out = tmp_path / "state.json"
        assert main(["construct", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"topophase: structure document: pattern "
                                           f"{json.dumps(patterns[2])} is not a set of "
                                           f"positions in 1..3\n")
        assert not out.exists()

    def test_singular_selection_rejected(self, tmp_path, capsys):
        spec = {"multiset": [1, 1, 1], "Z": 1, "patterns": [[1], [1], [2]]}
        src = tmp_path / "structure.json"
        src.write_text(json.dumps(spec))
        assert main(["construct", str(src)]) == 2
        assert "uniquely" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"multiset": [], "Z": 1, "patterns": []},
        {"multiset": [1], "Z": 1, "patterns": [[1]]},
    ], ids=["n0", "n1"])
    def test_fewer_than_three_positions(self, spec, tmp_path, capsys):
        # No structure on n <= 2 positions is valid, so its size is refused
        # before any arithmetic invariant is checked.
        src = tmp_path / "structure.json"
        src.write_text(json.dumps(spec))
        assert main(["construct", str(src)]) == 2
        assert capsys.readouterr().err == "topophase: maximal-length structures need n >= 3\n"

    def test_every_table_structure_round_trips(self, tmp_path, capsys):
        # Every structure of the n = 3..7 tables, as the 1-based document
        # `construct` reads, gives a state that `analyze` reports at
        # d = 2 * (sum - Z) and whose derived stabilizer verifies.
        src, state = tmp_path / "structure.json", tmp_path / "state.json"
        count = 0
        for n in range(3, 8):
            for s in search.enumerate_structures(n, 4 * n):
                patterns = [[p + 1 for p in pat] for pat in s.patterns]
                src.write_text(json.dumps(
                    {"multiset": list(s.multiset), "Z": s.z, "patterns": patterns}))
                assert main(["construct", str(src), "--out", str(state)]) == 0
                assert main(["analyze", str(state)]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report["d"] == 2 * (s.total - s.z) and report["maximal_length"]
                assert report["certificate_kind"] == "convex" and min(report["certificate"]) > 0
                assert main(["verify", str(state), "--derive"]) == 0
                assert json.loads(capsys.readouterr().out)["matched"]
                count += 1
        assert count == 142


class TestVerify:
    def test_derive_output_pinned(self, tmp_path, capsys):
        # Each worked state gains the first three +-1 columns orthogonal to
        # its kernel vector, so the stabilizer system has free parameters.
        # The float residual's last bits depend on the platform's math
        # library, so it is checked against the tolerance and left out of
        # the hash; every exact field is hashed byte for byte.
        digest = hashlib.sha256()
        worked = [FIVE_QUBIT_SIX_TERM, FIVE_QUBIT_MAXLEN_PI4, FIVE_QUBIT_MAXLEN_PI5,
                  SEVEN_QUBIT_PI18, WORKED_SEVEN_QUBIT_SUPPORT]
        for bits in worked:
            state = support_state(len(bits[0]), bits)
            (kernel,) = weight_matrix(state).kernel
            columns = [col for col in product((1, -1), repeat=state.m)
                       if sum(c * x for c, x in zip(kernel, col)) == 0]
            for col in columns[:3]:
                state = append_column(state, col)
            path = tmp_path / f"t{state.n}.json"
            path.write_text(state_to_json(state))
            assert main(["verify", str(path), "--derive"]) == 0
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert doc["matched"] and doc["residual"] <= stabilizers.DEFAULT_TOLERANCE
            assert doc["free_parameters"] == 3
            digest.update(re.sub(r'"residual": [^,]*,', '"residual": R,', out).encode())
        assert digest.hexdigest() == (
            "3a8bef69a3d1ad4661155f8e1734ce3083104ddd64de022265236080aac6f90d"
        )

    def test_ghz3_derive(self, ghz3_file, capsys):
        assert main(["verify", ghz3_file, "--derive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] and doc["chi"] == {"num": 1, "den": 1}
        assert doc["residual"] <= stabilizers.DEFAULT_TOLERANCE

    def test_quarter_phase_with_suitable_winding(self, tmp_path, capsys):
        path = tmp_path / "s4.json"
        path.write_text(state_to_json(
            support_state(5, ["11111", "10000", "01000", "00100", "00010", "00001"])))
        assert main(["verify", str(path), "--derive", "--winding", "0,-1,0,0,0,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi"] == {"num": 1, "den": 4}

    def test_w3_derive_diagnostic(self, w3_file, capsys):
        assert main(["verify", w3_file, "--derive"]) == 2
        assert "continuous phase family" in capsys.readouterr().err

    @pytest.mark.parametrize("winding", [[], ["--winding", "0,0,0,0"]], ids=["default", "zero"])
    def test_continuous_family_refused_before_the_winding(self, winding, tmp_path, capsys):
        # The first qubit is 0 in every term, so the family is continuous;
        # the default winding is inconsistent as well, and continuity is
        # what the one line reports.
        path = tmp_path / "corner.json"
        path.write_text(state_to_json(support_state(3, ["000", "011", "001", "010"])))
        assert main(["verify", str(path), "--derive", *winding]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "topophase: continuous phase family; no topological phase in this basis\n")

    def test_derive_builds_no_kernel_lattice(self, tmp_path, capsys, monkeypatch):
        # Continuity is read off the solve's own pivots.
        def no_kernel(*args):
            raise AssertionError("verify --derive built a kernel lattice")

        monkeypatch.setattr(states, "kernel_lattice", no_kernel)
        for bits, code in ((SEVEN_QUBIT_PI18, 0), (["000", "011", "001", "010"], 2)):
            path = tmp_path / f"{len(bits)}.json"
            path.write_text(state_to_json(support_state(len(bits[0]), bits)))
            assert main(["verify", str(path), "--derive"]) == code
        capsys.readouterr()

    @pytest.mark.parametrize("winding", ["x", "1,0"])
    def test_w3_malformed_winding_is_a_usage_error(self, w3_file, winding, capsys):
        # The --winding list is checked before the continuous phase family.
        assert main(["verify", w3_file, "--derive", "--winding", winding]) == 1
        assert_one_line_error(capsys)

    def test_explicit_phis(self, ghz3_file, capsys):
        assert main(["verify", ghz3_file, "--phis", "1/2,1/4,1/4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] and doc["chi"] == {"num": 1, "den": 1}

    def test_explicit_antidiag(self, ghz3_file, capsys):
        assert main(["verify", ghz3_file, "--antidiag", "0,0,1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] and doc["chi"] == {"num": 1, "den": 2}

    def test_mismatch_exit_code(self, ghz3_file, capsys):
        # not a stabilizer of GHZ3: the angle sum is not a multiple of pi
        assert main(["verify", ghz3_file, "--phis", "1/2,0,0"]) == 3

    def test_zero_tolerance(self, ghz3_file, tmp_path, capsys):
        # The bound is fixed, so no value of it is accepted.
        out = tmp_path / "verify.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", ghz3_file, "--derive", "--tolerance", "0", "--out", str(out)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--derive"], ["--phis", "1/2,1/4,1/4"],
                                      ["--antidiag", "0,0,1/2"], ["--phis", "1/3,1/5,1/7"]],
                             ids=["derive", "phis", "antidiag", "phis_not_eigen"])
    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance(self, ghz3_file, capsys, mode, tolerance):
        # GHZ3 is no eigenstate of the last operator; an infinite tolerance
        # once reported it as matched. No mode takes a tolerance now.
        with pytest.raises(SystemExit) as exc:
            main(["verify", ghz3_file, *mode, "--tolerance", tolerance])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "unrecognized arguments: --tolerance" in captured.err

    def test_beyond_dense_limit(self, tmp_path, capsys):
        # Diagonal operators are monomial, so 21 qubits need no 2^21 vector.
        path = tmp_path / "ghz21.json"
        path.write_text(state_to_json(ghz_state(21)))
        for mode in (["--derive"], ["--phis", ",".join(["0"] * 21)]):
            assert main(["verify", str(path), *mode]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["matched"] is True and doc["residual"] <= stabilizers.DEFAULT_TOLERANCE

    def test_derive_on_64_qubits(self, tmp_path, capsys, monkeypatch):
        def no_dense(*args):
            raise AssertionError("built a 2^n vector for a monomial operator")

        monkeypatch.setattr(stabilizers, "apply_local_unitaries", no_dense)
        path = tmp_path / "t64.json"
        path.write_text(state_to_json(telescoped(FIVE_QUBIT_MAXLEN_PI5, 64, seed=64)))
        start = time.perf_counter()
        assert main(["verify", str(path), "--derive"]) == 0
        assert time.perf_counter() - start < 1.0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True and doc["chi"] == {"num": -3, "den": 5}

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e300, 1.7e308, 1e-300, 1.2e308 * (1 + 1j)])
    def test_derive_is_scale_invariant(self, scale, tmp_path, capsys):
        # The pi/5 worked state with every amplitude scaled (the last scale's
        # modulus is past the float range): the residual is measured relative
        # to the largest real or imaginary part.
        state = support_state(5, FIVE_QUBIT_MAXLEN_PI5)
        path = tmp_path / "scaled.json"
        scaled = SparseState(5, tuple((b, a * scale) for b, a in state.terms))
        path.write_text(state_to_json(scaled))
        assert main(["verify", str(path), "--derive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True and doc["residual"] <= stabilizers.DEFAULT_TOLERANCE
        assert doc["chi"] == {"num": -3, "den": 5}

    @pytest.mark.parametrize("mode, angles, chi", [
        ("--phis", "1000000000000000001,0,0", {"num": 1, "den": 1}),  # -I (x) I (x) I
        ("--antidiag", "1000000000000000001/2,0,0", {"num": 1, "den": 2}),
    ])
    def test_large_exact_angle(self, mode, angles, chi, ghz3_file, capsys):
        # Each angle is reduced mod 2 before it becomes a float; as a float
        # 10^18 + 1 has lost its odd residue.
        assert main(["verify", ghz3_file, mode, angles]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True and doc["chi"] == chi

    def test_derive_large_winding(self, ghz3_file, capsys):
        assert main(["verify", ghz3_file, "--derive", "--winding", "12345678901234567,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True and doc["residual"] <= stabilizers.DEFAULT_TOLERANCE
        assert doc["phis"][0] == {"num": -12345678901234567, "den": 1}

    @pytest.mark.parametrize("mode", ["--phis", "--antidiag"])
    @pytest.mark.parametrize("angles", ["1e400,0,0", "0,-1e400,0", "1e308,0,0"])
    def test_angle_beyond_float_range(self, mode, angles, ghz3_file, capsys):
        assert main(["verify", ghz3_file, mode, angles]) == 1
        err = capsys.readouterr().err
        assert err.startswith("topophase: angle out of float range") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["--phis", "--antidiag"])
    @pytest.mark.parametrize("angle", ["1e30000000", "-1E-30000000", "0.5e+3_000_000_000", "0e325"])
    def test_huge_exponent_refused_before_fraction(self, mode, angle, ghz3_file, capsys):
        # Fraction would build 10^|exponent| first: 1e10000000 alone takes seconds.
        start = time.perf_counter()
        assert main(["verify", ghz3_file, mode, f"0,{angle},0"]) == 1
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == (
            "", f"topophase: angle out of float range in '0,{angle},0'\n")

    @pytest.mark.parametrize("angles", ["abc,1e30000000,0", "1/2e30000000,0,0"])
    def test_parse_error_before_huge_exponent(self, angles, ghz3_file, capsys):
        assert main(["verify", ghz3_file, "--phis", angles]) == 1
        assert capsys.readouterr().err == (
            f"topophase: expected comma-separated rationals, got {angles!r}\n")

    @pytest.mark.parametrize("mode, angles", [("--phis", "1e-324,0,0"), ("--antidiag", "0,0,5e-1")])
    def test_exponent_within_reach_kept(self, mode, angles, ghz3_file, capsys):
        # 1e-324 rounds to a zero angle; 5e-1 is the README example's 1/2.
        assert main(["verify", ghz3_file, mode, angles]) == 0
        assert json.loads(capsys.readouterr().out)["matched"] is True

    @pytest.mark.parametrize("flags, chi", [
        (["--phis", "-1/2,3/4,3/4"], {"num": 1, "den": 1}),
        (["--antidiag", "-1/2,0,1"], {"num": 1, "den": 2}),
        (["--derive", "--winding", "-1,0"], {"num": 1, "den": 1}),
    ])
    def test_list_starting_with_minus_needs_equals(self, flags, chi, ghz3_file, capsys):
        # argparse reads a separate "-1,..." as an option, not as the list.
        with pytest.raises(SystemExit) as exc:
            main(["verify", ghz3_file, *flags])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: topophase verify ")
        assert err.endswith(f"\ntopophase verify: error: argument {flags[-2]}: "
                            "expected one argument\n")
        assert err.count("error:") == 1 and "Traceback" not in err
        joined = [*flags[:-2], f"{flags[-2]}={flags[-1]}"]
        assert main(["verify", ghz3_file, *joined]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True and doc["chi"] == chi

    def test_exactly_one_mode(self, ghz3_file, capsys):
        assert main(["verify", ghz3_file]) == 1
        assert main(["verify", ghz3_file, "--derive", "--phis", "0,0,0"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--phis", "1,,0,0"], ["--phis", ",1,0,0"], ["--phis", "1,0,0,"], ["--phis", "1, ,0,0"],
        ["--antidiag", "0,,0,1/2"], ["--derive", "--winding", "1,,0"],
        ["--derive", "--winding", ",1,0"], ["--derive", "--winding", "1,0,"],
    ])
    def test_empty_field_refused(self, flags, ghz3_file, capsys):
        # Without the empty field each list has the length the state needs.
        assert main(["verify", ghz3_file, *flags]) == 1
        kind = "integers" if "--derive" in flags else "rationals"
        assert capsys.readouterr() == (
            "", f"topophase: expected comma-separated {kind}, got {flags[-1]!r}\n")

    @pytest.mark.parametrize("mode", [["--phis", "1,0,0"], ["--antidiag", "0,0,1/2"]])
    def test_winding_needs_derive(self, mode, ghz3_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", ghz3_file, *mode, "--winding", "5", "--out", str(out)]) == 1
        assert_one_line_error(capsys)
        assert capsys.readouterr().out == "" and not out.exists()


class TestOracleCheck:
    def test_n3_passes(self, capsys):
        assert main(["oracle-check", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n, records", [(3, 1), (4, 1), (5, 4)])
    def test_searches_to_the_completeness_bound(self, n, records, capsys):
        assert main(["oracle-check", "--n", str(n)]) == 0
        assert capsys.readouterr().out == (
            f"oracle check n={n}: PASS ({records} records, bound {search.completeness_bound(n)})\n"
        )

    def test_bad_n(self, capsys, monkeypatch):
        # The oracle owns the qubit range and runs first; n = 2 passes it,
        # and the search refuses.
        assert main(["oracle-check", "--n", "2"]) == 2
        assert capsys.readouterr().err == "topophase: maximal-length structures need n >= 3\n"

        def no_search(*args, **kwargs):
            raise AssertionError("searched before the oracle refused n")

        monkeypatch.setattr(search, "search_tables", no_search)
        assert main(["oracle-check", "--n", "1"]) == 2
        assert capsys.readouterr().err == "topophase: need at least two qubits\n"
        for n in ("7", "1000000000"):
            start = time.perf_counter()
            assert main(["oracle-check", "--n", n]) == 2
            assert time.perf_counter() - start < 0.5
            assert capsys.readouterr().err == "topophase: oracle cost explodes beyond n=6\n"

    def test_help_names_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert f"oracle vs search (n <= {search.ORACLE_MAX_QUBITS})" in capsys.readouterr().out
