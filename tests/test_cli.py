"""Command-line surface: subcommands, output formats, exit codes."""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cbrsearch import (
    Case,
    PreprocessConfig,
    build_index,
    cli,
    load_index,
    load_stopwords,
    read_corpus,
    save_index,
    store,
)
from cbrsearch import index as index_module
from cbrsearch.cli import EXIT_DATA, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, main
from conftest import SAMPLE_TITLES, generate_titles, sealed_index_text

# arrays nested deeper than the default recursion limit: json.loads raises
# RecursionError on them, not ValueError, before it reaches the missing ends
DEEP_JSON = "[" * 1000


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def plain_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(SAMPLE_TITLES) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def indexed(plain_corpus, tmp_path, capsys):
    index_path = tmp_path / "corpus.idx"
    code = main([
        "index", "--input", str(plain_corpus), "--format", "plain",
        "--output", str(index_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    return index_path


class TestCmdIndex:
    def test_reports_counts_and_writes_the_index(self, plain_corpus, tmp_path, capsys):
        out_path = tmp_path / "out.idx"
        code, out, _ = run_cli(
            ["index", "--input", str(plain_corpus), "--format", "plain",
             "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert "cases indexed: 5" in out
        assert "cases skipped: 0" in out
        assert "vocabulary size:" in out
        assert out_path.exists()

    def test_large_plain_corpus_with_skipped_rows(self, tmp_path, capsys):
        rng = random.Random(705)
        lines = generate_titles(rng, 705)
        for gap in (12, 99, 433):  # a few unusable rows
            lines[gap] = "??!"
        corpus = tmp_path / "big.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["index", "--input", str(corpus), "--format", "plain",
             "--output", str(tmp_path / "big.idx")],
            capsys,
        )
        assert code == EXIT_OK
        assert "cases indexed: 702" in out
        assert "cases skipped: 3" in out
        assert "skipped 13: title tokenizes to empty" in out

    def test_missing_input_exits_2_naming_the_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["index", "--input", str(tmp_path / "ghost.txt"), "--format", "plain",
             "--output", str(tmp_path / "x.idx")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "ghost.txt" in err

    def test_duplicate_record_id_exits_2_naming_the_id(self, tmp_path, capsys):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text(
            '{"id":"r1","title":"Sistem Parkir"}\n{"id":"r1","title":"Aplikasi Kasir"}\n',
            encoding="utf-8",
        )
        code, _, err = run_cli(
            ["index", "--input", str(corpus), "--format", "record",
             "--output", str(tmp_path / "x.idx")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "r1" in err

    def test_a_too_deeply_nested_record_exits_2_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text(
            '{"id":"r1","title":"Sistem Parkir"}\n{"id":"r2","title":' + DEEP_JSON + "}\n",
            encoding="utf-8",
        )
        output = tmp_path / "x.idx"
        code, out, err = run_cli(
            ["index", "--input", str(corpus), "--format", "record", "--output", str(output)],
            capsys,
        )
        assert code == EXIT_DATA
        assert out == ""
        assert f"{corpus}:2: not a valid record" in err
        assert not output.exists()

    def test_stopword_file_is_applied(self, plain_corpus, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("dengan\ndan\n", encoding="utf-8")
        out_path = tmp_path / "stopped.idx"
        code, _, _ = run_cli(
            ["index", "--input", str(plain_corpus), "--format", "plain",
             "--output", str(out_path), "--stopwords", str(stop)],
            capsys,
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(
            ["query", "--index", str(out_path), "--query", "dengan dan navigasi"],
            capsys,
        )
        assert code == EXIT_OK
        assert "dropped terms: (none)" in out  # stopwords vanish before lookup

    @pytest.mark.parametrize("blanks", [(), (0, 57, 399)], ids=["none-skipped", "skipped"])
    @pytest.mark.parametrize("stopwords, min_len", [(False, 1), (True, 3)],
                             ids=["default", "stopwords-min-len-3"])
    def test_writes_the_bytes_of_save_index_over_build_index(
        self, tmp_path, capsys, stopwords, min_len, blanks
    ):
        lines = generate_titles(random.Random(811), 400)
        for gap in blanks:
            lines[gap] = "??!"
        corpus = tmp_path / "titles.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["index", "--input", str(corpus), "--format", "plain",
                "--output", str(tmp_path / "cli.idx"), "--min-token-len", str(min_len)]
        config = PreprocessConfig(min_token_length=min_len)
        if stopwords:
            stop = tmp_path / "stop.txt"
            stop.write_text("sistem\n# not a word\nAplikasi\n", encoding="utf-8")
            argv += ["--stopwords", str(stop)]
            config = PreprocessConfig(stopwords=load_stopwords(stop), min_token_length=min_len)
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert f"cases skipped: {len(blanks)}" in out
        save_index(build_index(read_corpus(corpus, "plain"), config)[0], tmp_path / "library.idx")
        assert (tmp_path / "cli.idx").read_bytes() == (tmp_path / "library.idx").read_bytes()

    def test_waits_for_the_corpus_lock_that_add_holds(self, plain_corpus, tmp_path, capsys):
        output = tmp_path / "waited.idx"
        argv = ["index", "--input", str(plain_corpus), "--format", "plain",
                "--output", str(output)]
        codes = []
        with open(plain_corpus, "rb") as held:
            fcntl.flock(held.fileno(), fcntl.LOCK_EX)  # as a running add holds it
            rebuild = threading.Thread(target=lambda: codes.append(main(argv)))
            rebuild.start()
            rebuild.join(0.5)
            assert rebuild.is_alive()
            assert not output.exists()
        rebuild.join(30)  # closing the file released the lock
        assert not rebuild.is_alive()
        assert codes == [EXIT_OK]
        assert "cases indexed: 5" in capsys.readouterr().out


class TestCmdQuery:
    def test_verbatim_title_scores_one(self, indexed, capsys):
        code, out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", SAMPLE_TITLES[2]],
            capsys,
        )
        assert code == EXIT_OK
        first = out.splitlines()[0]
        assert "1.000000" in first
        assert SAMPLE_TITLES[2] in first

    def test_oov_query_exits_zero_with_count_zero(self, indexed, capsys):
        code, out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "quantum blockchain"],
            capsys,
        )
        assert code == EXIT_OK
        assert "matches: 0" in out
        assert "dropped terms: blockchain, quantum" in out

    def test_top_k_truncates_but_reports_the_full_count(self, indexed, capsys):
        code, out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "sistem aplikasi", "--top-k", "2"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        result_rows = [line for line in lines if line.startswith(" ")]
        assert len(result_rows) == 2
        assert "matches: 4" in out

    def test_records_format_is_json_per_line_with_exact_fields(self, indexed, capsys):
        code, out, err = run_cli(
            ["query", "--index", str(indexed), "--query", "navigasi gedung",
             "--format", "records"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"rank", "id", "title", "score", "count"}
        assert json.loads(lines[0])["rank"] == 1
        assert "matches: 1" in err

    def test_set_scorer_flag(self, indexed, capsys):
        code, out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", SAMPLE_TITLES[3],
             "--scorer", "set"],
            capsys,
        )
        assert code == EXIT_OK
        assert "1.000000" in out.splitlines()[0]

    def test_threshold_filters(self, indexed, capsys):
        _, all_out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "sistem aplikasi"], capsys
        )
        _, cut_out, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "sistem aplikasi",
             "--threshold", "0.5"],
            capsys,
        )
        assert len(cut_out.splitlines()) <= len(all_out.splitlines())

    def test_corrupt_index_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_text("not an index", encoding="utf-8")
        code, _, err = run_cli(["query", "--index", str(bad), "--query", "x"], capsys)
        assert code == EXIT_DATA
        assert "corrupt" in err

    def test_a_too_deeply_nested_index_exits_2_naming_the_file(self, tmp_path, capsys):
        deep = tmp_path / "deep.idx"
        deep.write_text(DEEP_JSON, encoding="utf-8")
        code, out, err = run_cli(["query", "--index", str(deep), "--query", "x"], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert f"corrupt index file {deep}: not parseable as JSON" in err

    @pytest.mark.parametrize(
        "version, text",
        [
            (1,
             '{"corpus_size":2,"documents":[{"counts":[[0,1],[1,1]],"id":"d1","title":"a b",'
             '"token_total":2},{"counts":[[0,1],[2,1]],"id":"d2","title":"a c","token_total":2}],'
             '"format":"cbrsearch-index","format_version":1,"preprocess":{"casefold":true,'
             '"min_token_length":1,"stopwords":[]},"preprocess_fingerprint":'
             '"57e8a2f347fabab1d98b0b5b9aaf7030e26684ce14872f64e523cebc1930c4a0",'
             '"vocabulary":[["a",0,2],["b",1,1],["c",2,1]],"weights_sha256":'
             '"ac7137fa9503b136eca6e49747c465f4032cd8c2246d4d6681a7fd0bd7aca57a"}\n'),
            (2,
             '{"counts":[[0,1,1,1],[0,1,2,1]],"format":"cbrsearch-index","format_version":2,'
             '"ids":["d1","d2"],"preprocess":{"casefold":true,"min_token_length":1,'
             '"stopwords":[]},"preprocess_fingerprint":'
             '"57e8a2f347fabab1d98b0b5b9aaf7030e26684ce14872f64e523cebc1930c4a0",'
             '"terms":["a","b","c"],"titles":["a b","a c"],"weights_sha256":'
             '"2610681ddccaa6de3c2fa7708a47d349e1237ac72b3df0dcc7b183afc080bee6"}\n'),
            (3,
             '{"counts":[[0,1,1,1],[0,1,2,1]],"format":"cbrsearch-index","format_version":3,'
             '"ids":["d1","d2"],"preprocess":{"casefold":true,"min_token_length":1,'
             '"stopwords":[]},"preprocess_fingerprint":'
             '"57e8a2f347fabab1d98b0b5b9aaf7030e26684ce14872f64e523cebc1930c4a0",'
             '"terms":["a","b","c"],"titles":["a b","a c"],"weights_sha256":'
             '"50e99a24b60b5e6eb2cf2f893e6ad8fe573144f1e52c1cbe93811d6bb0c82649"}\n'),
        ],
        ids=["v1", "v2", "v3"],
    )
    def test_format_version_1_index_exits_2_with_a_rebuild_hint(
        self, tmp_path, capsys, version, text
    ):
        old = tmp_path / f"v{version}.idx"
        old.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["query", "--index", str(old), "--query", "a"], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert f"unsupported index format version {version}" in err
        assert "rebuild it with `cbrsearch index`" in err

    def test_byte_identical_output_for_identical_invocations(self, indexed, capsys):
        argv = ["query", "--index", str(indexed), "--query", "sistem monitoring"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestCmdAdd:
    @pytest.fixture
    def record_pair(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = [
            json.dumps({"id": f"r{i}", "title": title}, ensure_ascii=False)
            for i, title in enumerate(SAMPLE_TITLES, start=1)
        ]
        corpus.write_text("\n".join(records) + "\n", encoding="utf-8")
        index_path = tmp_path / "corpus.idx"
        code = main([
            "index", "--input", str(corpus), "--format", "record",
            "--output", str(index_path),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        return corpus, index_path

    def test_added_case_is_found_at_one(self, record_pair, capsys):
        corpus, index_path = record_pair
        code, out, _ = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r6", "--title", "Sistem Pakar Diagnosa Penyakit",
             "--solution", "basis aturan"],
            capsys,
        )
        assert code == EXIT_OK
        assert "corpus size: 6" in out
        code, out, _ = run_cli(
            ["query", "--index", str(index_path), "--query",
             "Sistem Pakar Diagnosa Penyakit"],
            capsys,
        )
        assert code == EXIT_OK
        assert "1.000000" in out.splitlines()[0]
        assert "r6" in out.splitlines()[0]

    def test_duplicate_id_exits_2_without_touching_files(self, record_pair, capsys):
        corpus, index_path = record_pair
        corpus_before = corpus.read_bytes()
        index_before = index_path.read_bytes()
        code, _, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r1", "--title", "Judul Lain"],
            capsys,
        )
        assert code == EXIT_DATA
        assert "duplicate" in err
        assert corpus.read_bytes() == corpus_before
        assert index_path.read_bytes() == index_before

    def test_empty_tokenizing_title_exits_2(self, record_pair, capsys):
        corpus, index_path = record_pair
        code, _, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r7", "--title", "???"],
            capsys,
        )
        assert code == EXIT_DATA
        assert "tokenizes to empty" in err

    @pytest.mark.parametrize("deep_file", ["index", "corpus"])
    def test_a_too_deeply_nested_file_exits_2_leaving_both_files(
        self, record_pair, capsys, deep_file
    ):
        corpus, index_path = record_pair
        if deep_file == "index":
            index_path.write_text(DEEP_JSON, encoding="utf-8")
            expected = f"corrupt index file {index_path}: not parseable as JSON"
        else:
            with open(corpus, "a", encoding="utf-8") as handle:
                handle.write('{"id":"r6","title":' + DEEP_JSON + "}\n")
            expected = f"{corpus}:{len(SAMPLE_TITLES) + 1}: not a valid record"
        corpus_before = corpus.read_bytes()
        index_before = index_path.read_bytes()
        code, out, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r7", "--title", "Sistem Pakar Diagnosa Penyakit"],
            capsys,
        )
        assert code == EXIT_DATA
        assert out == ""
        assert expected in err
        assert corpus.read_bytes() == corpus_before
        assert index_path.read_bytes() == index_before

    def test_corpus_that_disagrees_with_the_index_exits_2_without_touching_files(
        self, record_pair, capsys
    ):
        corpus, index_path = record_pair
        edited = corpus.read_text(encoding="utf-8").replace(SAMPLE_TITLES[1], "Judul Disunting", 1)
        corpus.write_text(edited, encoding="utf-8")
        before = {path.name: path.read_bytes() for path in corpus.parent.iterdir()}
        code, out, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r6", "--title", "Sistem Pakar Diagnosa Penyakit"],
            capsys,
        )
        assert code == EXIT_DATA
        assert out == ""
        assert "corpus and index disagree" in err
        assert {path.name: path.read_bytes() for path in corpus.parent.iterdir()} == before

    def test_index_saved_without_its_append_is_completed_by_a_retry(self, record_pair, capsys):
        # the state a crash between an add's index save and its append leaves
        corpus, index_path = record_pair
        new_case = Case("r6", "Sistem Pakar Diagnosa Penyakit")
        index = load_index(index_path)
        save_index(build_index([*read_corpus(corpus, "record"), new_case], index.config)[0], index_path)
        ahead = index_path.read_bytes()
        code, out, _ = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", new_case.id, "--title", new_case.title],
            capsys,
        )
        assert code == EXIT_OK
        assert "corpus size: 6" in out
        assert read_corpus(corpus, "record")[-1] == new_case
        assert index_path.read_bytes() == ahead

    @pytest.mark.parametrize(
        "owner, name",
        [(store.os, "fsync"), (store.os, "replace"), (cli, "append_case")],
        ids=["fsync", "replace", "append"],
    )
    def test_fault_midway_leaves_loadable_files_and_a_retry_succeeds(
        self, record_pair, capsys, monkeypatch, owner, name
    ):
        corpus, index_path = record_pair
        before = {path.name: path.read_bytes() for path in corpus.parent.iterdir()}

        def fail(*args, **kwargs):
            raise OSError(f"injected failure in {name}")

        add = ["add", "--index", str(index_path), "--corpus", str(corpus),
               "--id", "r6", "--title", "Sistem Pakar Diagnosa Penyakit"]
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fail)
            code, _, err = run_cli(add, capsys)
        assert code == EXIT_DATA
        assert "injected failure" in err
        assert {path.name: path.read_bytes() for path in corpus.parent.iterdir()} == before
        index = load_index(index_path)
        assert [case.id for case in read_corpus(corpus, "record")] == ["r1", "r2", "r3", "r4", "r5"]

        code, out, _ = run_cli(add, capsys)
        assert code == EXIT_OK
        assert "corpus size: 6" in out
        cases = read_corpus(corpus, "record")
        assert [case.id for case in cases] == ["r1", "r2", "r3", "r4", "r5", "r6"]
        rebuilt = index_path.with_name("rebuilt.idx")
        save_index(build_index(cases, index.config)[0], rebuilt)
        assert index_path.read_bytes() == rebuilt.read_bytes()


    @staticmethod
    def _pair(tmp_path, capsys, records):
        corpus, index_path = tmp_path / "corpus.jsonl", tmp_path / "corpus.idx"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["index", "--input", str(corpus), "--format", "record",
                     "--output", str(index_path)]) == EXIT_OK
        capsys.readouterr()
        return corpus, index_path

    def test_tokenizes_only_the_new_title(self, tmp_path, capsys, monkeypatch):
        titles = generate_titles(random.Random(99), 250)
        corpus, index_path = self._pair(
            tmp_path, capsys, [{"id": f"r{n}", "title": t} for n, t in enumerate(titles)]
        )
        calls = []

        def counted(original):
            def tokenize(*args, **kwargs):
                calls.append(args[0])
                return original(*args, **kwargs)
            return tokenize

        for module in (index_module, cli):
            monkeypatch.setattr(module, "tokenize", counted(module.tokenize))
        code, out, _ = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "x1", "--title", "Sistem Pakar Diagnosa Penyakit"],
            capsys,
        )
        assert (code, out) == (EXIT_OK, "corpus size: 251\n")
        assert 1 <= len(calls) <= 2
        assert set(calls) == {"Sistem Pakar Diagnosa Penyakit"}

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_a_title_holding_a_unicode_line_separator_keeps_the_corpus_readable(
        self, record_pair, capsys, separator
    ):
        # add writes the character as it is; only \n may end a record line
        corpus, index_path = record_pair
        for case_id, title in [("r6", f"Sistem{separator}Pakar"), ("r7", "Aplikasi Pakar")]:
            code, _, err = run_cli(
                ["add", "--index", str(index_path), "--corpus", str(corpus),
                 "--id", case_id, "--title", title],
                capsys,
            )
            assert (code, err) == (EXIT_OK, "")
        cases = read_corpus(corpus, "record")
        assert cases[5] == Case("r6", f"Sistem{separator}Pakar")
        rebuilt = corpus.with_name("rebuilt.idx")
        code, _, _ = run_cli(
            ["index", "--input", str(corpus), "--format", "record", "--output", str(rebuilt)],
            capsys,
        )
        assert code == EXIT_OK
        assert rebuilt.read_bytes() == index_path.read_bytes()
        assert load_index(index_path) == build_index(cases)[0]

    def test_a_skipped_record_mid_corpus_is_walked_past(self, tmp_path, capsys):
        titles = generate_titles(random.Random(7), 40)
        records = [{"id": f"r{n}", "title": t} for n, t in enumerate(titles)]
        records.insert(20, {"id": "blank", "title": "?!?"})
        corpus, index_path = self._pair(tmp_path, capsys, records)
        code, out, _ = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "x1", "--title", "Sistem Pakar Diagnosa Penyakit Baru"],
            capsys,
        )
        assert (code, out) == (EXIT_OK, "corpus size: 41\n")
        rebuilt = tmp_path / "rebuilt.idx"
        save_index(build_index(read_corpus(corpus, "record"))[0], rebuilt)
        assert index_path.read_bytes() == rebuilt.read_bytes()

    def test_the_id_of_a_skipped_record_is_a_duplicate(self, tmp_path, capsys):
        records = [{"id": "r1", "title": "Sistem Informasi"}, {"id": "blank", "title": "?!?"}]
        corpus, index_path = self._pair(tmp_path, capsys, records)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "blank", "--title", "Aplikasi Kasir"],
            capsys,
        )
        assert (code, out, err) == (EXIT_DATA, "", "error: duplicate case id: 'blank'\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_corpus_that_repeats_an_id_exits_2(self, record_pair, capsys):
        corpus, index_path = record_pair
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "r2", "title": "Judul Lain"}) + "\n")
        code, out, err = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus),
             "--id", "r6", "--title", "Sistem Pakar Diagnosa Penyakit"],
            capsys,
        )
        assert (code, out, err) == (EXIT_DATA, "", "error: duplicate case id: 'r2'\n")

    def test_two_concurrent_adds_both_land(self, tmp_path, capsys):
        # big enough that each add's load-build-save outlasts process start-up
        titles = generate_titles(random.Random(4242), 3000)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(json.dumps({"id": f"r{n}", "title": t}) + "\n" for n, t in enumerate(titles)),
            encoding="utf-8",
        )
        index_path = tmp_path / "corpus.idx"
        assert main(["index", "--input", str(corpus), "--format", "record",
                     "--output", str(index_path)]) == EXIT_OK
        capsys.readouterr()
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        new_cases = [("x1", "Sistem Pakar Diagnosa Penyakit"), ("x2", "Aplikasi Kasir Toko")]
        adds = [
            subprocess.Popen(
                [sys.executable, "-m", "cbrsearch", "add", "--index", str(index_path),
                 "--corpus", str(corpus), "--id", case_id, "--title", title],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            for case_id, title in new_cases
        ]
        replies = [add.communicate(timeout=120) for add in adds]
        assert [add.returncode for add in adds] == [EXIT_OK, EXIT_OK], replies
        cases = read_corpus(corpus, "record")
        assert sorted(case.id for case in cases[-2:]) == ["x1", "x2"]
        assert load_index(index_path) == build_index(cases)[0]


class TestNoWriterAssembles:
    """``index`` and ``add`` write stored fields; only a command that ranks constructs an Index."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        # every construction, through any module's name for the class, counts
        calls = []
        original = index_module.Index.__init__

        def counted(index, fields):
            calls.append(len(fields[2]))  # documents indexed
            original(index, fields)

        monkeypatch.setattr(index_module.Index, "__init__", counted)
        return calls

    @staticmethod
    def _pair(tmp_path, capsys):
        records = [{"id": f"r{n}", "title": t}
                   for n, t in enumerate(generate_titles(random.Random(31), 60))]
        records.insert(7, {"id": "blank", "title": "?!?"})
        return TestCmdAdd._pair(tmp_path, capsys, records)

    @staticmethod
    def _add(corpus, index_path):
        return ["add", "--index", str(index_path), "--corpus", str(corpus),
                "--id", "x1", "--title", "Sistem Pakar Diagnosa Penyakit"]

    @pytest.mark.parametrize("corpus_format", ["record", "plain"])
    def test_index_writes_without_assembling_and_a_query_assembles_once(
        self, tmp_path, capsys, assembled, corpus_format
    ):
        corpus = tmp_path / "corpus"
        if corpus_format == "plain":
            corpus.write_text("\n".join(SAMPLE_TITLES) + "\n", encoding="utf-8")
        else:
            corpus.write_text("".join(json.dumps({"id": f"r{n}", "title": t}) + "\n"
                                      for n, t in enumerate(SAMPLE_TITLES)), encoding="utf-8")
        index_path = tmp_path / "corpus.idx"
        code, _, _ = run_cli(["index", "--input", str(corpus), "--format", corpus_format,
                              "--output", str(index_path)], capsys)
        assert code == EXIT_OK
        assert len(assembled) == 0
        code, _, _ = run_cli(["query", "--index", str(index_path), "--query", "sistem"], capsys)
        assert code == EXIT_OK
        assert len(assembled) == 1

    def test_a_fresh_add(self, tmp_path, capsys, assembled):
        corpus, index_path = self._pair(tmp_path, capsys)
        assembled.clear()
        code, out, _ = run_cli(self._add(corpus, index_path), capsys)
        assert (code, out) == (EXIT_OK, "corpus size: 61\n")
        assert len(assembled) == 0

    def test_a_healed_add(self, tmp_path, capsys, assembled):
        corpus, index_path = self._pair(tmp_path, capsys)
        # the index already holds the case, as a crash before the append leaves it
        cases = [*read_corpus(corpus, "record"), Case("x1", "Sistem Pakar Diagnosa Penyakit")]
        save_index(build_index(cases)[0], index_path)
        assembled.clear()
        code, out, _ = run_cli(self._add(corpus, index_path), capsys)
        assert (code, out) == (EXIT_OK, "corpus size: 61\n")
        assert len(assembled) == 0

    def test_an_add_whose_append_fails(self, tmp_path, capsys, assembled, monkeypatch):
        corpus, index_path = self._pair(tmp_path, capsys)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def fail(*args, **kwargs):
            raise OSError("injected failure in append")

        monkeypatch.setattr(cli, "append_case", fail)
        assembled.clear()
        code, _, err = run_cli(self._add(corpus, index_path), capsys)
        assert code == EXIT_DATA
        assert "injected failure" in err
        assert len(assembled) == 0
        assert index_path.read_bytes() == before[index_path.name]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestCmdEval:
    @pytest.fixture
    def titles_file(self, tmp_path):
        path = tmp_path / "titles.txt"
        path.write_text("\n".join(SAMPLE_TITLES) + "\n", encoding="utf-8")
        return path

    def test_stage_counts_match_and_mean_is_one(self, indexed, titles_file, capsys):
        code, out, err = run_cli(
            ["eval", "--index", str(indexed), "--titles", str(titles_file),
             "--seed", "42"],
            capsys,
        )
        assert code == EXIT_OK
        assert err == ""
        assert "mean top score: 1.000000" in out
        for line in out.splitlines():
            if line.startswith("row "):
                fields = dict(part.split("=") for part in line.split(": ", 1)[1].split())
                assert fields["found_stage1"] == fields["found_stage2"]

    def test_different_seeds_same_numbers(self, indexed, titles_file, capsys):
        def numbers(seed):
            code, out, _ = run_cli(
                ["eval", "--index", str(indexed), "--titles", str(titles_file),
                 "--seed", str(seed)],
                capsys,
            )
            assert code == EXIT_OK
            rows = [line for line in out.splitlines() if line.startswith("row ")]
            mean = [line for line in out.splitlines() if line.startswith("mean")]
            return rows, mean

        assert numbers(1) == numbers(99991)

    def test_same_seed_is_byte_deterministic(self, indexed, titles_file, capsys):
        argv = ["eval", "--index", str(indexed), "--titles", str(titles_file),
                "--seed", "7"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_non_corpus_phrase_still_balances_counts(self, indexed, tmp_path, capsys):
        titles = tmp_path / "keywords.txt"
        titles.write_text("sistem monitoring jaringan\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["eval", "--index", str(indexed), "--titles", str(titles), "--seed", "3"],
            capsys,
        )
        assert code == EXIT_OK  # top score below 1.0 is fine for a non-stored title
        row = next(line for line in out.splitlines() if line.startswith("row 1:"))
        assert "found_stage1=" in row

    def test_empty_titles_file_exits_2(self, indexed, tmp_path, capsys):
        titles = tmp_path / "empty.txt"
        titles.write_text("\n\n", encoding="utf-8")
        code, _, err = run_cli(
            ["eval", "--index", str(indexed), "--titles", str(titles), "--seed", "1"],
            capsys,
        )
        assert code == EXIT_DATA
        assert "no titles" in err

    def test_a_loaded_index_derives_every_query_in_one_row_scan(
        self, tmp_path, capsys, monkeypatch
    ):
        class ScannedRows(list):
            scans = 0

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

        cases = [Case(str(n), t) for n, t in enumerate(generate_titles(random.Random(5), 80))]
        index_path, titles = tmp_path / "corpus.idx", tmp_path / "titles.txt"
        save_index(build_index(cases)[0], index_path)
        lines = [case.title for case in cases[:12]] + ["sistem zzz"]
        titles.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = ["eval", "--index", str(index_path), "--titles", str(titles), "--seed", "42"]
        loaded = load_index(index_path)
        rows = loaded.row_offsets = ScannedRows(loaded.row_offsets)
        monkeypatch.setattr(cli, "load_index", lambda path: loaded)
        code, out, err = run_cli(argv, capsys)
        assert (code, err, rows.scans) == (EXIT_OK, "", 1)
        assert None in loaded.postings  # only the titles' terms were derived
        monkeypatch.setattr(cli, "load_index", lambda path: build_index(cases)[0])
        assert run_cli(argv, capsys) == (EXIT_OK, out, "")

    def test_count_mismatch_exits_3(self, indexed, titles_file, capsys, monkeypatch):
        # sabotage the shuffle so stage 2 queries something else entirely
        monkeypatch.setattr(cli, "_permute_title", lambda title, seed, row: "navigasi gedung")
        code, _, err = run_cli(
            ["eval", "--index", str(indexed), "--titles", str(titles_file),
             "--seed", "42"],
            capsys,
        )
        assert code == EXIT_PROPERTY
        assert "violation" in err

    def test_degraded_top_score_for_stored_title_exits_3(self, indexed, titles_file, capsys, monkeypatch):
        # doubling the first word keeps the term set (and so the found count)
        # but tilts the query away from the stored title's direction
        def double_first(title, seed, row):
            words = title.split()
            return " ".join([words[0]] + words)

        monkeypatch.setattr(cli, "_permute_title", double_first)
        code, _, err = run_cli(
            ["eval", "--index", str(indexed), "--titles", str(titles_file),
             "--seed", "42"],
            capsys,
        )
        assert code == EXIT_PROPERTY
        assert "expected 1.0" in err


def _double_first_word(title, seed, row):
    # keeps the term set (and so the found count) but tilts the query away
    # from the stored title's direction
    words = title.split()
    return " ".join([words[0]] + words)


class TestGoldenOutput:
    """Output and file bytes pinned as literals, so a rewrite cannot drift.

    The other tests compare one command with another inside one version of
    the code; these hold every byte ``eval`` prints, and the sha256 of the
    files ``index`` and ``add`` write, to values that do not move with it.
    """

    # a stored title, a keyword phrase that is not stored, and a line whose
    # every token is unknown
    EVAL_TITLES = (
        "Sistem Navigasi Gedung dengan Metode Algoritma Djikstra\n"
        "sistem monitoring kinerja\n"
        "zzz qqq\n"
    )
    EVAL_ROWS = (
        "row 1: found_stage1=4 found_stage2=4 top_score_stage2=1.000000\n"
        "  stage1: Sistem Navigasi Gedung dengan Metode Algoritma Djikstra\n"
        "  stage2: Sistem Djikstra Algoritma Gedung dengan Metode Navigasi\n"
        "row 2: found_stage1=4 found_stage2=4 top_score_stage2={}\n"
        "  stage1: sistem monitoring kinerja\n"
        "  stage2: kinerja sistem monitoring\n"
        "row 3: found_stage1=0 found_stage2=0 top_score_stage2=0.000000\n"
        "  stage1: zzz qqq\n"
        "  stage2: qqq zzz\n"
    )

    @pytest.fixture
    def eval_argv(self, indexed, tmp_path):
        titles = tmp_path / "titles.txt"
        titles.write_text(self.EVAL_TITLES, encoding="utf-8")
        return ["eval", "--index", str(indexed), "--titles", str(titles), "--seed", "42"]

    @pytest.mark.parametrize(
        "scorer, row_2_score, mean",
        [("cosine", "0.344163", "0.448054"), ("set", "0.471405", "0.490468")],
    )
    def test_eval_prints_the_pinned_report(self, eval_argv, capsys, scorer, row_2_score, mean):
        out = (
            f"seed: 42\nscorer: {scorer}\n"
            + self.EVAL_ROWS.format(row_2_score)
            + f"mean top score: {mean}\n"
        )
        assert run_cli([*eval_argv, "--scorer", scorer], capsys) == (EXIT_OK, out, "")

    @pytest.mark.parametrize(
        "permute, out, err",
        [
            (
                lambda title, seed, row: "navigasi gedung",
                "row 1: found_stage1=4 found_stage2=1 top_score_stage2=0.576428\n"
                "  stage1: Sistem Navigasi Gedung dengan Metode Algoritma Djikstra\n"
                "  stage2: navigasi gedung\n"
                "row 2: found_stage1=4 found_stage2=1 top_score_stage2=0.576428\n"
                "  stage1: sistem monitoring kinerja\n"
                "  stage2: navigasi gedung\n"
                "row 3: found_stage1=0 found_stage2=1 top_score_stage2=0.576428\n"
                "  stage1: zzz qqq\n"
                "  stage2: navigasi gedung\n"
                "mean top score: 0.576428\n",
                "violation: row 1: stage-2 found 1 titles, stage-1 found 4\n"
                "violation: row 2: stage-2 found 1 titles, stage-1 found 4\n"
                "violation: row 3: stage-2 found 1 titles, stage-1 found 0\n",
            ),
            (
                _double_first_word,
                "row 1: found_stage1=4 found_stage2=4 top_score_stage2=0.998422\n"
                "  stage1: Sistem Navigasi Gedung dengan Metode Algoritma Djikstra\n"
                "  stage2: Sistem Sistem Navigasi Gedung dengan Metode Algoritma Djikstra\n"
                "row 2: found_stage1=4 found_stage2=4 top_score_stage2=0.345752\n"
                "  stage1: sistem monitoring kinerja\n"
                "  stage2: sistem sistem monitoring kinerja\n"
                "row 3: found_stage1=0 found_stage2=0 top_score_stage2=0.000000\n"
                "  stage1: zzz qqq\n"
                "  stage2: zzz zzz qqq\n"
                "mean top score: 0.448058\n",
                "violation: row 1: stage-2 top score 0.998422 for a stored title"
                " (expected 1.0)\n",
            ),
        ],
        ids=["count-mismatch", "degraded-top-score"],
    )
    def test_eval_violations_print_the_pinned_lines(
        self, eval_argv, capsys, monkeypatch, permute, out, err
    ):
        monkeypatch.setattr(cli, "_permute_title", permute)
        expected = (EXIT_PROPERTY, "seed: 42\nscorer: cosine\n" + out, err)
        assert run_cli(eval_argv, capsys) == expected

    def test_index_and_add_write_the_pinned_bytes(self, tmp_path, capsys):
        corpus, stop, index_path = (
            tmp_path / "corpus.jsonl", tmp_path / "stop.txt", tmp_path / "corpus.idx"
        )
        titles = [*SAMPLE_TITLES, "Aplikasi E Voting di Desa"]
        corpus.write_text(
            "".join(json.dumps({"id": f"r{n}", "title": t}) + "\n" for n, t in enumerate(titles, 1)),
            encoding="utf-8",
        )
        stop.write_text("dan\nDengan\n", encoding="utf-8")
        code, _, _ = run_cli(
            ["index", "--input", str(corpus), "--format", "record", "--output", str(index_path),
             "--stopwords", str(stop), "--min-token-len", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(index_path.read_bytes()).hexdigest() == (
            "c7943e44eeaf0ca20b3b3ac1ddfbaecd992f6e63ddc29c79cace4bf9b65acccd"
        )
        code, _, _ = run_cli(
            ["add", "--index", str(index_path), "--corpus", str(corpus), "--id", "r7",
             "--title", "Sistem Pakar X dan Monitoring Gedung"],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(index_path.read_bytes()).hexdigest() == (
            "67ee7654be3d81c5e743b5f25713f5918612aed3dde5c8fa0df7e5d51858ff18"
        )


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(["query", "--query", "x"], capsys)
        assert code == EXIT_USAGE
        assert "--index" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_bad_choice_value(self, indexed, capsys):
        code, _, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "x", "--scorer", "bm25"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_nonpositive_min_token_len(self, capsys):
        code, _, _ = run_cli(
            ["index", "--input", "x", "--format", "plain", "--output", "y",
             "--min-token-len", "0"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_nonpositive_top_k(self, indexed, capsys):
        code, _, _ = run_cli(
            ["query", "--index", str(indexed), "--query", "x", "--top-k", "0"],
            capsys,
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.0"])
    def test_threshold_outside_unit_interval(self, indexed, capsys, threshold):
        code, out, err = run_cli(
            ["query", "--index", str(indexed), "--query", "sistem",
             "--threshold", threshold],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--threshold" in err

    @pytest.mark.parametrize("argv, message", [
        (["index", "--input", "x", "--format", "plain", "--output", "y", "--min-token-len", "abc"],
         "argument --min-token-len: must be a positive integer, got 'abc'"),
        (["query", "--index", "x", "--query", "q", "--top-k", "abc"],
         "argument --top-k: must be a positive integer, got 'abc'"),
        (["query", "--index", "x", "--query", "q", "--threshold", "abc"],
         "argument --threshold: must be in [0, 1), got 'abc'"),
    ], ids=["min-token-len", "top-k", "threshold"])
    def test_a_non_number_is_refused_in_the_options_own_words(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: {message}\n")
        assert "invalid" not in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == EXIT_OK
        assert "index" in out and "query" in out and "eval" in out


class TestUnencodableText:
    """Files that are not UTF-8, and text UTF-8 cannot encode, exit 2."""

    @pytest.fixture
    def workdir(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"id": f"r{i}", "title": title}) + "\n"
                for i, title in enumerate(SAMPLE_TITLES, start=1)
            ),
            encoding="utf-8",
        )
        code = main(["index", "--input", str(corpus), "--format", "record",
                     "--output", str(tmp_path / "corpus.idx")])
        capsys.readouterr()
        assert code == EXIT_OK
        (tmp_path / "latin1.txt").write_bytes(b"Sistem Informasi Geografis \xff\n")
        # a JSON escape of a lone surrogate: valid JSON, but no UTF-8 encoding
        (tmp_path / "surrogate.jsonl").write_text(
            '{"id":"r1","title":"x \\udcff"}\n', encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["index", "--input", "latin1.txt", "--format", "plain",
              "--output", "corpus.idx"], "latin1.txt"),
            (["index", "--input", "corpus.jsonl", "--format", "record",
              "--output", "corpus.idx", "--stopwords", "latin1.txt"], "latin1.txt"),
            (["eval", "--index", "corpus.idx", "--titles", "latin1.txt",
              "--seed", "1"], "latin1.txt"),
            (["query", "--index", "latin1.txt", "--query", "sistem"], "latin1.txt"),
            (["index", "--input", "surrogate.jsonl", "--format", "record",
              "--output", "corpus.idx"], "surrogate.jsonl:1"),
            # what Python makes of the argument bytes "x \xff" (surrogateescape)
            (["add", "--index", "corpus.idx", "--corpus", "corpus.jsonl",
              "--id", "r6", "--title", "x \udcff"], "--title"),
        ],
        ids=["index-input", "index-stopwords", "eval-titles", "query-index",
             "record-surrogate", "add-title-surrogate"],
    )
    def test_exits_2_naming_the_input_and_leaves_files_unchanged(
        self, workdir, capsys, argv, named
    ):
        before = {path.name: path.read_bytes() for path in workdir.iterdir()}
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DATA
        assert err.startswith("error: ")
        assert named in err
        assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before

    @pytest.mark.parametrize(
        "field, forge_checksum",
        [("ids", False), ("titles", False), ("terms", False), ("titles", True)],
        ids=["ids", "titles", "terms", "titles-checksum-forged"],
    )
    def test_index_string_with_a_lone_surrogate_exits_2(
        self, workdir, capsys, field, forge_checksum
    ):
        document = json.loads((workdir / "corpus.idx").read_text(encoding="utf-8"))
        document[field][0] += " \udcff"
        text = sealed_index_text(document) if forge_checksum else json.dumps(document)
        (workdir / "surrogate.idx").write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            ["query", "--index", "surrogate.idx", "--query", "sistem"], capsys
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: ")
        assert "surrogate.idx" in err
