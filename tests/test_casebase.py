"""The retrieve/reuse/revise/retain cycle and its rebuild guarantees."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from brute import DenseOracle
from cbrsearch import (
    Case,
    CaseBase,
    DataError,
    StateError,
    build_index,
    reuse,
    save_index,
    search,
)
from conftest import SAMPLE_TITLES, generate_titles


@pytest.fixture
def title_base():
    cases = [Case(id=str(i), title=title) for i, title in enumerate(SAMPLE_TITLES, start=1)]
    return CaseBase(cases)


class TestRetrieve:
    def test_verbatim_title_comes_back_first_at_one(self, title_base):
        outcome = title_base.retrieve("Sistem Navigasi Gedung dengan Metode Algoritma Djikstra")
        assert outcome.top_case is not None
        assert outcome.top_case.id == "3"
        assert abs(outcome.results.matches[0].score - 1.0) <= 1e-9

    def test_word_permutation_changes_nothing(self, title_base):
        straight = title_base.retrieve("Sistem Navigasi Gedung dengan Metode Algoritma Djikstra")
        shuffled = title_base.retrieve("Navigasi Sistem Gedung dengan Algoritma Djikstra Metode")
        assert shuffled.results.matches == straight.results.matches
        assert shuffled.results.total_matches == straight.results.total_matches
        assert shuffled.top_case == straight.top_case

    def test_unseen_vocabulary_retrieves_nothing(self, title_base):
        outcome = title_base.retrieve("quantum blockchain")
        assert outcome.results.matches == ()
        assert outcome.top_case is None
        assert outcome.results.dropped_terms == ("blockchain", "quantum")

    def test_set_scorer_is_selectable(self, title_base):
        outcome = title_base.retrieve(
            "Sistem Administrasi Realisasi Kredit BRIGUNA", scorer="set"
        )
        assert outcome.results.scorer == "set"
        assert outcome.top_case.id == "4"
        assert abs(outcome.results.matches[0].score - 1.0) <= 1e-9

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    def test_retrieve_is_search_over_its_index(self, title_base, scorer):
        for text in ["sistem navigasi", "Aplikasi Monitoring Jaringan sistem", "quantum"]:
            outcome = title_base.retrieve(text, scorer=scorer)
            assert outcome.results == search(title_base.index, text, scorer=scorer)
            top = outcome.results.top
            assert outcome.top_case == (title_base.case(top.case_id) if top else None)

    def test_unknown_scorer_is_rejected(self, title_base):
        with pytest.raises(ValueError, match="scorer"):
            title_base.retrieve("sistem", scorer="bm25")

    def test_empty_case_base_cannot_be_built(self):
        with pytest.raises(DataError):
            CaseBase([])


class TestReuse:
    def test_solution_is_projected_with_its_score(self):
        base = CaseBase([
            Case("1", "Sistem Parkir Pintar", solution="modul sensor parkir"),
            Case("2", "Aplikasi Kasir"),
        ])
        result = reuse(base.retrieve("sistem parkir pintar"))
        assert result.case_id == "1"
        assert result.text == "modul sensor parkir"
        assert result.title_only is False
        assert abs(result.score - 1.0) <= 1e-9

    def test_title_stands_in_when_no_solution_is_stored(self, title_base):
        result = reuse(title_base.retrieve("Apliasi Reminder Pembayaran Tagihan Flexi Home"))
        assert result.title_only is True
        assert result.text == "Apliasi Reminder Pembayaran Tagihan Flexi Home"

    def test_nothing_to_reuse_is_signalled(self, title_base):
        with pytest.raises(StateError, match="nothing to reuse"):
            reuse(title_base.retrieve("quantum blockchain"))


class TestRevise:
    def test_solution_only_edit_keeps_the_index_identical(self, title_base, tmp_path):
        revised = title_base.revise("2", solution="arsip solusi")
        assert revised.case("2").solution == "arsip solusi"
        assert revised.index == title_base.index
        before, after = tmp_path / "before.idx", tmp_path / "after.idx"
        save_index(title_base.index, before)
        save_index(revised.index, after)
        assert before.read_bytes() == after.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [{"solution": "arsip solusi"}, {"meta": {"dosen": "B"}}, {"title": SAMPLE_TITLES[1]}],
        ids=["solution", "meta", "same-title"],
    )
    def test_an_edit_that_keeps_the_title_keeps_the_index(self, title_base, edit):
        revised = title_base.revise("2", **edit)
        assert revised.index is title_base.index
        assert revised.report is title_base.report
        assert revised.index == build_index(revised.cases, revised.config)[0]
        assert revised.case("2") == Case("2", SAMPLE_TITLES[1], edit.get("solution"), edit.get("meta"))

    def test_title_edit_changes_what_is_retrievable(self):
        base = CaseBase([Case("d1", "a b"), Case("d2", "a d"), Case("d3", "b d")])
        revised = base.revise("d1", title="a c")
        outcome = revised.retrieve("c")
        assert [m.case_id for m in outcome.results.matches] == ["d1"]
        # cross-check the new weight layout against a dense recomputation
        oracle = DenseOracle({"d1": ["a", "c"], "d2": ["a", "d"], "d3": ["b", "d"]})
        expected = oracle.rank(["c"])
        assert [(m.case_id, pytest.approx(m.score, rel=1e-12)) for m in outcome.results.matches] == expected

    def test_unknown_id_is_an_error_naming_it(self, title_base):
        with pytest.raises(KeyError, match="nope"):
            title_base.revise("nope", solution="x")

    def test_id_change_is_refused(self, title_base):
        with pytest.raises(TypeError, match="id"):
            title_base.revise("2", id="9")

    def test_title_that_tokenizes_to_empty_is_refused(self, title_base):
        with pytest.raises(DataError, match="tokenizes to empty"):
            title_base.revise("2", title="?!?")

    def test_original_base_is_untouched(self, title_base):
        snapshot_cases = title_base.cases
        snapshot_index = title_base.index
        title_base.revise("2", title="Judul Baru Sekali")
        assert title_base.cases is snapshot_cases
        assert title_base.index is snapshot_index
        assert title_base.case("2").title == SAMPLE_TITLES[1]


class TestRetain:
    def test_new_case_is_immediately_retrievable_at_one(self, title_base):
        grown = title_base.retain(Case("6", "Aplikasi Deteksi Dini Banjir"))
        outcome = grown.retrieve("Aplikasi Deteksi Dini Banjir")
        assert outcome.top_case.id == "6"
        assert abs(outcome.results.matches[0].score - 1.0) <= 1e-9

    def test_duplicate_title_ties_and_breaks_by_id(self, title_base):
        grown = title_base.retain(Case("6", SAMPLE_TITLES[2]))
        outcome = grown.retrieve(SAMPLE_TITLES[2])
        top_two = outcome.results.matches[:2]
        assert [m.case_id for m in top_two] == ["3", "6"]
        assert top_two[0].score == top_two[1].score
        assert abs(top_two[0].score - 1.0) <= 1e-9

    def test_duplicate_id_is_refused(self, title_base):
        with pytest.raises(DataError, match="duplicate"):
            title_base.retain(Case("3", "Judul Lain"))

    def test_empty_tokenizing_title_is_refused(self, title_base):
        with pytest.raises(DataError, match="tokenizes to empty"):
            title_base.retain(Case("6", "???"))

    def test_retained_index_equals_a_scratch_build(self, title_base):
        new_case = Case("6", "Sistem Absensi Sidik Jari")
        grown = title_base.retain(new_case)
        scratch, _ = build_index(list(title_base.cases) + [new_case], title_base.config)
        assert grown.index == scratch

    def test_report_counts_one_more_and_keeps_the_skipped(self):
        base = CaseBase([Case("1", "a b"), Case("2", "?!"), Case("3", "b c")])
        grown = base.retain(Case("4", "c d"))
        assert grown.report == CaseBase([*base.cases, Case("4", "c d")]).report
        assert grown.report.skipped == (("2", "title tokenizes to empty"),)
        with pytest.raises(DataError, match="duplicate case id: '2'"):
            grown.retain(Case("2", "e"))

    def test_original_base_is_untouched(self, title_base):
        before = len(title_base)
        title_base.retain(Case("6", "Sistem Antrian Online"))
        assert len(title_base) == before
        with pytest.raises(KeyError):
            title_base.case("6")


class TestRebuildEquivalence:
    def test_interleaved_updates_end_in_a_scratch_built_index(self, tmp_path):
        rng = random.Random(424242)
        titles = generate_titles(rng, 8)
        for trial in range(10):
            cases = [Case(id=f"c{i}", title=title) for i, title in enumerate(titles)]
            base = CaseBase(cases)
            mirror = list(cases)
            for step in range(6):
                if rng.random() < 0.5:
                    new = Case(id=f"n{trial}-{step}", title=" ".join(generate_titles(rng, 1)))
                    base = base.retain(new)
                    mirror.append(new)
                else:
                    victim = rng.choice(mirror)
                    new_title = generate_titles(rng, 1)[0]
                    base = base.revise(victim.id, title=new_title)
                    mirror = [
                        Case(id=c.id, title=new_title, solution=c.solution, meta=c.meta)
                        if c.id == victim.id else c
                        for c in mirror
                    ]
            scratch, _ = build_index(mirror, base.config)
            assert base.index == scratch
            incremental_path = tmp_path / f"incr{trial}.idx"
            scratch_path = tmp_path / f"scratch{trial}.idx"
            save_index(base.index, incremental_path)
            save_index(scratch, scratch_path)
            assert incremental_path.read_bytes() == scratch_path.read_bytes()


class TestSelfConsistency:
    def test_every_case_retrieves_itself_at_rank_one(self):
        rng = random.Random(987)
        titles = generate_titles(rng, 40)
        cases = [Case(id=f"t{i:03d}", title=title) for i, title in enumerate(titles)]
        base = CaseBase(cases)
        for case in cases:
            outcome = base.retrieve(case.title)
            top = outcome.results.matches[0]
            assert abs(top.score - 1.0) <= 1e-9
            tied = [m for m in outcome.results.matches if abs(m.score - top.score) <= 1e-12]
            assert case.id in {m.case_id for m in tied}


def test_the_readme_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    titles = [Case("1", "Aplikasi Kasir Toko"), Case("2", "Sistem Navigasi Gedung")]
    save_index(build_index(titles)[0], tmp_path / "titles.idx")
    monkeypatch.chdir(tmp_path)  # the block loads "titles.idx" from the working directory
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graf ruangan + rute terpendek"
    assert [line.split()[::2] for line in lines[1:]] == [["1", "2"]]
