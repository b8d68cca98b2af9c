"""Acceptance suite: the end-to-end guarantees the engine must deliver.

Each test covers one criterion at its stated tolerance and prints a single
PASS line (visible with ``pytest -s`` or ``-rP``) once it holds:

1. self-retrieval: every stored title retrieves itself first with score 1.0;
2. two-stage equivalence: word-shuffled queries find the same titles, and
   stored titles keep a displayed mean top score of 1.000000 (via the CLI);
3. oracle equivalence: inverted-index ranking matches a dense brute-force
   scorer exactly on random corpora;
4. scale invariance: raw-count term frequencies and natural-log idf change
   no ranking and no score;
5. binary bridge: the set scorer ranks and scores as cosine over 0/1
   incidence vectors does, on random corpora;
6. rebuild equivalence: interleaved retain/revise ends byte-identical to a
   scratch build;
7. the term frequencies behind every document's weights sum to 1;
8. index files round-trip byte-identically and bad files are rejected.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from brute import DenseOracle
from cbrsearch import (
    Case,
    CaseBase,
    IndexFormatError,
    build_index,
    load_index,
    save_index,
    tokenize,
)
from cbrsearch.cli import EXIT_OK, main
from cbrsearch.similarity import rank
from conftest import (
    SAMPLE_TITLES,
    corpus_cases,
    generate_titles,
    generate_token_corpus,
    random_query_tokens,
)

SCORE_ABS = 1e-9
REL = 1e-12


@pytest.fixture(scope="module")
def random_suite():
    """50 random corpora (<=200 docs, <=30 tokens, vocab <=60), 20 queries each."""
    rng = random.Random(20240617)
    suite = []
    for _ in range(50):
        doc_tokens = generate_token_corpus(rng, max_docs=200, max_tokens=30, max_vocab=60)
        queries = [random_query_tokens(rng, doc_tokens) for _ in range(20)]
        suite.append((doc_tokens, queries))
    return suite


@pytest.fixture(scope="module")
def suite_indexes(random_suite):
    return [build_index(corpus_cases(doc_tokens))[0] for doc_tokens, _ in random_suite]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


def test_self_retrieval(capsys):
    started = time.perf_counter()
    rng = random.Random(188)
    titles = generate_titles(rng, 120)
    cases = [Case(id=f"t{i:03d}", title=title) for i, title in enumerate(titles)]
    base = CaseBase(cases)
    assert base.index.corpus_size >= 100
    oracle = DenseOracle({case.id: tokenize(case.title, base.config) for case in cases})

    def direction(doc_id):
        norm = oracle.doc_norms[doc_id]
        return [weight / norm for weight in oracle.doc_vectors[doc_id]]

    for case in cases:
        outcome = base.retrieve(case.title)
        top = outcome.results.matches[0]
        assert abs(top.score - 1.0) <= SCORE_ABS, case.id
        tied = [m for m in outcome.results.matches if abs(m.score - top.score) <= REL]
        assert case.id in {m.case_id for m in tied}, case.id
        own = direction(case.id)
        for match in tied:  # ties are only allowed between identical directions
            assert oracle.doc_sets[match.case_id] == oracle.doc_sets[case.id]
            other = direction(match.case_id)
            assert all(abs(a - b) <= SCORE_ABS for a, b in zip(other, own))

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS: self-retrieval ranks every stored title first at 1.0 ({elapsed:.2f}s)")


def test_two_stage_equivalence(tmp_path, capsys):
    rng = random.Random(9000)
    corpus_lines = list(SAMPLE_TITLES) + generate_titles(rng, 45)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    index_path = tmp_path / "corpus.idx"
    assert main([
        "index", "--input", str(corpus), "--format", "plain", "--output", str(index_path),
    ]) == EXIT_OK
    titles_path = tmp_path / "titles.txt"
    titles_path.write_text("\n".join(SAMPLE_TITLES) + "\n", encoding="utf-8")
    capsys.readouterr()

    for seed in (7, 99991):
        started = time.perf_counter()
        code = main([
            "eval", "--index", str(index_path), "--titles", str(titles_path),
            "--seed", str(seed),
        ])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "mean top score: 1.000000" in out
        rows = [line for line in out.splitlines() if line.startswith("row ")]
        assert len(rows) == len(SAMPLE_TITLES)
        for row in rows:
            fields = dict(part.split("=") for part in row.split(": ", 1)[1].split())
            assert fields["found_stage1"] == fields["found_stage2"]
        assert elapsed < 2.0

    print("PASS: two-stage word-shuffle run exits 0 with mean top score 1.000000")


def test_oracle_equivalence(random_suite, suite_indexes, capsys):
    started = time.perf_counter()
    thresholds = (0.0, 0.0, 0.1, 0.3)
    compared = 0
    for (doc_tokens, queries), index in zip(random_suite, suite_indexes):
        oracle = DenseOracle(doc_tokens)
        for position, tokens in enumerate(queries):
            threshold = thresholds[position % len(thresholds)]
            mine = rank(index, index.vectorize_query(tokens), threshold=threshold)
            expected = oracle.rank(tokens, threshold=threshold)
            assert [m.case_id for m in mine.matches] == [doc_id for doc_id, _ in expected]
            assert mine.total_matches == len(expected)
            for match, (_, score) in zip(mine.matches, expected):
                assert _close(match.score, score)
            compared += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS: inverted-index ranking matches the dense oracle on {compared} queries ({elapsed:.2f}s)")


def _assert_same_ranking(mine, expected):
    """Same scores within 1e-12 per document, same order where order is defined.

    Documents with proportional token multisets tie mathematically; the tie
    is bit-exact under one weighting variant but off by an ulp under another,
    so ordering inside such a tie is not comparable across variants. Order is
    therefore asserted only across clearly separated scores.
    """
    mine_scores = {m.case_id: m.score for m in mine.matches}
    other_scores = dict(expected)
    assert mine_scores.keys() == other_scores.keys()
    for doc_id, score in mine_scores.items():
        assert _close(score, other_scores[doc_id])
    position = {doc_id: i for i, (doc_id, _) in enumerate(expected)}
    ordered = list(mine.matches)
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier.score - later.score > 1e-9:  # clearly separated
            assert position[earlier.case_id] < position[later.case_id]


def test_scale_invariance(random_suite, suite_indexes, capsys):
    checked = 0
    for (doc_tokens, queries), index in zip(random_suite, suite_indexes):
        raw_tf_oracle = DenseOracle(doc_tokens, tf_mode="raw")
        natural_log_oracle = DenseOracle(doc_tokens, log=math.log)
        for tokens in queries[:8]:
            mine = rank(index, index.vectorize_query(tokens))
            for oracle in (raw_tf_oracle, natural_log_oracle):
                _assert_same_ranking(mine, oracle.rank(tokens))
            checked += 1
    print(f"PASS: raw-count tf and natural-log idf leave {checked} rankings unchanged")


def test_binary_bridge(random_suite, suite_indexes, capsys):
    compared = 0
    for (doc_tokens, queries), index in zip(random_suite, suite_indexes):
        oracle = DenseOracle(doc_tokens)
        incidence = {
            doc_id: [1.0 if term in terms else 0.0 for term in oracle.vocab]
            for doc_id, terms in oracle.doc_sets.items()
        }
        for tokens in queries:
            query = [1.0 if term in tokens else 0.0 for term in oracle.vocab]
            query_norm = math.sqrt(sum(q * q for q in query))
            expected = []
            for doc_id, vector in incidence.items():
                dot = sum(q * d for q, d in zip(query, vector))
                if dot:  # a cosine over 0/1 vectors
                    norm = math.sqrt(sum(d * d for d in vector))
                    expected.append((doc_id, dot / (query_norm * norm)))
            expected.sort(key=lambda item: (-item[1], item[0]))
            mine = rank(index, index.vectorize_query(tokens, "set"))
            assert [m.case_id for m in mine.matches] == [doc_id for doc_id, _ in expected]
            assert mine.total_matches == len(expected)
            for match, (_, score) in zip(mine.matches, expected):
                assert _close(match.score, score)
            compared += 1
    print(f"PASS: the set scorer equals cosine of 0/1 vectors on {compared} queries")


def test_rebuild_equivalence(tmp_path, capsys):
    rng = random.Random(5551212)
    for trial in range(100):
        titles = generate_titles(rng, rng.randint(3, 10))
        cases = [Case(id=f"c{i}", title=title) for i, title in enumerate(titles)]
        base = CaseBase(cases)
        mirror = list(cases)
        for step in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                new = Case(id=f"n{step}", title=generate_titles(rng, 1)[0])
                base = base.retain(new)
                mirror.append(new)
            else:
                victim = rng.choice(mirror).id
                if rng.random() < 0.5:
                    new_title = generate_titles(rng, 1)[0]
                    base = base.revise(victim, title=new_title)
                    mirror = [
                        Case(id=c.id, title=new_title, solution=c.solution, meta=c.meta)
                        if c.id == victim else c
                        for c in mirror
                    ]
                else:
                    base = base.revise(victim, solution=f"solusi {step}")
                    mirror = [
                        Case(id=c.id, title=c.title, solution=f"solusi {step}", meta=c.meta)
                        if c.id == victim else c
                        for c in mirror
                    ]
        scratch, _ = build_index(mirror, base.config)
        incremental_path = tmp_path / "incremental.idx"
        scratch_path = tmp_path / "scratch.idx"
        save_index(base.index, incremental_path)
        save_index(scratch, scratch_path)
        assert incremental_path.read_bytes() == scratch_path.read_bytes(), f"trial {trial}"
    print("PASS: 100 retain/revise interleavings end byte-identical to scratch builds")


def test_term_frequency_normalization(suite_indexes, capsys):
    checked = documents = 0
    for index in suite_indexes:
        # a posted weight over its term's idf is the term's in-document
        # frequency; a term of idf 0 hides it, so its documents are left out
        totals = [0.0] * index.corpus_size
        for tid, ordinals in enumerate(index.postings):
            idf = math.log10(index.corpus_size / len(ordinals))
            for ordinal, weight in zip(index.postings[tid], index.posting_weights[tid]):
                totals[ordinal] += weight / idf if idf else math.nan
        for total in totals:
            if not math.isnan(total):
                assert abs(total - 1.0) <= REL
                checked += 1
        documents += index.corpus_size
    assert checked >= 0.9 * documents
    print(f"PASS: the term frequencies of {checked} documents' weights each sum to 1")


def test_round_trip_persistence(tmp_path, capsys):
    rng = random.Random(3133731337)
    doc_tokens = generate_token_corpus(rng, max_docs=80, max_tokens=20, max_vocab=40)
    index, _ = build_index(corpus_cases(doc_tokens))

    first = tmp_path / "first.idx"
    second = tmp_path / "second.idx"
    save_index(index, first)
    loaded = load_index(first)
    save_index(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == index

    truncated = tmp_path / "truncated.idx"
    data = first.read_bytes()
    truncated.write_bytes(data[: len(data) // 3])
    with pytest.raises(IndexFormatError, match="corrupt"):
        load_index(truncated)

    bumped = tmp_path / "bumped.idx"
    document = json.loads(first.read_text(encoding="utf-8"))
    document["format_version"] = 99
    bumped.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(IndexFormatError, match="unsupported index format version"):
        load_index(bumped)

    tampered = tmp_path / "tampered.idx"
    document = json.loads(first.read_text(encoding="utf-8"))
    document["weights_sha256"] = "f" * 64
    tampered.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(IndexFormatError, match="checksum mismatch"):
        load_index(tampered)

    print("PASS: index files round-trip byte-identically; corrupt and version-bumped files are rejected")
