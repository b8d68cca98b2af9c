"""Seeded corpus and query generator for the benchmark.

Word frequencies follow a Zipf law (s = 1) over a vocabulary of about 5k
words, built as stems plus suffixes so the words look like the
practical-work titles the package indexes. The seed shuffles which word gets
which frequency rank, so every seed yields a different corpus with the same
shape: the commonest word sits in about half of all titles, the median word
in a few dozen. That skew is what makes posting lengths, and with them
ranking cost, realistic; a uniform draw gives every term the same short list.

Everything here depends only on the seed and the sizes, never on the
package under test.
"""

from __future__ import annotations

import itertools
import random
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass

STEMS = [
    "sistem", "aplikasi", "informasi", "data", "metode", "algoritma",
    "analisis", "rancang", "implementasi", "kembang", "website", "basis",
    "android", "monitor", "evaluasi", "kinerja", "karyawan", "dukung",
    "putus", "promosi", "navigasi", "gedung", "kredit", "administrasi",
    "bayar", "tagih", "ingat", "jaring", "aman", "digital", "sekolah",
    "inventaris", "jual", "beli", "toko", "online", "kelola", "dokumen",
    "arsip", "surat", "gaji", "absen", "pegawai", "mahasiswa", "dosen",
    "jadwal", "kuliah", "pustaka", "buku", "klasifikasi", "prediksi",
    "deteksi", "kenal", "citra", "teks", "suara", "sensor", "cerdas",
    "mobile", "desa", "kantor", "rumah", "sakit", "pasien", "obat", "stok",
    "barang", "lapor", "akademik", "nilai", "ujian", "daftar", "antri",
    "parkir", "wisata", "kuliner", "peta", "lokasi", "cuaca", "keuangan",
    "transaksi", "pelanggan", "layanan", "produk", "server", "jadwalkan",
    "rekam", "medis", "simpan", "pinjam", "koperasi", "tanah", "sewa",
    "kendaraan", "bengkel", "hotel", "kamar", "tiket", "kirim", "paket",
]

SUFFIXES = [
    "", "an", "kan", "nya", "i", "lah", "pun", "ku", "mu", "wan",
    "wati", "isme", "is", "ik", "al", "if", "er", "isasi", "ita", "ana",
    "ani", "ina", "ono", "ira", "ura", "ema", "ida", "ola", "uka", "esa",
    "ata", "anto", "ari", "ega", "ila", "usa", "oti", "ama", "edi", "ubi",
    "ia", "io", "em", "ep", "ug", "ot", "ak", "ap", "un", "os",
]

MIN_WORDS, MAX_WORDS = 3, 10
UNSEEN_SHARE = 0.10
NEW_TERM_SHARE = 0.30
KEYWORD_WORDS = (1, 3)
CANDIDATES = 16  # random keyword queries drawn per pooled one


def _vocabulary() -> list[str]:
    seen: dict[str, None] = {}
    for stem, suffix in itertools.product(STEMS, SUFFIXES):
        seen.setdefault(stem + suffix, None)
    return list(seen)


@dataclass(frozen=True)
class Query:
    """One query of the mix: its text, the scorer to use, and what it is."""

    text: str
    scorer: str
    kind: str  # "title", "keyword"
    unseen: bool
    source: int  # corpus position of a title query, -1 for keywords


class Generator:
    """All random inputs of one benchmark run, derived from one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.words = self._ranked_words()
        weights = [1.0 / rank for rank in range(1, len(self.words) + 1)]
        self.cum_weights = list(itertools.accumulate(weights))
        self._fresh = itertools.count(1)

    def _ranked_words(self) -> list[str]:
        """The vocabulary in Zipf rank order: rank r + 1 at position r.

        Which word holds a rank depends on the seed; its length does not,
        since the commonest words alone set most of the corpus's bytes.
        """
        reference = _vocabulary()
        random.Random(0).shuffle(reference)
        by_length = defaultdict(list)
        for word in sorted(reference):
            by_length[len(word)].append(word)
        for words in by_length.values():
            self.rng.shuffle(words)
        return [by_length[len(word)].pop() for word in reference]

    def _draw(self, count: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum_weights, k=count)

    def title_tokens(self) -> list[str]:
        return self._draw(self.rng.randint(MIN_WORDS, MAX_WORDS))

    def corpus(self, size: int) -> list[list[str]]:
        """Token lists of *size* titles; render with :func:`render`."""
        return [self.title_tokens() for _ in range(size)]

    def unseen_word(self) -> str:
        # "zq" occurs in no stem or suffix, so the word is never indexed
        return f"{self.rng.choice(STEMS)}zq{next(self._fresh)}"

    def queries(self, corpus: list[list[str]], per_kind: int) -> list[Query]:
        """A query pool, stratified by work, in an order any prefix spreads.

        Three kinds, *per_kind* of each: a full stored title (cosine), 1-3
        keywords (cosine) and 1-3 keywords (set). Keyword words follow the
        same Zipf law, restricted to words the corpus holds, so every query
        matches a title and the reuse step always has a case to return.

        Ranking cost grows with the postings a query visits, which spans
        three orders of magnitude here. A plain random pool would move the
        median latency by about a fifth from seed to seed, so each kind is
        drawn at evenly spaced quantiles of postings visited, and queries are
        issued in bit-reversed quantile order so that a run cut off at any
        point has still seen the whole range.
        """
        df = Counter(token for tokens in corpus for token in set(tokens))

        def work(tokens):
            return sum(df[token] for token in set(tokens))

        def keywords():
            wanted = self.rng.randint(*KEYWORD_WORDS)
            tokens = []
            while len(tokens) < wanted:
                word = self._draw(1)[0]
                if word in df:
                    tokens.append(word)
            return tokens

        kinds = [
            ("title", "cosine", list(enumerate(corpus))),
            ("keyword", "cosine", [(-1, keywords()) for _ in range(CANDIDATES * per_kind)]),
            ("keyword", "set", [(-1, keywords()) for _ in range(CANDIDATES * per_kind)]),
        ]
        strata = []
        for kind, scorer, candidates in kinds:
            candidates.sort(key=lambda candidate: work(candidate[1]))
            picked = []
            for j in range(per_kind):
                source, tokens = candidates[(2 * j + 1) * len(candidates) // (2 * per_kind)]
                tokens = list(tokens)
                unseen = self.rng.random() < UNSEEN_SHARE
                if unseen:
                    tokens.insert(self.rng.randint(0, len(tokens)), self.unseen_word())
                picked.append(Query(render(tokens), scorer, kind, unseen, source))
            strata.append([picked[j] for j in _spread_order(per_kind)])
        return [query for group in zip(*strata) for query in group]

    def new_titles(self, count: int) -> list[tuple[list[str], bool]]:
        """Titles to retain; some carry a word no stored title has."""
        titles = []
        for _ in range(count):
            tokens = self.title_tokens()
            fresh = self.rng.random() < NEW_TERM_SHARE
            if fresh:
                tokens.insert(self.rng.randint(0, len(tokens)), f"baru{next(self._fresh)}")
            titles.append((tokens, fresh))
        return titles

    def shuffled(self, text: str) -> str:
        words = text.split()
        self.rng.shuffle(words)
        return " ".join(words)


def _spread_order(count: int) -> list[int]:
    """0..count-1 ordered by bit-reversed value, so every prefix is spread."""
    bits = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def render(tokens: list[str]) -> str:
    """Title text whose tokenization gives back exactly *tokens*."""
    return " ".join(token.capitalize() for token in tokens)


def properties(corpus: list[list[str]], queries: list[Query]) -> dict:
    """Input properties that decide how much work ranking does."""
    df = Counter(token for tokens in corpus for token in set(tokens))
    lengths = sorted(df.values())
    found = {
        "titles": len(corpus),
        "vocabulary_size": len(df),
        "posting_len_max": lengths[-1],
        "posting_len_median": statistics.median(lengths),
    }
    if queries:
        visited = [sum(df[token] for token in set(q.text.lower().split())) for q in queries]
        found.update(
            query_pool=len(queries),
            query_postings_visited_mean=round(statistics.fmean(visited), 1),
            query_full_title_share=_share(queries, lambda q: q.kind == "title"),
            query_unseen_word_share=_share(queries, lambda q: q.unseen),
        )
    return found


def _share(items, predicate) -> float:
    return round(sum(1 for item in items if predicate(item)) / len(items), 4)
