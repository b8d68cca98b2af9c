"""Shared test data: sample titles and synthetic corpus generators."""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from cbrsearch import Case

# Practical-work style titles used across CLI and retrieval tests.
SAMPLE_TITLES = [
    "Sistem Pendukung Keputusan Promosi dan Evaluasi Kinerja Karyawan",
    "Apliasi Reminder Pembayaran Tagihan Flexi Home",
    "Sistem Navigasi Gedung dengan Metode Algoritma Djikstra",
    "Sistem Administrasi Realisasi Kredit BRIGUNA",
    "Perancangan dan Implementasi Aplikasi Sistem Monitoring",
]

# the characters besides \n and \r that str.splitlines ends a line at; in a
# line file (a corpus, stopword or titles file) they are text, not line ends
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

WORDS = [
    "sistem", "aplikasi", "informasi", "data", "metode", "algoritma",
    "analisis", "perancangan", "implementasi", "pengembangan", "website",
    "berbasis", "android", "monitoring", "evaluasi", "kinerja", "karyawan",
    "pendukung", "keputusan", "promosi", "navigasi", "gedung", "kredit",
    "administrasi", "pembayaran", "tagihan", "reminder", "jaringan",
    "keamanan", "digital", "sekolah", "inventaris", "penjualan",
    "pembelian", "toko", "online", "manajemen", "dokumen", "arsip",
    "surat", "penggajian", "absensi", "pegawai", "mahasiswa", "dosen",
    "jadwal", "kuliah", "perpustakaan", "buku", "klasifikasi", "prediksi",
    "deteksi", "pengenalan", "citra", "teks", "suara", "sensor", "cerdas",
    "web", "mobile", "desa", "kantor", "rumah", "sakit", "pasien",
    "obat", "stok", "barang", "laporan", "akademik", "nilai", "ujian",
    "pendaftaran", "antrian", "parkir", "wisata", "kuliner", "peta",
    "lokasi", "cuaca",
]


def generate_titles(rng: random.Random, count: int, min_words: int = 3, max_words: int = 8) -> list[str]:
    """Random plausible-looking titles; capitalization exercises casefolding."""
    titles = []
    for _ in range(count):
        words = [rng.choice(WORDS) for _ in range(rng.randint(min_words, max_words))]
        titles.append(" ".join(word.capitalize() for word in words))
    return titles


def generate_token_corpus(
    rng: random.Random,
    max_docs: int = 200,
    max_tokens: int = 30,
    max_vocab: int = 60,
) -> dict[str, list[str]]:
    """Random corpus as raw token lists, keyed by zero-padded doc id.

    All tokens are plain lowercase alphanumerics, so joining them with
    spaces and re-tokenizing gives back exactly the same lists.
    """
    vocab = [f"kata{i:02d}" for i in range(rng.randint(5, max_vocab))]
    n_docs = rng.randint(2, max_docs)
    return {
        f"d{i:03d}": [rng.choice(vocab) for _ in range(rng.randint(1, max_tokens))]
        for i in range(n_docs)
    }


def corpus_cases(doc_tokens: dict[str, list[str]]) -> list[Case]:
    return [Case(id=doc_id, title=" ".join(tokens)) for doc_id, tokens in doc_tokens.items()]


def random_query_tokens(
    rng: random.Random, doc_tokens: dict[str, list[str]], max_len: int = 6
) -> list[str]:
    """A short query over the corpus vocabulary, sometimes with an unseen word."""
    vocab = sorted({token for tokens in doc_tokens.values() for token in tokens})
    tokens = [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
    if rng.random() < 0.3:
        tokens.append(f"zzz{rng.randint(0, 9)}")
        rng.shuffle(tokens)
    return tokens


def row_weights(index, ordinal: int) -> dict[int, float]:
    """Term id -> weight over every term of document *ordinal*'s count row.

    Each read as ``Index.dot`` with the one term at weight 1.0: ``0.0 + 1.0 * w``
    is ``w`` bit for bit.
    """
    tids, _ = index._row(ordinal)
    return {tid: index.dot(ordinal, {tid: 1.0}) for tid in tids}


def sealed_index_text(document: dict) -> str:
    """Index file text for *document* with a checksum that matches it.

    Strings are written as JSON escapes, so the text is encodable even
    when one holds a lone surrogate.
    """
    body = json.dumps(
        {key: value for key, value in document.items() if key != "weights_sha256"},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{body[:-1]},"weights_sha256":"{digest}"}}\n'


def packed_column(values: list[int]) -> list:
    """*values* as an index file stores a count column: ``[width, "<base64>"]``.

    The reference packing, one ``int.to_bytes`` per value: unsigned
    little-endian integers of the narrowest width of 1, 2 and 4 bytes that
    holds the largest value.
    """
    largest = max(values, default=0)
    width = next(width for width in (1, 2, 4) if largest < 1 << 8 * width)
    data = b"".join(value.to_bytes(width, "little") for value in values)
    return [width, base64.b64encode(data).decode("ascii")]


def unpacked_column(column: list) -> list[int]:
    """The values of the stored count column ``[width, "<base64>"]``."""
    width, text = column
    data = base64.b64decode(text, validate=True)
    return [int.from_bytes(data[at : at + width], "little") for at in range(0, len(data), width)]


def zipf_titles(seed: int, size: int, per_kind: int):
    """*size* Zipf-skewed titles and a query pool from the benchmark's generator.

    Loads ``perfbench/generate.py`` by path. Returns the cases, numbered
    from 1 as a plain corpus is, and the pool of ``3 * per_kind`` queries.
    """
    name = "perfbench_generate"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    generate = sys.modules[name]
    gen = generate.Generator(seed)
    corpus = gen.corpus(size)
    cases = [Case(str(n), generate.render(tokens)) for n, tokens in enumerate(corpus, start=1)]
    return cases, gen.queries(corpus, per_kind)
