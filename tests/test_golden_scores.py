"""Golden scores: rankings pinned bit for bit as literals.

The pruning tests compare the top-k path with the exhaustive one inside one
version of the code, so they cannot see both drift together. These
literals, with every score as ``float.hex()``, pin the ids, the order, the
scores and ``total_matches`` of both scorers on a fixed corpus whose cosine
top-k queries skip a posting list and re-score its candidates.
"""

from __future__ import annotations

import pytest

from cbrsearch import Case, Index, build_index
from cbrsearch.similarity import rank

TITLES = [
    "sistem informasi akademik berbasis web",
    "sistem informasi perpustakaan berbasis web",
    "aplikasi kasir toko berbasis android",
    "sistem pakar diagnosa penyakit tanaman padi",
    "sistem pendukung keputusan pemilihan siswa teladan",
    "aplikasi pemesanan tiket bus berbasis web",
    "sistem informasi geografis lokasi sekolah",
    "rancang bangun aplikasi inventaris barang",
    "sistem pakar penyakit kulit",
    "analisis sentimen ulasan aplikasi",
    "sistem informasi penjualan toko",
    "sistem pakar penyakit kulit",
    "sistem informasi",
    "sistem pakar",
]

# (query, scorer, threshold) -> (total_matches, every match as (id, score.hex()))
GOLDEN = {
    ('sistem pakar penyakit', 'cosine', 0.0): (10, [
        ('c08', '0x1.7032442eebc32p-1'),
        ('c11', '0x1.7032442eebc32p-1'),
        ('c13', '0x1.49ca0fb98a8e8p-1'),
        ('c03', '0x1.9cdab42c3fa8bp-2'),
        ('c12', '0x1.a928923a2d123p-5'),
        ('c10', '0x1.0abaa78b021cep-6'),
        ('c00', '0x1.0900d96953f9cp-6'),
        ('c01', '0x1.0900d96953f9cp-6'),
        ('c06', '0x1.88254072a7be2p-7'),
        ('c04', '0x1.37a92c1f054d2p-7'),
    ]),
    ('sistem pakar penyakit', 'cosine', 0.3): (4, [
        ('c08', '0x1.7032442eebc32p-1'),
        ('c11', '0x1.7032442eebc32p-1'),
        ('c13', '0x1.49ca0fb98a8e8p-1'),
        ('c03', '0x1.9cdab42c3fa8bp-2'),
    ]),
    ('sistem pakar penyakit', 'set', 0.0): (10, [
        ('c08', '0x1.bb67ae8584cabp-1'),
        ('c11', '0x1.bb67ae8584cabp-1'),
        ('c13', '0x1.a20bd700c2c3dp-1'),
        ('c03', '0x1.6a09e667f3bcdp-1'),
        ('c12', '0x1.a20bd700c2c3dp-2'),
        ('c10', '0x1.279a74590331dp-2'),
        ('c00', '0x1.08654a2d4f6dap-2'),
        ('c01', '0x1.08654a2d4f6dap-2'),
        ('c06', '0x1.08654a2d4f6dap-2'),
        ('c04', '0x1.e2b7dddfefa67p-3'),
    ]),
    ('sistem pakar penyakit', 'set', 0.3): (5, [
        ('c08', '0x1.bb67ae8584cabp-1'),
        ('c11', '0x1.bb67ae8584cabp-1'),
        ('c13', '0x1.a20bd700c2c3dp-1'),
        ('c03', '0x1.6a09e667f3bcdp-1'),
        ('c12', '0x1.a20bd700c2c3dp-2'),
    ]),
    ('aplikasi berbasis web', 'cosine', 0.0): (6, [
        ('c00', '0x1.eebc32ba6dc07p-2'),
        ('c01', '0x1.eebc32ba6dc07p-2'),
        ('c05', '0x1.d3d73ff9b9124p-2'),
        ('c02', '0x1.2bcaad4b4a8dep-2'),
        ('c09', '0x1.20dba41c94bc9p-3'),
        ('c07', '0x1.f8be8063060fap-4'),
    ]),
    ('aplikasi berbasis web', 'cosine', 0.3): (3, [
        ('c00', '0x1.eebc32ba6dc07p-2'),
        ('c01', '0x1.eebc32ba6dc07p-2'),
        ('c05', '0x1.d3d73ff9b9124p-2'),
    ]),
    ('aplikasi berbasis web', 'set', 0.0): (6, [
        ('c05', '0x1.6a09e667f3bcdp-1'),
        ('c00', '0x1.08654a2d4f6dap-1'),
        ('c01', '0x1.08654a2d4f6dap-1'),
        ('c02', '0x1.08654a2d4f6dap-1'),
        ('c09', '0x1.279a74590331dp-2'),
        ('c07', '0x1.08654a2d4f6dap-2'),
    ]),
    ('aplikasi berbasis web', 'set', 0.3): (4, [
        ('c05', '0x1.6a09e667f3bcdp-1'),
        ('c00', '0x1.08654a2d4f6dap-1'),
        ('c01', '0x1.08654a2d4f6dap-1'),
        ('c02', '0x1.08654a2d4f6dap-1'),
    ]),
}


@pytest.fixture(scope="module")
def golden_index():
    index, _ = build_index([Case(f"c{n:02d}", title) for n, title in enumerate(TITLES)])
    return index


@pytest.mark.parametrize("top_k", [1, 3, None])
@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_rankings_match_the_golden_bits(golden_index, key, top_k):
    text, scorer, threshold = key
    total, matches = GOLDEN[key]
    query = golden_index.vectorize_query(text.split(), scorer)
    results = rank(golden_index, query, threshold=threshold, top_k=top_k)
    assert results.total_matches == total
    assert [(m.case_id, m.score.hex()) for m in results.matches] == matches[:top_k]
    assert [m.rank for m in results.matches] == list(range(1, len(matches[:top_k]) + 1))


@pytest.mark.parametrize("top_k", [1, 3])
def test_the_cosine_top_k_queries_re_score_candidates_of_a_skipped_list(
    golden_index, monkeypatch, top_k
):
    calls = []
    dot = Index.dot

    def counted(self, *args):
        calls.append(args)
        return dot(self, *args)

    monkeypatch.setattr(Index, "dot", counted)
    for text in dict.fromkeys(text for text, _, _ in GOLDEN):
        rank(golden_index, golden_index.vectorize_query(text.split()), top_k=top_k)
    assert calls
