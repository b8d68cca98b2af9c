"""Independent sparse TF-IDF ranking over the generated token lists.

Shares no code with the package: document frequencies, idf
(``log10(n / df)``), length-normalized term frequencies and document norms
are recomputed here from the generator's own token lists. A query touches
only the documents holding one of its terms, so a check costs one pass over
the corpus rather than a dense vector per document.
"""

from __future__ import annotations

import math
from collections import Counter

REL = 1e-12  # the acceptance suite's relative score tolerance


class SparseOracle:
    def __init__(self, doc_ids: list[str], corpus: list[list[str]]):
        self.doc_ids = doc_ids
        self.corpus = corpus
        self.df = Counter(token for tokens in corpus for token in set(tokens))
        n = len(corpus)
        self.idf = {term: math.log10(n / df) for term, df in self.df.items()}
        self.norms = []
        for tokens in corpus:
            total = len(tokens)
            self.norms.append(math.sqrt(sum(
                ((count / total) * self.idf[term]) ** 2 for term, count in Counter(tokens).items()
            )))

    def rank(self, query_tokens: list[str], scorer: str) -> list[tuple[str, float]]:
        """Every (doc_id, score) above 0, best first, ties by ascending id."""
        if scorer == "set":
            terms = {token for token in query_tokens if token in self.df}
            scale = math.sqrt(len(terms))
        else:
            counts = Counter(query_tokens)
            total = len(query_tokens)
            weights = {
                term: (count / total) * self.idf[term]
                for term, count in counts.items()
                if term in self.df and self.idf[term] != 0.0
            }
            terms = set(weights)
            scale = math.sqrt(sum(w * w for w in weights.values()))
        scored = []
        for position, tokens in enumerate(self.corpus):
            if terms.isdisjoint(tokens):
                continue
            doc_counts = Counter(tokens)
            if scorer == "set":
                score = len(terms & doc_counts.keys()) / (scale * math.sqrt(len(doc_counts)))
            else:
                total = len(tokens)
                dot = sum(
                    weights[term] * (doc_counts[term] / total) * self.idf[term]
                    for term in terms & doc_counts.keys()
                )
                score = dot / (scale * self.norms[position])
            scored.append((self.doc_ids[position], min(score, 1.0)))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


def same_ranking(got: list[tuple[str, float]], full: list[tuple[str, float]]) -> bool:
    """*got* is the head of *full*, with ids swapped only inside a tie.

    Documents with proportional token multisets tie mathematically but can
    differ in the last bit, so an id may sit a place off its oracle position
    or, at the cut, stand in for a tied one; its own score must still match
    the oracle's score for it.
    """
    if len(got) > len(full):
        return False
    oracle_score = dict(full)
    for (doc_id, score), (_, want) in zip(got, full):
        if not close(score, want):
            return False
        if doc_id not in oracle_score or not close(oracle_score[doc_id], score):
            return False
    return True
