import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcomp.numeric import DomainError
from rankcomp.stopwords import DEFAULT_STOPWORDS, load_stopwords
from rankcomp.text_features import (
    CorpusStats,
    compute_features,
    cosine,
    jaccard,
    rbo,
    rrf_fuse,
    select_diverse_queries,
    tfidf_cosine,
    tokenize,
)


# --- independent oracles -----------------------------------------------------


def rbo_ext_oracle(list_a, list_b, p):
    """Direct summation of the extrapolated overlap formula.

    Overlaps are recomputed from scratch with set intersections at every
    depth; shares no code with the production implementation.
    """
    short, long_ = sorted((list(list_a), list(list_b)), key=len)
    s, l = len(short), len(long_)
    if s == 0:
        return 1.0 if l == 0 else 0.0

    def x(d):
        return len(set(short[: min(d, s)]) & set(long_[:d]))

    total = sum(x(d) / d * p**d for d in range(1, l + 1))
    total += sum(x(s) * (d - s) / (s * d) * p**d for d in range(s + 1, l + 1))
    ext = ((x(l) - x(s)) / l + x(s) / s) * p**l
    return (1 - p) / p * total + ext


def bm25_oracle(doc_tokens, query_tokens, all_docs, k1=1.2, b=0.75):
    """Straightforward Okapi restatement against a list of token lists."""
    n = len(all_docs)
    avgdl = sum(len(d) for d in all_docs) / n
    dl = len(doc_tokens)
    if dl == 0:
        return 0.0
    score = 0.0
    for t in sorted(set(query_tokens)):
        f = doc_tokens.count(t)
        if f == 0:
            continue
        df = sum(1 for d in all_docs if t in d)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * dl / avgdl))
    return score


def lmir_oracle(doc_tokens, query_tokens, all_docs, mu=1000.0):
    total = sum(len(d) for d in all_docs)
    dl = len(doc_tokens)
    score = 0.0
    for t in sorted(set(query_tokens)):
        cf = sum(d.count(t) for d in all_docs)
        p_c = cf / total if cf else 0.5 / total
        score += math.log((doc_tokens.count(t) + mu * p_c) / (dl + mu))
    return score


STOPS = frozenset({"the", "a", "of"})


class TestTokenize:
    def test_casefolding(self):
        assert tokenize("Dog dogs, DOG!").tokens == ("dog", "dogs", "dog")

    def test_empty(self):
        doc = tokenize("")
        assert doc.tokens == () and doc.length == 0

    def test_separator_split(self):
        assert tokenize("a-b c").tokens == ("a", "b", "c")

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b").tokens == ("a", "b")


class TestComputeFeatures:
    def _stats(self, texts):
        return CorpusStats.from_documents(tokenize(t) for t in texts)

    def test_tf_and_normtf_hand_computed(self):
        stats = self._stats(["cat cat dog", "dog mouse"])
        feats = compute_features(tokenize("cat cat dog"), tokenize("cat"), stats, STOPS)
        assert feats.tf == 2
        assert feats.normtf == 2 / 3

    def test_entropy_degensrate_and_uniform(self):
        stats = self._stats(["x x x x", "p q r s"])
        assert compute_features(tokenize("x x x x"), tokenize("x"), stats, STOPS).ent == 0.0
        assert compute_features(tokenize("p q r s"), tokenize("p"), stats, STOPS).ent == 2.0

    def test_stopword_features(self):
        stats = self._stats(["the cat of the", "dog"])
        feats = compute_features(tokenize("the cat of the"), tokenize("cat"), stats, STOPS)
        assert feats.fracstop == 3 / 4  # the, of, the out of four tokens
        assert feats.stopcover == 2 / 3  # "the" and "of" covered, "a" missing

    def test_len_feature(self):
        stats = self._stats(["one two three"])
        feats = compute_features(tokenize("one two three"), tokenize("one"), stats, STOPS)
        assert feats.len == 3.0

    def test_empty_stoplist_is_an_error(self):
        stats = self._stats(["cat"])
        with pytest.raises(DomainError):
            compute_features(tokenize("cat"), tokenize("cat"), stats, frozenset())

    def test_bm25_and_lmir_match_oracles(self, rng):
        vocab = ["cat", "dog", "mouse", "fish", "the", "a", "runs", "sleeps"]
        for _ in range(40):
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 20))) for _ in range(4)
            ]
            docs = [tokenize(t) for t in texts]
            stats = CorpusStats.from_documents(docs)
            query = tokenize(" ".join(rng.sample(vocab, 2)))
            target = docs[0]
            feats = compute_features(target, query, stats, STOPS)
            tok_lists = [list(d.tokens) for d in docs]
            assert feats.bm25 == pytest.approx(
                bm25_oracle(list(target.tokens), list(query.tokens), tok_lists), abs=1e-9
            )
            assert feats.lmir == pytest.approx(
                lmir_oracle(list(target.tokens), list(query.tokens), tok_lists), abs=1e-9
            )

    def test_bm25_lmir_strictly_increase_in_query_term_count(self):
        # swap a filler token for a query term, keeping length fixed
        stats = self._stats(["cat filler filler pad", "cat cat filler pad", "dog dish"])
        q = tokenize("cat")
        lo = compute_features(tokenize("cat filler filler pad"), q, stats, STOPS)
        hi = compute_features(tokenize("cat cat filler pad"), q, stats, STOPS)
        assert hi.bm25 > lo.bm25
        assert hi.lmir > lo.lmir

    def test_entropy_order_invariance(self, rng):
        stats = self._stats(["a b c a"])
        tokens = ["a", "b", "c", "a", "d", "d"]
        base = compute_features(
            tokenize(" ".join(tokens)), tokenize("a"), stats, STOPS
        ).ent
        for _ in range(5):
            rng.shuffle(tokens)
            assert compute_features(
                tokenize(" ".join(tokens)), tokenize("a"), stats, STOPS
            ).ent == pytest.approx(base, abs=1e-12)


class TestTfidfCosine:
    def _stats(self, texts):
        return CorpusStats.from_documents(tokenize(t) for t in texts)

    def test_identical_docs(self):
        stats = self._stats(["cat dog", "mouse"])
        assert tfidf_cosine(tokenize("cat dog"), tokenize("cat dog"), stats) == pytest.approx(1.0)

    def test_disjoint_vocabulary(self):
        stats = self._stats(["cat dog", "mouse fish"])
        assert tfidf_cosine(tokenize("cat dog"), tokenize("mouse fish"), stats) == 0.0

    def test_scale_invariance(self):
        stats = self._stats(["cat dog", "mouse"])
        a = tokenize("cat dog")
        b = tokenize("cat dog cat dog")
        assert tfidf_cosine(a, b, stats) == pytest.approx(1.0)

    def test_range_and_symmetry(self, rng):
        vocab = ["u", "v", "w", "x", "y"]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 10))) for _ in range(6)]
        stats = self._stats(texts)
        for _ in range(20):
            a, b = rng.sample(texts, 2)
            da, db = tokenize(a), tokenize(b)
            ab = tfidf_cosine(da, db, stats)
            ba = tfidf_cosine(db, da, stats)
            assert 0.0 <= ab <= 1.0 + 1e-12
            assert ab == pytest.approx(ba, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        stats = self._stats(["cat"])
        assert tfidf_cosine(tokenize(""), tokenize("cat"), stats) == 0.0


class TestRbo:
    def test_identical(self):
        assert rbo([1, 2, 3], [1, 2, 3], 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert rbo([1, 2], [3, 4], 0.9) == 0.0

    def test_two_element_swap_frozen_value(self):
        # oracle-derived: (1-p)/p * p^2 + p^2 with p = 0.9
        assert rbo([1, 2], [2, 1], 0.9) == pytest.approx(0.9, abs=1e-12)
        assert rbo([1, 2], [2, 1], 0.9) == pytest.approx(
            rbo_ext_oracle([1, 2], [2, 1], 0.9), abs=1e-12
        )

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            rbo([1, 1, 2], [1, 2, 3], 0.9)

    def test_persistence_domain(self):
        with pytest.raises(DomainError):
            rbo([1], [1], 1.0)
        with pytest.raises(DomainError):
            rbo([1], [1], 0.0)

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(200):
            pool = list(range(rng.randint(1, 12)))
            a = rng.sample(pool, rng.randint(1, len(pool)))
            b = rng.sample(pool, rng.randint(1, len(pool)))
            p = rng.choice([0.5, 0.8, 0.9, 0.97])
            assert rbo(a, b, p) == pytest.approx(rbo_ext_oracle(a, b, p), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(50):
            pool = list(range(10))
            a = rng.sample(pool, rng.randint(1, 10))
            b = rng.sample(pool, rng.randint(1, 10))
            assert rbo(a, b, 0.9) == pytest.approx(rbo(b, a, 0.9), abs=1e-12)

    def test_prepending_a_common_item_never_lowers_it(self, rng):
        for _ in range(50):
            pool = list(range(1, 11))
            a = rng.sample(pool, rng.randint(1, 6))
            b = rng.sample(pool, rng.randint(1, 6))
            base = rbo(a, b, 0.9)
            extended = rbo([0] + a, [0] + b, 0.9)
            assert extended >= base - 1e-12
            assert extended == pytest.approx(
                rbo_ext_oracle([0] + a, [0] + b, 0.9), abs=1e-12
            )


class TestDiversityHelpers:
    def test_jaccard_overlap(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_jaccard_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_rrf_item_first_in_both_lists(self):
        scores = rrf_fuse([["x", "y"], ["x", "z"]], k=60)
        assert scores["x"] == pytest.approx(2 / 61)

    def test_rrf_rank_positions(self):
        scores = rrf_fuse([["x", "y"], ["y", "x"]], k=60)
        assert scores["x"] == pytest.approx(1 / 61 + 1 / 62)
        assert scores["x"] == pytest.approx(scores["y"])

    @pytest.mark.parametrize("k", [-1, -3, -3.5, math.nan])
    def test_rrf_refuses_negative_or_nan_k(self, k):
        # each of these divides by zero, outranks rank 1 or scores NaN
        with pytest.raises(DomainError):
            rrf_fuse([[1, 2, 3, 4]], k=k)

    def test_rrf_accepts_zero_k(self):
        assert rrf_fuse([[1, 2]], k=0) == {1: 1.0, 2: 0.5}

    def test_select_dominated_middle_candidate(self):
        sims = {("q0", "q1"): 0.9, ("q1", "q2"): 0.9, ("q0", "q2"): 0.1}
        assert select_diverse_queries(["q0", "q1", "q2"], sims, 2) == ["q0", "q2"]

    def test_select_respects_seed_query(self):
        sims = {("q0", "q1"): 0.9, ("q1", "q2"): 0.2, ("q0", "q2"): 0.1}
        out = select_diverse_queries(["q0", "q1", "q2"], sims, 2, seed_query="q1")
        assert out == ["q1", "q2"]

    def test_select_count_validation(self):
        with pytest.raises(DomainError):
            select_diverse_queries(["q0"], {}, 2)
        for count in (0, -1):
            with pytest.raises(DomainError, match="count must be >= 1"):
                select_diverse_queries(["q0", "q1"], {("q0", "q1"): 0.5}, count)


class TestStopwords:
    def test_default_list_nonempty_lowercase(self):
        assert DEFAULT_STOPWORDS
        assert all(w == w.lower() for w in DEFAULT_STOPWORDS)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("The\n\nof\na\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "of", "a"})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 30), unique=True, max_size=12),
       st.lists(st.integers(0, 30), unique=True, max_size=12))
def test_rbo_range_property(a, b):
    value = rbo(a, b, 0.9)
    assert -1e-12 <= value <= 1.0 + 1e-12
