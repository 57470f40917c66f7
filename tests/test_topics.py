"""Topic catalog tests: extraction, dedupe, gap filtering, key phrases."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentpop.topics import (
    _WORD_RE,
    PhraseDeficitError,
    Topic,
    _word_counts,
    dedupe_equal_popularity,
    extract_key_phrases,
    extract_topics,
    gap_filter,
    load_catalog,
    load_stopwords,
    save_catalog,
)

from conftest import make_tweet

FIRST_MONTH_END = 1000


def _tagged(lexicon, tag, ts, i):
    return make_tweet(lexicon, f"#{tag}# body", tweet_id=f"t{tag}{ts}{i}", timestamp=ts)


class TestExtractTopics:
    def test_late_start_excluded(self, lexicon):
        tweets = [_tagged(lexicon, "late", 1500, i) for i in range(5)]
        assert extract_topics(tweets, FIRST_MONTH_END, 1) == []

    def test_min_popularity_boundary(self, lexicon):
        tweets = [_tagged(lexicon, "a", 10, i) for i in range(99)]
        tweets += [_tagged(lexicon, "b", 10, i) for i in range(100)]
        got = extract_topics(tweets, FIRST_MONTH_END, 100)
        assert [t.hashtag for t in got] == ["b"]
        assert got[0].popularity == 100

    def test_popularity_counts_whole_test_window(self, lexicon):
        # starts early, keeps accumulating after the first-month cutoff
        tweets = [_tagged(lexicon, "a", 10, 0)] + [
            _tagged(lexicon, "a", 1500 + i, i) for i in range(4)
        ]
        (topic,) = extract_topics(tweets, FIRST_MONTH_END, 1)
        assert topic.popularity == 5
        assert topic.start_time == 10

    def test_multi_hashtag_tweet_counts_for_each(self, lexicon):
        tweets = [
            make_tweet(lexicon, "#a# and #b#", tweet_id="x", timestamp=5),
            make_tweet(lexicon, "#a# only", tweet_id="y", timestamp=6),
        ]
        got = {t.hashtag: t.popularity for t in extract_topics(tweets, FIRST_MONTH_END, 1)}
        assert got == {"a": 2, "b": 1}

    def test_repeated_hashtag_in_one_tweet_counts_once(self, lexicon):
        tweets = [make_tweet(lexicon, "#a# again #a#", tweet_id="x", timestamp=5)]
        (topic,) = extract_topics(tweets, FIRST_MONTH_END, 1)
        assert topic.popularity == 1

    def test_counts_match_bruteforce_oracle(self, lexicon):
        rng = np.random.default_rng(21)
        tags = ["alpha", "beta", "gamma", "delta", "eps"]
        tweets = []
        for i in range(300):
            chosen = [tags[j] for j in rng.choice(5, size=rng.integers(1, 3), replace=False)]
            text = " ".join(f"#{t}#" for t in chosen)
            tweets.append(make_tweet(lexicon, text, tweet_id=f"t{i}", timestamp=int(rng.integers(0, 900))))
        oracle = Counter()
        for t in tweets:
            for tag in set(t.hashtags):
                oracle[tag] += 1
        got = {t.hashtag: t.popularity for t in extract_topics(tweets, FIRST_MONTH_END, 1)}
        assert got == dict(oracle)


class TestDedupe:
    def _topic(self, tag, pop):
        return Topic(hashtag=tag, start_time=0, popularity=pop)

    def test_keeps_lexicographically_smallest(self):
        topics = [self._topic("b", 100), self._topic("a", 100), self._topic("c", 200)]
        got = dedupe_equal_popularity(topics)
        assert [(t.hashtag, t.popularity) for t in got] == [("a", 100), ("c", 200)]

    def test_distinct_unchanged(self):
        topics = [self._topic("a", 1), self._topic("b", 2)]
        assert dedupe_equal_popularity(topics) == topics

    def test_no_duplicate_popularities_on_random_catalogs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            topics = [
                self._topic(f"h{i}", int(rng.integers(1, 30))) for i in range(50)
            ]
            pops = [t.popularity for t in dedupe_equal_popularity(topics)]
            assert len(pops) == len(set(pops))


class TestGapFilter:
    def _topics(self, pops):
        return [Topic(hashtag=f"h{p}", start_time=0, popularity=p) for p in pops]

    def test_greedy_trace(self):
        ds = gap_filter(self._topics([100, 105, 220, 500]), 100)
        assert [t.popularity for t in ds.topics] == [100, 220, 500]

    def test_gap_one_keeps_everything(self):
        ds = gap_filter(self._topics([3, 1, 8, 2]), 1)
        assert [t.popularity for t in ds.topics] == [1, 2, 3, 8]

    def test_duplicate_popularity_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            gap_filter(self._topics([5, 5]), 1)

    def test_all_pairs_respect_gap(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            pops = rng.choice(5000, size=100, replace=False)
            ds = gap_filter(self._topics([int(p) for p in pops]), 50)
            kept = [t.popularity for t in ds.topics]
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert abs(kept[i] - kept[j]) >= 50

    @given(st.lists(st.integers(min_value=1, max_value=10**6), unique=True, min_size=1), st.integers(1, 1000))
    def test_output_is_subsequence_of_sorted_input(self, pops, gap):
        ds = gap_filter(self._topics(pops), gap)
        ordered = sorted(pops)
        kept = [t.popularity for t in ds.topics]
        it = iter(ordered)
        assert all(any(p == q for q in it) for p in kept)

    @given(st.lists(st.integers(min_value=1, max_value=10**4), unique=True, min_size=1))
    def test_cardinality_monotone_in_gap(self, pops):
        topics = self._topics(pops)
        sizes = [len(gap_filter(topics, g)) for g in (1, 10, 100)]
        assert sizes == sorted(sizes, reverse=True)


class TestKeyPhrases:
    def test_frequency_then_lexicographic(self):
        assert extract_key_phrases(["a a b c"], 2, set()) == ["a", "b"]

    def test_stopwords_removed(self):
        assert extract_key_phrases(["a a b c"], 2, {"a"}) == ["b", "c"]

    def test_own_hashtag_excluded(self):
        assert extract_key_phrases(["tag tag tag b c"], 2, set(), exclude="tag") == ["b", "c"]

    def test_deficit_error_reports_counts(self):
        with pytest.raises(PhraseDeficitError) as err:
            extract_key_phrases(["a b"], 5, set())
        assert err.value.needed == 5
        assert err.value.available == 2

    @pytest.mark.parametrize("m", [0, -1])
    def test_fewer_than_one_phrase_rejected(self, m):
        with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
            extract_key_phrases(["a b c"], m, set())

    def test_matches_reference_counter(self):
        """1000 synthetic tweets with planted token frequencies."""
        rng = np.random.default_rng(33)
        vocab = [f"tok{i:02d}" for i in range(40)]
        weights = rng.random(40)
        weights /= weights.sum()
        docs = []
        for _ in range(1000):
            words = rng.choice(vocab, size=8, p=weights)
            docs.append(" ".join(words))
        oracle = Counter()
        for d in docs:
            oracle.update(d.split())
        expected = [w for w, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:10]]
        assert extract_key_phrases(docs, 10, set()) == expected

    # Unicode whitespace that str.split() cuts at, word characters that are no
    # letter (underscore, digits, combining marks) and tokens glued to punctuation
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.sampled_from([" ", "\u00a0", "\u2003", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f",
                         "\n", "_", "7", "\u0663", "e\u0301", "\u0301", "#t#", "[x]", "a,b",
                         "tok", "\u00e9", "\u6771\u4eac"]),
        st.text(alphabet="ab_9 \u00a0\u3000\x1f#[],\u0301", max_size=5),
    ), max_size=10).map("".join), max_size=6))
    def test_word_counts_match_one_scan_of_the_joined_document(self, texts):
        assert _word_counts(texts) == Counter(_WORD_RE.findall("\n".join(texts)))

    def test_permutation_invariant(self):
        docs = ["x y z", "y z", "z q r s t u v w"]
        a = extract_key_phrases(docs, 4, set())
        b = extract_key_phrases(list(reversed(docs)), 4, set())
        assert a == b


def test_catalog_round_trip(tmp_path):
    topics = [
        Topic("a", 5, 120, ("k1", "k2")),
        Topic("b", 9, 300, ("k3", "k4")),
    ]
    path = tmp_path / "catalog.tsv"
    assert save_catalog(topics, path) == 2
    assert load_catalog(path) == topics


def test_stopwords_with_a_leading_byte_order_mark_keep_their_first_word(tmp_path):
    # the mark was once read into the first word, so "w000" stayed a key phrase
    path = tmp_path / "stopwords.tsv"
    path.write_text("w000\nw001\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfw000")
    assert load_stopwords(path) == {"w000", "w001"}
