"""Sentiment scoring tests: tweet, phrase and user-vector levels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentpop import sentiment
from sentpop.corpus import EmoticonCounts, Tweet
from sentpop.sentiment import (
    catalog_vectors,
    community_topic_vectors,
    group_tweets_by_user,
    load_vectors,
    phrase_sentiment,
    save_vectors,
    tweet_sentiment,
    user_phrase_sentiment,
    user_topic_vector,
)
from sentpop.topics import Topic

from conftest import make_tweet
from oracles import raw_scan_vectors


class TestTweetSentiment:
    def test_mixed(self):
        assert tweet_sentiment(2, 1) == pytest.approx(1 / 3, abs=0)

    def test_extremes(self):
        assert tweet_sentiment(3, 0) == 1.0
        assert tweet_sentiment(0, 3) == -1.0

    def test_no_signed_emoticons(self):
        assert tweet_sentiment(0, 0) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            tweet_sentiment(-1, 0)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_bounded_and_antisymmetric(self, pos, neg):
        s = tweet_sentiment(pos, neg)
        assert -1.0 <= s <= 1.0
        assert tweet_sentiment(neg, pos) == -s


class TestPhraseSentiment:
    def test_present(self, lexicon):
        t = make_tweet(lexicon, "love rio [smile][smile][cry]")
        assert phrase_sentiment(t, "rio") == pytest.approx(1 / 3)

    def test_absent(self, lexicon):
        t = make_tweet(lexicon, "love rio [smile]")
        assert phrase_sentiment(t, "olympics") == 0.0

    def test_present_without_emoticons(self, lexicon):
        assert phrase_sentiment(make_tweet(lexicon, "plain rio"), "rio") == 0.0

    def test_substring_containment_is_raw(self, lexicon):
        # no tokenization: "rio" occurs inside "barrios"
        t = make_tweet(lexicon, "barrios [smile]")
        assert phrase_sentiment(t, "rio") == 1.0

    def test_empty_phrase_rejected(self, lexicon):
        with pytest.raises(ValueError):
            phrase_sentiment(make_tweet(lexicon, "x"), "")


def _user_tweets(lexicon, specs, user="alice"):
    return [
        make_tweet(lexicon, text, user=user, tweet_id=f"u{i}", timestamp=i)
        for i, text in enumerate(specs)
    ]


class TestUserPhraseSentiment:
    def test_every_tweet_divides_the_sum(self, lexicon):
        tweets = _user_tweets(lexicon, ["rio [smile]", "a", "b", "c"])
        assert user_phrase_sentiment(tweets, "rio") == 0.25

    def test_phrase_in_no_tweet(self, lexicon):
        tweets = _user_tweets(lexicon, ["a", "b"])
        assert user_phrase_sentiment(tweets, "rio") == 0.0

    def test_no_tweets(self):
        assert user_phrase_sentiment([], "rio") == 0.0

    def test_matches_naive_summation(self, lexicon):
        rng = np.random.default_rng(8)
        words = ["rio", "games", "medal", "swim"]
        tweets = []
        for i in range(50):
            body = " ".join(rng.choice(words, size=rng.integers(1, 4)))
            emo = "[smile]" * int(rng.integers(0, 3)) + "[cry]" * int(rng.integers(0, 3))
            tweets.append(make_tweet(lexicon, f"{body} {emo}", tweet_id=f"n{i}"))
        for phrase in words:
            naive = 0.0
            for t in tweets:
                if phrase in t.text:
                    pos, neg = t.emoticon_counts
                    naive += (pos - neg) / (pos + neg) if pos + neg else 0.0
            naive /= len(tweets)
            assert user_phrase_sentiment(tweets, phrase) == pytest.approx(naive, abs=1e-12)


TOPIC = Topic(hashtag="rio", start_time=0, popularity=5,
              key_phrases=("alpha", "bravo", "charlie", "delta"))


class TestUserTopicVector:
    def test_no_tweets_gives_zero_vector(self):
        vec = user_topic_vector("ghost", TOPIC, [])
        assert np.array_equal(vec.values, np.zeros(4))

    def test_single_tweet_two_phrases(self, lexicon):
        tweets = _user_tweets(lexicon, ["alpha and charlie [smile]"])
        vec = user_topic_vector("alice", TOPIC, tweets)
        assert np.array_equal(vec.values, np.array([1.0, 0.0, 1.0, 0.0]))

    def test_only_own_tweets_count(self, lexicon):
        mine = _user_tweets(lexicon, ["alpha [smile]"])
        other = _user_tweets(lexicon, ["alpha [cry][cry]"], user="bob")
        vec = user_topic_vector("alice", TOPIC, mine + other)
        assert vec.values[0] == 1.0

    def test_entrywise_oracle(self, lexicon):
        rng = np.random.default_rng(14)
        tweets = []
        for i in range(40):
            body = " ".join(rng.choice(TOPIC.key_phrases, size=rng.integers(0, 3)))
            emo = "[smile]" * int(rng.integers(0, 2)) + "[cry]" * int(rng.integers(0, 2))
            tweets.append(make_tweet(lexicon, f"{body} {emo}", tweet_id=f"o{i}"))
        vec = user_topic_vector("alice", TOPIC, tweets)
        for n, phrase in enumerate(TOPIC.key_phrases):
            assert vec.values[n] == pytest.approx(
                user_phrase_sentiment(tweets, phrase), abs=1e-12
            )

    def test_order_invariance(self, lexicon):
        tweets = _user_tweets(lexicon, ["alpha [smile]", "bravo [cry]", "x", "delta [smile][cry]"])
        a = user_topic_vector("alice", TOPIC, tweets).values
        b = user_topic_vector("alice", TOPIC, list(reversed(tweets))).values
        assert np.array_equal(a, b)


def _random_user_tweets(lexicon, rng, user, n):
    tweets = []
    for i in range(n):
        body = " ".join(rng.choice(TOPIC.key_phrases, size=rng.integers(0, 3)))
        pos, neg = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        text = f"{body} " + "[smile]" * pos + "[cry]" * neg
        tweets.append(make_tweet(lexicon, text, user=user, tweet_id=f"{user}-{i}"))
    return tweets


def _flip(tweet: Tweet) -> Tweet:
    pos, neg = tweet.emoticon_counts
    return Tweet(
        id=tweet.id, user=tweet.user, timestamp=tweet.timestamp, text=tweet.text,
        hashtags=tweet.hashtags, mentions=tweet.mentions, retweet_of=tweet.retweet_of,
        emoticon_counts=EmoticonCounts(neg, pos),
    )


def test_vector_antisymmetry_under_polarity_swap(lexicon):
    """Swapping pos and neg on every tweet negates every vector entry."""
    rng = np.random.default_rng(99)
    for u in range(100):
        tweets = _random_user_tweets(lexicon, rng, f"user{u}", int(rng.integers(1, 12)))
        flipped = [_flip(t) for t in tweets]
        v = user_topic_vector(f"user{u}", TOPIC, tweets).values
        w = user_topic_vector(f"user{u}", TOPIC, flipped).values
        assert np.all(np.abs(v) <= 1.0)
        assert np.max(np.abs(v + w)) < 1e-12


def test_community_vectors_match_single_user_path(lexicon):
    rng = np.random.default_rng(5)
    users = [f"user{u}" for u in range(12)]
    all_tweets = []
    for user in users:
        all_tweets += _random_user_tweets(lexicon, rng, user, int(rng.integers(0, 8)))
    by_user = group_tweets_by_user(all_tweets)
    got = community_topic_vectors(users, TOPIC, all_tweets)
    for user in users:
        expected = user_topic_vector(user, TOPIC, by_user.get(user, [])).values
        if np.any(expected != 0):
            assert np.allclose(got[user], expected, atol=1e-15)
        else:
            assert user not in got  # zero vectors are not materialized


_RUN_CHARS = "abxé日٣_"  # ASCII and non-ASCII letters, a non-ASCII digit, underscore
_TEXTS = st.text(alphabet=_RUN_CHARS + " -.#\u3000", max_size=24)
_PHRASES = st.one_of(
    st.text(alphabet=_RUN_CHARS, min_size=1, max_size=3),
    st.sampled_from(["a b", "x-y", "b.", " a", "é\u3000日", "ab_x"]),
)
_TOPICS = st.lists(st.lists(_PHRASES, min_size=1, max_size=4), min_size=1, max_size=4)
_TWEETS = st.lists(
    st.tuples(
        st.sampled_from(["u0", "u1", "u2", "outsider"]), _TEXTS, st.integers(0, 2),
        st.integers(0, 2),
    ),
    max_size=12,
)


@given(_TOPICS, _TWEETS)
def test_catalog_vectors_match_raw_scan(phrase_lists, rows):
    """Short phrases over a small alphabet hit inside longer runs, repeat within and
    across topics, and include phrases that are not one word run. The tweets arrive
    as a one-shot stream with the users interleaved, some of them not members."""
    topics = [
        Topic(hashtag=f"t{k}", start_time=0, popularity=1, key_phrases=tuple(phrases))
        for k, phrases in enumerate(phrase_lists)
    ]
    tweets = [
        Tweet(id=f"i{n}", user=user, timestamp=n, text=text, hashtags=(), mentions=(),
              retweet_of=None, emoticon_counts=EmoticonCounts(pos, neg))
        for n, (user, text, pos, neg) in enumerate(rows)
    ]
    members = ["u0", "u1", "u2", "silent"]
    got = catalog_vectors(members, topics, (t for t in tweets))
    expected = raw_scan_vectors(members, topics, group_tweets_by_user(tweets))
    assert got.keys() == expected.keys()
    for hashtag, per_user in expected.items():
        assert got[hashtag].keys() == per_user.keys()
        for user, values in per_user.items():
            assert got[hashtag][user].tobytes() == values.tobytes()


def test_catalog_vectors_match_raw_scan_when_every_hit_is_evicted(monkeypatch):
    """A one-entry cache recomputes each token's phrases; the sums stay bit-identical."""
    monkeypatch.setattr(sentiment, "_PHRASE_CACHE_SIZE", 1)
    test_catalog_vectors_match_raw_scan()


def test_catalog_vectors_memory_does_not_grow_with_the_vocabulary(monkeypatch):
    """Every token is new, so a memo of all tokens grows with the stream; the cache is
    shrunk so that both streams overfill it many times over within a short test."""
    monkeypatch.setattr(sentiment, "_PHRASE_CACHE_SIZE", 1 << 10)
    members = [f"u{u}" for u in range(20)]
    topics = [Topic(hashtag=f"t{k}", start_time=0, popularity=1, key_phrases=(f"w{k}", "x1"))
              for k in range(10)]

    def peak_bytes(n_tweets):
        tweets = [
            Tweet(id=str(i), user=f"u{i % 20}", timestamp=i,
                  text=" ".join([f"w{i}x{j}" for j in range(10)]), hashtags=(), mentions=(),
                  retweet_of=None, emoticon_counts=EmoticonCounts(1, 0))
            for i in range(n_tweets)
        ]
        tracemalloc.start()  # the tweets are built before, so only the scan is traced
        try:
            catalog_vectors(members, topics, iter(tweets))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(2400) - peak_bytes(600) < 1 << 20


def test_catalog_vectors_reject_topic_without_phrases():
    empty = Topic(hashtag="none", start_time=0, popularity=1, key_phrases=())
    with pytest.raises(ValueError, match="no key phrases"):
        catalog_vectors(["alice"], [TOPIC, empty], [])


def test_vectors_file_round_trip(tmp_path, lexicon):
    rng = np.random.default_rng(2)
    data = {
        "rio": {"alice": rng.uniform(-1, 1, 4), "bob": rng.uniform(-1, 1, 4)},
        "games": {"carol": rng.uniform(-1, 1, 4)},
        # the least subnormal, a signed zero, the least normal and the largest float
        "edges": {"dave": np.array(
            [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
        )},
    }
    path = tmp_path / "vectors.tsv"
    assert save_vectors(data, path) == 4
    loaded = load_vectors(path)
    for topic, per_user in data.items():
        for user, values in per_user.items():
            assert loaded[topic][user].dtype == np.float64
            # bit for bit, so -0.0 is not taken for 0.0
            assert loaded[topic][user].tobytes() == values.tobytes()
