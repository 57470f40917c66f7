"""Emoticon-derived sentiment at tweet, key-phrase and user level.

A user's sentiment on a topic is an m-vector, one entry per key phrase: the
mean, over all of the user's training tweets, of the tweet's emoticon score
where the phrase occurs (and 0 where it does not). Tweets without emoticons
contribute neutral mass to that mean.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ._lazy import np
from .corpus import Tweet
from .manifest import read_rows, write_lines
from .topics import Topic

_WORD_RUN_RE = re.compile(r"\w+")
# catalog_vectors' cache; untuned: no benchmark workload fills it, so its time cost is unverified
_PHRASE_CACHE_SIZE = 1 << 14
_NO_PHRASES: frozenset[str] = frozenset()  # shared, so a token without hits costs no set


@dataclass(frozen=True, eq=False)
class SentimentVector:
    """Per-key-phrase sentiment of one user on one topic; entries in [-1, 1]."""

    topic: str
    user: str
    values: np.ndarray


def tweet_sentiment(pos: int, neg: int) -> float:
    """(pos - neg) / (pos + neg); 0 when the tweet has no signed emoticons."""
    if pos < 0 or neg < 0:
        raise ValueError("emoticon counts must be non-negative")
    total = pos + neg
    if total == 0:
        return 0.0
    return (pos - neg) / total


def phrase_sentiment(tweet: Tweet, phrase: str) -> float:
    """Tweet score if ``phrase`` occurs in the text (raw substring test), else 0."""
    if not phrase:
        raise ValueError("phrase must be non-empty")
    if phrase not in tweet.text:
        return 0.0
    return tweet_sentiment(tweet.emoticon_counts.pos, tweet.emoticon_counts.neg)


def user_phrase_sentiment(user_tweets: Sequence[Tweet], phrase: str) -> float:
    """Mean phrase sentiment over a user's tweets, matching or not; 0 for a user with none."""
    if not user_tweets:
        return 0.0
    total = sum(phrase_sentiment(tweet, phrase) for tweet in user_tweets)
    return total / len(user_tweets)


def user_topic_vector(
    user: str, topic: Topic, train_tweets: Iterable[Tweet]
) -> SentimentVector:
    """Sentiment vector of ``user`` over the topic's key phrases."""
    if not topic.key_phrases:
        raise ValueError(f"topic {topic.hashtag!r} has no key phrases")
    own = [t for t in train_tweets if t.user == user]
    values = np.array(
        [user_phrase_sentiment(own, p) for p in topic.key_phrases],
        dtype=np.float64,
    )
    return SentimentVector(topic=topic.hashtag, user=user, values=values)


def group_tweets_by_user(tweets: Iterable[Tweet]) -> dict[str, list[Tweet]]:
    by_user: defaultdict[str, list[Tweet]] = defaultdict(list)
    for tweet in tweets:
        by_user[tweet.user].append(tweet)
    return dict(by_user)


def catalog_vectors(
    members: Iterable[str], topics: Sequence[Topic], tweets: Iterable[Tweet]
) -> dict[str, dict[str, array]]:
    """Nonzero sentiment vectors of community members on every topic, by hashtag.

    ``tweets`` is read once, as a stream in corpus order; tweets of users
    outside ``members`` are skipped. Equal to testing ``phrase in tweet.text``
    for every topic, member, tweet and phrase, but each tweet is scanned once
    for the whole catalog. A phrase that is one ``\\w+`` run occurs in a text
    exactly when it is a substring of one of the text's maximal ``\\w+`` runs,
    and since whitespace is never a word character, each run lies inside one
    whitespace-separated token. So a token's phrases are found among the
    substrings of its runs that have a phrase's length, and cached per token.
    Other phrases are tested with ``in`` on every tweet. Each member's sums
    accumulate in that member's tweet order, which keeps them bit-identical to
    a per-phrase ``sum``. A member absent from a topic's vectors has a zero
    vector there.

    Only tweets with a signed emoticon add to the sums, and every tweet of
    the member divides them.

    No tweet is held: the memory is one tweet count per member, plus
    ``8 * n_slots`` bytes of running sums per member with a scored tweet,
    where ``n_slots`` is the number of key phrases over the whole catalog, plus
    the cached hits of at most 16,384 tokens (3.2 MB if all are 8 characters, without hits).

    Each vector is an ``array('d')`` of float64 values, so this stage needs no
    numpy; ``np.asarray`` reads one without copying through the buffer protocol.
    """
    slots: dict[str, list[int]] = {}  # phrase -> positions in the flat catalog
    spans: dict[str, tuple[int, int]] = {}  # hashtag -> its slice of the catalog
    n_slots = 0
    for topic in topics:
        if not topic.key_phrases:
            raise ValueError(f"topic {topic.hashtag!r} has no key phrases")
        for phrase in topic.key_phrases:
            slots.setdefault(phrase, []).append(n_slots)
            n_slots += 1
        spans[topic.hashtag] = (n_slots - len(topic.key_phrases), n_slots)
    run_phrases = {p for p in slots if _WORD_RUN_RE.fullmatch(p)}
    other_phrases = [p for p in slots if p not in run_phrases]
    lengths = sorted({len(p) for p in run_phrases})

    @lru_cache(maxsize=_PHRASE_CACHE_SIZE)
    def phrases_in(token: str) -> frozenset[str]:
        return frozenset(
            run[i : i + n]
            for run in _WORD_RUN_RE.findall(token)
            for n in lengths
            for i in range(len(run) - n + 1)
            if run[i : i + n] in run_phrases
        ) or _NO_PHRASES

    counts = dict.fromkeys(members, 0)  # member -> its tweets so far
    totals: dict[str, array] = {}  # member with a scored tweet -> per-slot sums
    zeros = bytes(8 * n_slots)
    for tweet in tweets:
        user = tweet.user
        seen = counts.get(user)
        if seen is None:
            continue
        counts[user] = seen + 1
        pos, neg = tweet.emoticon_counts.pos, tweet.emoticon_counts.neg
        if pos + neg == 0:
            continue
        text = tweet.text
        found: set[str] = set()
        for token in text.split():
            found |= phrases_in(token)
        for phrase in other_phrases:
            if phrase in text:
                found.add(phrase)
        if not found:
            continue
        score = tweet_sentiment(pos, neg)
        sums = totals.get(user)
        if sums is None:
            sums = totals[user] = array("d", zeros)
        for phrase in found:
            for slot in slots[phrase]:
                sums[slot] += score

    vectors: dict[str, dict[str, array]] = {hashtag: {} for hashtag in spans}
    for user in sorted(totals):
        sums = totals.pop(user)  # freed as it is divided, for what the caller does next
        n = counts[user]
        for hashtag, (start, stop) in spans.items():
            total = sums[start:stop]
            if not any(total):
                continue
            values = array("d", [t / n for t in total])
            if any(values):
                vectors[hashtag][user] = values
    return vectors


def community_topic_vectors(
    members: Iterable[str], topic: Topic, tweets: Iterable[Tweet]
) -> dict[str, array]:
    """Nonzero sentiment vectors for community members (absent user = zero vector)."""
    return catalog_vectors(members, [topic], tweets)[topic.hashtag]


def save_vectors(
    vectors_by_topic: Mapping[str, Mapping[str, Sequence[float]]], path: str | Path
) -> int:
    """Persist nonzero vectors as ``hashtag<TAB>user<TAB>v1,...,v_m`` rows."""
    return write_lines(
        (
            f"{hashtag}\t{user}\t{','.join(repr(float(v)) for v in values)}"
            for hashtag, per_user in sorted(vectors_by_topic.items())
            for user, values in sorted(per_user.items())
        ),
        path,
    )


def load_vectors(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    vectors: dict[str, dict[str, np.ndarray]] = {}
    for _, (hashtag, user, joined) in read_rows(path, 3, "vector"):
        values = np.array(joined.split(","), dtype=np.float64)
        vectors.setdefault(hashtag, {})[user] = values
    return vectors
