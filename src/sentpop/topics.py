"""Hashtag topics: popularity, filters, gap datasets and key phrases."""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

from .corpus import CorpusWindow, TopicFields, Tweet, outside_records
from .manifest import read_rows, write_lines

_WORD_RE = re.compile(r"\w+", re.UNICODE)


class PhraseDeficitError(ValueError):
    """Too few candidate tokens to fill a key-phrase list."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"need {needed} key phrases but only {available} candidate tokens"
            f" (deficit {needed - available})"
        )


@dataclass(frozen=True)
class Topic:
    """A hashtag topic observed in the test window.

    ``popularity`` counts test-window tweets bearing the hashtag;
    ``start_time`` is the earliest such tweet. ``key_phrases`` is filled by a
    later catalog pass and is empty until then.
    """

    hashtag: str
    start_time: int
    popularity: int
    key_phrases: tuple[str, ...] = ()


@dataclass(frozen=True)
class GapDataset:
    """Topics sorted by ascending popularity with consecutive gaps >= ``gap``."""

    gap: int
    topics: tuple[Topic, ...]

    def __len__(self) -> int:
        return len(self.topics)


def first_month_end(window: CorpusWindow) -> int:
    """The time a topic's first test tweet must precede: the middle of the test window,
    which ends the first month of a two-month window."""
    return window.test_start + (window.test_end - window.test_start) // 2


def extract_topics(
    test_tweets: Iterable[Tweet | TopicFields],
    first_month_end: int,
    min_popularity: int,
) -> list[Topic]:
    """Topics whose first test-window tweet precedes ``first_month_end``.

    Popularity is counted over the whole test window; a tweet with several
    distinct hashtags counts once toward each. Topics below ``min_popularity``
    are dropped. Result is sorted by (popularity, hashtag) ascending. A tweet
    is read for its ``timestamp`` and ``hashtags`` only.
    """
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    for tweet in test_tweets:
        for tag in set(tweet.hashtags):
            counts[tag] += 1
            prev = first_seen.get(tag)
            if prev is None or tweet.timestamp < prev:
                first_seen[tag] = tweet.timestamp
    topics = [
        Topic(hashtag=tag, start_time=first_seen[tag], popularity=n)
        for tag, n in counts.items()
        if first_seen[tag] < first_month_end and n >= min_popularity
    ]
    topics.sort(key=lambda t: (t.popularity, t.hashtag))
    return topics


def dedupe_equal_popularity(topics: Sequence[Topic]) -> list[Topic]:
    """Keep one topic per popularity value (lexicographically smallest hashtag)."""
    best: dict[int, Topic] = {}
    for topic in topics:
        kept = best.get(topic.popularity)
        if kept is None or topic.hashtag < kept.hashtag:
            best[topic.popularity] = topic
    return [best[p] for p in sorted(best)]


def gap_filter(topics: Sequence[Topic], gap: int) -> GapDataset:
    """Greedy ascending scan keeping popularity gaps of at least ``gap``.

    Requires pairwise-distinct popularities. Consecutive gaps >= ``gap``
    imply the same bound for every pair, since popularities are increasing.
    """
    if gap < 1:
        raise ValueError("gap must be a positive integer")
    ordered = sorted(topics, key=lambda t: t.popularity)
    for a, b in zip(ordered, ordered[1:]):
        if a.popularity == b.popularity:
            raise ValueError(
                f"duplicate popularity {a.popularity} ({a.hashtag!r}, {b.hashtag!r});"
                " dedupe first"
            )
    kept: list[Topic] = []
    for topic in ordered:
        if not kept or topic.popularity - kept[-1].popularity >= gap:
            kept.append(topic)
    return GapDataset(gap=gap, topics=tuple(kept))


def _word_counts(texts: Iterable[str]) -> Counter[str]:
    """``Counter(_WORD_RE.findall("\\n".join(texts)))``: how often each word run occurs.

    Whitespace is no word character, so each run lies inside one
    whitespace-separated token: the runs of each distinct token are found
    once and counted as often as the token occurs.
    """
    counts: Counter[str] = Counter()
    for token, n in Counter(chain.from_iterable(map(str.split, texts))).items():
        for run in _WORD_RE.findall(token):
            counts[run] += n
    return counts


def extract_key_phrases(
    topic_texts: Iterable[str],
    m: int,
    stopwords: set[str],
    exclude: str = "",
) -> list[str]:
    """Top-``m`` tokens of the concatenated topic document by frequency.

    ``topic_texts`` are the texts of the topic's tweets. Tokens are Unicode
    word runs taken verbatim (no case folding, so the raw substring matching
    used for sentiment scoring stays consistent). Ties break
    lexicographically. ``exclude`` drops the topic's own hashtag string.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    candidates = [
        (token, n)
        for token, n in _word_counts(topic_texts).items()
        if token not in stopwords and token != exclude
    ]
    if len(candidates) < m:
        raise PhraseDeficitError(needed=m, available=len(candidates))
    candidates.sort(key=lambda kv: (-kv[1], kv[0]))
    return [token for token, _ in candidates[:m]]


def attach_key_phrases(topic: Topic, phrases: Sequence[str]) -> Topic:
    return replace(topic, key_phrases=tuple(phrases))


def load_stopwords(path: str | Path) -> set[str]:
    """One token per line, stripped; read through :func:`~sentpop.corpus.outside_records`,
    whose faults raise :class:`~sentpop.corpus.ParseError` naming the file and the line."""
    with outside_records(path) as records:
        return {word for _, record in records if (word := record.strip())}


def save_catalog(topics: Sequence[Topic], path: str | Path) -> int:
    """Persist ``hashtag<TAB>popularity<TAB>start_time<TAB>phrase1,...`` rows."""
    return write_lines(
        (
            f"{t.hashtag}\t{t.popularity}\t{t.start_time}\t{','.join(t.key_phrases)}"
            for t in topics
        ),
        path,
    )


def load_catalog(path: str | Path) -> list[Topic]:
    return [
        Topic(hashtag, int(start_time), int(popularity), tuple(p for p in phrases.split(",") if p))
        for _, (hashtag, popularity, start_time, phrases) in read_rows(path, 4, "catalog")
    ]
