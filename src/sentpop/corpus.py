"""Tweet corpus and emoticon lexicon parsing.

Corpus files are UTF-8 with one record per line:
``id<TAB>user<TAB>timestamp<TAB>retweet_of_or_dash<TAB>text``.
Lines end in a newline or a carriage return and newline; a carriage return
anywhere else in a record is an error, so corpora are read with
:func:`open_corpus`.
Hashtags, mentions and emoticon counts are extracted from the text at parse
time, so a serialized tweet always round-trips to identical fields.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple, TextIO

from .manifest import write_lines

# Hashtags are paired '#...#' spans; an unpaired trailing '#' yields nothing.
_HASHTAG_RE = re.compile(r"#([^#]+)#")
# Mentions run from '@' to the first non-word character.
_MENTION_RE = re.compile(r"@(\w+)")
# Emoticons are bracketed tokens; only tokens present in the lexicon count.
_EMOTICON_RE = re.compile(r"\[[^\[\]]+\]")

POLARITIES = ("positive", "negative", "neutral")

NO_RETWEET = "-"

SPLITS = ("train", "test", "all")


class ParseError(ValueError):
    """A malformed corpus record."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class LexiconError(ValueError):
    """A malformed or inconsistent emoticon lexicon file."""


class EmoticonCounts(NamedTuple):
    pos: int
    neg: int


_NO_EMOTICONS = EmoticonCounts(0, 0)

# counting looks up only _EMOTICON_RE matches, so a lexicon token must be one
_NOT_BRACKETED = (
    "token {!r} is not one bracketed emoticon such as '[smile]', so no text could count it"
)


class EmoticonLexicon:
    """Maps bracketed emoticon tokens (e.g. ``[smile]``) to a polarity.

    Immutable: ``entries`` is validated once, here, and cannot be reassigned.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, str]):
        for token, polarity in entries.items():
            if not _EMOTICON_RE.fullmatch(token):
                raise LexiconError(_NOT_BRACKETED.format(token))
            if polarity not in POLARITIES:
                raise LexiconError(f"unknown polarity {polarity!r} for {token!r}")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def count(self, text: str) -> EmoticonCounts:
        """Count the positive and negative lexicon emoticons in ``text``.

        Neutral tokens and bracketed tokens absent from the lexicon are ignored,
        so an empty lexicon counts nothing and scans no text.
        """
        if not self.entries or "[" not in text:
            return _NO_EMOTICONS
        pos = neg = 0
        for token in _EMOTICON_RE.findall(text):
            polarity = self.entries.get(token)
            if polarity == "positive":
                pos += 1
            elif polarity == "negative":
                neg += 1
        return EmoticonCounts(pos, neg)


class Tweet(NamedTuple):
    """One parsed corpus record; a tuple, so that parsing a line stays cheap."""

    id: str
    user: str
    timestamp: int
    text: str
    hashtags: tuple[str, ...]
    mentions: tuple[str, ...]
    retweet_of: str | None
    emoticon_counts: EmoticonCounts


class _Bounds(NamedTuple):
    train_start: int
    train_end: int
    test_start: int
    test_end: int


class CorpusWindow(_Bounds):
    """Half-open train and test intervals, in UTC seconds."""

    __slots__ = ()

    def __new__(cls, train_start: int, train_end: int, test_start: int, test_end: int):
        if not (train_start < train_end <= test_start < test_end):
            raise ValueError(
                "window must satisfy train_start < train_end <= test_start < test_end"
            )
        return super().__new__(cls, train_start, train_end, test_start, test_end)

    @classmethod
    def _make(cls, iterable):  # NamedTuple's skips __new__, and _replace calls it
        return cls(*iterable)

    def contains(self, timestamp: int, split: str) -> bool:
        """True if ``timestamp`` falls in the requested split.

        Intervals are half-open ``[start, end)`` so a tweet exactly at
        ``train_end`` belongs to the test side (if the intervals touch).
        ``split="all"`` means either interval, not the span between them.
        """
        in_train = self.train_start <= timestamp < self.train_end
        in_test = self.test_start <= timestamp < self.test_end
        if split == "train":
            return in_train
        if split == "test":
            return in_test
        if split == "all":
            return in_train or in_test
        raise ValueError(f"unknown split {split!r}")


def _read_timestamp(field: str) -> int | None:
    """The timestamp ``field`` spells, an optional ``-`` then ASCII digits; else None."""
    # int() would also take "1_0", " +7 " and non-ASCII digits
    if field.isascii() and field.removeprefix("-").isdigit():
        return int(field)
    return None


def parse_tweet_line(
    line: str, lexicon: EmoticonLexicon, line_no: int | None = None
) -> Tweet:
    """Parse one corpus record into a :class:`Tweet`.

    Raises :class:`ParseError` (carrying ``line_no``) for malformed records.
    """
    line = line.removesuffix("\n").removesuffix("\r")
    if "\r" in line:
        raise ParseError("carriage return inside the record", line_no)
    fields = line.split("\t")
    if len(fields) != 5:
        raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line_no)
    tweet_id, user, ts_raw, retweet_raw, text = fields
    if not tweet_id or not user:
        raise ParseError("empty id or user field", line_no)
    timestamp = _read_timestamp(ts_raw)
    if timestamp is None:
        raise ParseError(f"bad timestamp {ts_raw!r}", line_no)
    retweet_of = None if retweet_raw == NO_RETWEET else retweet_raw
    if retweet_of == "":
        raise ParseError("empty retweet field (use '-' for none)", line_no)
    # Each scan needs its marker character to match, so a text without it
    # skips the regex.
    return Tweet(
        id=tweet_id,
        user=user,
        timestamp=timestamp,
        text=text,
        hashtags=tuple(_HASHTAG_RE.findall(text)) if "#" in text else (),
        mentions=tuple(_MENTION_RE.findall(text)) if "@" in text else (),
        retweet_of=retweet_of,
        emoticon_counts=lexicon.count(text),
    )


def format_tweet_line(tweet: Tweet) -> str:
    """Serialize a tweet back to the corpus line format (no newline)."""
    if "\t" in tweet.text or "\n" in tweet.text or "\r" in tweet.text:
        raise ValueError("tweet text may not contain tab, newline or carriage return")
    retweet = tweet.retweet_of if tweet.retweet_of is not None else NO_RETWEET
    return f"{tweet.id}\t{tweet.user}\t{tweet.timestamp}\t{retweet}\t{tweet.text}"


def open_corpus(path: str | Path) -> TextIO:
    """Open a corpus file for reading, split into lines at newlines only.

    Universal newlines would also split a record at a lone carriage return and
    report a wrong line number; here the carriage return stays in its line for
    :func:`parse_tweet_line` to reject.
    """
    return open(path, encoding="utf-8", newline="\n")


def load_lexicon(path: str | Path) -> EmoticonLexicon:
    """Load a ``token<TAB>polarity`` TSV lexicon.

    Duplicate tokens, unknown polarity labels and tokens that are not one
    bracketed emoticon (``smile``, ``[a]b]``) are errors.
    """
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise LexiconError(f"line {line_no}: expected 2 fields, got {len(fields)}")
            token, polarity = fields
            if not _EMOTICON_RE.fullmatch(token):
                raise LexiconError(f"line {line_no}: " + _NOT_BRACKETED.format(token))
            if polarity not in POLARITIES:
                raise LexiconError(f"line {line_no}: unknown polarity {polarity!r}")
            if token in entries:
                raise LexiconError(f"line {line_no}: duplicate token {token!r}")
            entries[token] = polarity
    return EmoticonLexicon(entries)


def save_lexicon(lexicon: EmoticonLexicon, path: str | Path) -> int:
    """Write ``token<TAB>polarity`` lines sorted by token; return the row count."""
    return write_lines((f"{t}\t{p}" for t, p in sorted(lexicon.entries.items())), path)


def stream_corpus(
    path: str | Path,
    lexicon: EmoticonLexicon,
    window: CorpusWindow,
    split: str = "all",
) -> Iterator[Tweet]:
    """Yield tweets whose timestamp falls in the requested split, in file order.

    ``all`` parses every line. For the ``train`` and ``test`` splits, a line
    whose timestamp field reads as outside the split is skipped without being
    parsed; the field is read by :func:`parse_tweet_line`'s rule, so a line
    whose timestamp it would reject is parsed and raises :class:`ParseError`
    at its line.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    with open_corpus(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if split == "all":
                tweet = parse_tweet_line(line, lexicon, line_no)
                if window.contains(tweet.timestamp, split):
                    yield tweet
                continue
            fields = line.split("\t", 3)
            timestamp = _read_timestamp(fields[2]) if len(fields) > 2 else None
            if timestamp is None or window.contains(timestamp, split):
                yield parse_tweet_line(line, lexicon, line_no)
