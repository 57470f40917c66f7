"""Tweet corpus and emoticon lexicon parsing.

Corpus files are UTF-8 with one record per line:
``id<TAB>user<TAB>timestamp<TAB>retweet_of_or_dash<TAB>text``.
Hashtags, mentions and emoticon counts are extracted from the text at parse
time, so a serialized tweet always round-trips to identical fields.

Every file from outside the run (corpus, lexicon, stopwords) is read through
:func:`outside_records`, which holds the one line rule and names the file and
the line in every error. A corpus from outside is checked only by
:func:`checked_records`, for ``ingest`` and :func:`stream_corpus`. The corpus
that ``ingest`` writes is not checked again: the stages after it read it
through :func:`read_normalized`, which derives only the fields each uses.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple, TextIO, TypeVar

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

# A checked record: (id, user, timestamp, retweet_of or None, text).
CheckedFields = tuple[str, str, int, str | None, str]


class ParseError(ValueError):
    """A malformed line of a file from outside the run: ``<path>: line N: <what>``, as known."""

    def __init__(self, what: str, line_no: int | None = None, path: str | Path | None = None):
        self.what = what
        self.line_no = line_no
        message = what if line_no is None else f"line {line_no}: {what}"
        super().__init__(message if path is None else f"{path}: {message}")


class LexiconError(ParseError):
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


def is_integer(text: str) -> bool:
    """An optional ``-`` then ASCII digits; ``int()`` would also take ``1_0`` or `` +7 ``."""
    return text.isascii() and text.removeprefix("-").isdigit()


def _record(line: str, line_no: int | None, error: type[ParseError] = ParseError) -> str:
    """``line`` without its line end, which is ``\n`` or ``\r\n``; any other ``\r`` is an error."""
    record = line.removesuffix("\n")
    if "\r" in record:
        # only a carriage return just before the line's newline ends the record
        if len(record) < len(line):
            record = record.removesuffix("\r")
        if "\r" in record:
            raise error("carriage return inside the record", line_no)
    return record


def check_tweet_fields(record: str, line_no: int | None = None) -> CheckedFields:
    """Check one record (a line without its end); return ``(id, user, timestamp, retweet_of, text)``.

    Raises :class:`ParseError` (carrying ``line_no``) for malformed records.
    """
    fields = record.split("\t")
    if len(fields) != 5:
        raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line_no)
    tweet_id, user, ts_raw, retweet_raw, text = fields
    if not tweet_id or not user:
        raise ParseError("empty id or user field", line_no)
    if not is_integer(ts_raw):
        raise ParseError(f"bad timestamp {ts_raw!r}", line_no)
    timestamp = int(ts_raw)
    retweet_of = None if retweet_raw == NO_RETWEET else retweet_raw
    if retweet_of == "":
        raise ParseError("empty retweet field (use '-' for none)", line_no)
    return tweet_id, user, timestamp, retweet_of, text


# Each scan needs its marker character to match, so a text without it skips
# the regex.
def _hashtags(text: str) -> tuple[str, ...]:
    return tuple(_HASHTAG_RE.findall(text)) if "#" in text else ()


def _mentions(text: str) -> tuple[str, ...]:
    return tuple(_MENTION_RE.findall(text)) if "@" in text else ()


def _derive_tweet(fields: CheckedFields, lexicon: EmoticonLexicon) -> Tweet:
    """The :class:`Tweet` of fields that :func:`check_tweet_fields` returned."""
    tweet_id, user, timestamp, retweet_of, text = fields
    return Tweet(
        id=tweet_id,
        user=user,
        timestamp=timestamp,
        text=text,
        hashtags=_hashtags(text),
        mentions=_mentions(text),
        retweet_of=retweet_of,
        emoticon_counts=lexicon.count(text),
    )


def parse_tweet_line(
    line: str, lexicon: EmoticonLexicon, line_no: int | None = None
) -> Tweet:
    """Parse one corpus line into a :class:`Tweet`: check its fields, then derive the rest.

    The line may end in ``\n`` or ``\r\n``. Raises :class:`ParseError`
    (carrying ``line_no``) for malformed records.
    """
    return _derive_tweet(check_tweet_fields(_record(line, line_no), line_no), lexicon)


def format_tweet_fields(
    tweet_id: str, user: str, timestamp: int, retweet_of: str | None, text: str
) -> str:
    """The corpus line (no newline) of fields that :func:`check_tweet_fields` returned."""
    retweet = NO_RETWEET if retweet_of is None else retweet_of
    return f"{tweet_id}\t{user}\t{timestamp}\t{retweet}\t{text}"


def format_tweet_line(tweet: Tweet) -> str:
    """Serialize a tweet back to the corpus line format (no newline)."""
    if "\t" in tweet.text or "\n" in tweet.text or "\r" in tweet.text:
        raise ValueError("tweet text may not contain tab, newline or carriage return")
    return format_tweet_fields(tweet.id, tweet.user, tweet.timestamp, tweet.retweet_of, tweet.text)


def open_corpus(path: str | Path) -> TextIO:
    """Open a corpus for reading: lines split at ``\n`` only, so that a lone ``\r`` stays in its
    line to be rejected, and a leading byte-order mark dropped, not read into the first id."""
    return open(path, encoding="utf-8-sig", newline="\n")


def _numbered_records(raw: Iterable[bytes], error: type[ParseError]) -> Iterator[tuple[int, str]]:
    # each line is decoded alone, so the first fault in file order is the one
    # raised; no UTF-8 sequence holds a 0x0a byte, so the lines are the text's
    for line_no, data in enumerate(raw, start=1):
        try:
            line = data.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            bad = " ".join(f"0x{b:02x}" for b in exc.object[exc.start : exc.end])
            raise error(f"not UTF-8: {exc.reason} ({bad})", line_no) from None
        record = line.removesuffix("\n")
        if "\r" in record:  # the rule, called only for a line that holds a "\r"
            record = _record(line, line_no, error)
        if record:
            yield line_no, record


@contextmanager
def outside_records(
    path: str | Path, error: type[ParseError] = ParseError
) -> Iterator[Iterator[tuple[int, str]]]:
    """``with outside_records(path) as records``: a file from outside the run, as
    ``(line_no, record)`` for each line that is not empty.

    Lines split at ``\n`` only, and a byte-order mark that starts the file is
    dropped. A record is its line without the line end, ``\n`` or ``\r\n``;
    any other carriage return, or bytes that are not UTF-8, raise ``error`` at
    the line. Each :class:`ParseError` raised in the block leaves it with
    ``path`` in front.
    """
    try:
        with open(path, "rb") as raw:
            yield _numbered_records(raw, error)
    except ParseError as exc:
        raise type(exc)(exc.what, exc.line_no, path) from None


def load_lexicon(path: str | Path) -> EmoticonLexicon:
    """Load a ``token<TAB>polarity`` TSV lexicon. A duplicate token, an unknown polarity, a
    token that is not one bracketed emoticon (``smile``, ``[a]b]``) and a fault of
    :func:`outside_records` raise :class:`LexiconError` naming the file and the line."""
    entries: dict[str, str] = {}
    with outside_records(path, LexiconError) as records:
        for line_no, record in records:
            fields = record.split("\t")
            if len(fields) != 2:
                raise LexiconError(f"expected 2 fields, got {len(fields)}", line_no)
            token, polarity = fields
            if not _EMOTICON_RE.fullmatch(token):
                raise LexiconError(_NOT_BRACKETED.format(token), line_no)
            if polarity not in POLARITIES:
                raise LexiconError(f"unknown polarity {polarity!r}", line_no)
            if token in entries:
                raise LexiconError(f"duplicate token {token!r}", line_no)
            entries[token] = polarity
    return EmoticonLexicon(entries)


def save_lexicon(lexicon: EmoticonLexicon, path: str | Path) -> int:
    """Write ``token<TAB>polarity`` lines sorted by token; return the row count."""
    return write_lines((f"{t}\t{p}" for t, p in sorted(lexicon.entries.items())), path)


def checked_records(path: str | Path) -> Iterator[CheckedFields]:
    """Yield the checked fields of each record of a corpus from outside the run, in file order.

    A line of spaces and tabs is a record. A malformed record, an id that an earlier
    line holds and a fault of :func:`outside_records` raise :class:`ParseError`.
    """
    first_line: dict[str, int] = {}  # tweet id -> line it first appeared on
    with outside_records(path) as records:
        for line_no, record in records:
            fields = check_tweet_fields(record, line_no)
            seen = first_line.setdefault(fields[0], line_no)
            if seen != line_no:
                raise ParseError(f"duplicate tweet id {fields[0]!r}, first on line {seen}", line_no)
            yield fields


def stream_corpus(
    path: str | Path,
    lexicon: EmoticonLexicon,
    window: CorpusWindow,
    split: str = "all",
) -> Iterator[Tweet]:
    """Yield tweets whose timestamp falls in the requested split, in file order.

    Every split reads every record through :func:`checked_records`, so this
    accepts exactly the corpora that ``ingest`` accepts, and a bad record
    raises inside the split or not.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    for fields in checked_records(path):
        if window.contains(fields[2], split):
            yield _derive_tweet(fields, lexicon)


# The projections of read_normalized: each holds the fields of parse_tweet_line's
# Tweet that one stage reads, under the same names, so that the functions that
# take tweets (build_graph, extract_topics, catalog_vectors) take them too.
class GraphFields(NamedTuple):
    """``graph``'s fields of a tweet: its author, and whom it retweets and mentions."""

    user: str
    retweet_of: str | None
    mentions: tuple[str, ...]


class TopicFields(NamedTuple):
    """``topics``' fields of a test tweet: when it was posted, its hashtags and its text."""

    timestamp: int
    hashtags: tuple[str, ...]
    text: str


class SentimentFields(NamedTuple):
    """``sentiment``'s fields of a train tweet: its author, its emoticon counts and its text."""

    user: str
    emoticon_counts: EmoticonCounts
    text: str


def graph_fields(fields: list[str]) -> GraphFields:
    retweet = fields[3]
    return GraphFields(fields[1], None if retweet == NO_RETWEET else retweet, _mentions(fields[4]))


def topic_fields(fields: list[str]) -> TopicFields:
    text = fields[4]
    return TopicFields(int(fields[2]), _hashtags(text), text)


def sentiment_fields(lexicon: EmoticonLexicon) -> Callable[[list[str]], SentimentFields]:
    """The projection to :class:`SentimentFields`, with emoticons counted by ``lexicon``."""

    def project(fields: list[str]) -> SentimentFields:
        text = fields[4]
        return SentimentFields(fields[1], lexicon.count(text), text)

    return project


_Record = TypeVar("_Record")


def read_normalized(
    path: str | Path,
    window: CorpusWindow,
    split: str,
    project: Callable[[list[str]], _Record],
) -> Iterator[_Record]:
    """Yield ``project(fields)`` for each record of ``split`` in a corpus that ingest wrote.

    ``fields`` are the record's five tab-separated fields, as strings. The file
    must be one that ``ingest`` (or ``synth``) wrote and that has not changed
    since: each of its lines was checked, and its timestamp written as
    ``int`` writes it, before it was written; a stage verifies the file's
    digest before it reads it. So no line is checked again, and each record
    equals the projection of :func:`parse_tweet_line`'s tweet, in file order.
    ``ingest`` keeps only the lines inside the window, so ``all`` reads every
    line; the train and test splits read each line's timestamp.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    with open_corpus(path) as fh:
        if split == "all":
            for line in fh:
                yield project(line.removesuffix("\n").split("\t"))
            return
        start, end = window[:2] if split == "train" else window[2:]  # half-open, as in contains
        for line in fh:
            fields = line.removesuffix("\n").split("\t")
            if start <= int(fields[2]) < end:
                yield project(fields)
