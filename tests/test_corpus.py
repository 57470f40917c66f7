"""Corpus and lexicon parsing tests."""

import ast
import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sentpop.corpus
from sentpop.cli import main
from sentpop.corpus import (
    NO_RETWEET,
    SPLITS,
    CorpusWindow,
    EmoticonCounts,
    EmoticonLexicon,
    GraphFields,
    LexiconError,
    ParseError,
    SentimentFields,
    TopicFields,
    Tweet,
    format_tweet_line,
    graph_fields,
    load_lexicon,
    parse_tweet_line,
    read_normalized,
    save_lexicon,
    sentiment_fields,
    stream_corpus,
    topic_fields,
)
from sentpop.manifest import write_lines

from conftest import assert_raises, make_tweet


class TestParseTweetLine:
    def test_hashtags_and_emoticons(self, lexicon):
        t = make_tweet(lexicon, "great #Rio2016# [smile][smile][cry]")
        assert t.hashtags == ("Rio2016",)
        assert t.emoticon_counts == EmoticonCounts(2, 1)

    def test_plain_text(self, lexicon):
        t = make_tweet(lexicon, "nothing interesting here")
        assert t.hashtags == ()
        assert t.emoticon_counts == (0, 0)

    def test_multiple_hashtags(self, lexicon):
        t = make_tweet(lexicon, "#a# mid #b#")
        assert t.hashtags == ("a", "b")

    def test_unpaired_trailing_hash(self, lexicon):
        assert make_tweet(lexicon, "dangling #tag").hashtags == ()

    def test_mentions_terminated_by_punctuation(self, lexicon):
        t = make_tweet(lexicon, "hi @bob, also @carol_9!")
        assert t.mentions == ("bob", "carol_9")

    def test_unknown_bracket_token_ignored(self, lexicon):
        t = make_tweet(lexicon, "odd [nosuch] [smile]")
        assert t.emoticon_counts == (1, 0)

    def test_neutral_not_counted(self, lexicon):
        t = make_tweet(lexicon, "[meh][meh][cry]")
        assert t.emoticon_counts == (0, 1)

    def test_retweet_field(self, lexicon):
        assert make_tweet(lexicon, "x", retweet_of="bob").retweet_of == "bob"
        assert make_tweet(lexicon, "x").retweet_of is None

    def test_malformed_line_reports_line_number(self, lexicon):
        with pytest.raises(ParseError, match="line 7"):
            parse_tweet_line("only\tthree\tfields", lexicon, line_no=7)

    def test_bad_timestamp(self, lexicon):
        with pytest.raises(ParseError, match="timestamp"):
            parse_tweet_line("id\tu\tnot_a_number\t-\ttext", lexicon, line_no=1)

    # int() reads each of these as a number
    @pytest.mark.parametrize("ts", ["1_0", "\u0661\u0662", " +7 "],
                             ids=["underscore", "arabic-indic-digits", "plus-and-spaces"])
    def test_other_timestamp_spellings_rejected(self, lexicon, ts):
        with pytest.raises(ParseError, match="bad timestamp"):
            parse_tweet_line(f"id\tu\t{ts}\t-\ttext", lexicon, line_no=1)

    def test_timestamp_is_an_optional_minus_and_ascii_digits(self, lexicon):
        assert make_tweet(lexicon, "x", timestamp=-7).timestamp == -7
        assert parse_tweet_line("id\tu\t007\t-\tx", lexicon).timestamp == 7


_ORACLE_LEXICON = EmoticonLexicon(
    {"[smile]": "positive", "[cry]": "negative", "[meh]": "neutral", "[日]": "positive"}
)
# words with and without each marker: lexicon and unknown bracket tokens, nested
# and empty brackets, paired and unpaired '#', mentions cut by punctuation,
# non-ASCII words and digits; rarely, a separator that a record must not hold
_PIECES = st.one_of(
    st.sampled_from([
        "[smile]", "[cry]", "[meh]", "[日]", "[nosuch]", "[", "]", "[]", "[a[b]", "[[smile]]",
        "#", "#tag#", "#two words#", "##", "@bob", "@", "@é_9,", "café", "東京", "naïve", "٣",
        " ", "x-y", "plain",
    ]),
    st.text(alphabet="ab é日٣#@[]-", max_size=4),
)
_TEXT = st.lists(_PIECES, max_size=8).map("".join)
_BAD_TEXT = st.tuples(_TEXT, st.sampled_from(["\t", "\r", "\n"]), _TEXT).map("".join)
_FIELD = st.sampled_from(["t1", "", "ü7", "u 2"])
_TIMESTAMP = st.one_of(
    st.integers(-10**6, 10**12).map(str), st.sampled_from(["", "x", "1.5", " 3", "٣٤", "1_0"])
)
_RECORDS = st.one_of(
    st.tuples(st.just("t1"), st.just("u"), st.integers(0, 10**10).map(str), st.just("-"), _TEXT),
    st.tuples(_FIELD, _FIELD, _TIMESTAMP, st.sampled_from(["-", "", "bob"]),
              st.one_of(_TEXT, _BAD_TEXT)),
    st.lists(_TEXT, max_size=7).map(tuple),  # any number of fields
)


@settings(max_examples=400, deadline=None)
@given(_RECORDS, st.sampled_from(["", "\n", "\r\n", "\r", "\n\r"]))
def test_parse_matches_the_plain_parser(fields, ending):
    """Equal tweets (same repr and hash) or the same ParseError, on well-formed and
    malformed records alike."""
    line = "\t".join(fields) + ending

    def outcome(parse):
        try:
            return parse(line, _ORACLE_LEXICON, 9)
        except ParseError as exc:
            return f"ParseError({exc}, {exc.line_no})"

    got, expected = outcome(parse_tweet_line), outcome(oracles.parse_tweet_line)
    assert got == expected
    assert repr(got) == repr(expected)
    if not isinstance(expected, str):
        assert hash(got) == hash(expected)
        assert type(got.emoticon_counts) is EmoticonCounts
        assert got._replace(text="x") == expected._replace(text="x")


# Stamps from -60 to 60 fall on both sides of each bound, zero and negatives included.
_PROJECTION_WINDOW = CorpusWindow(-50, 0, 0, 50)
_PROJECTIONS = ((GraphFields, graph_fields), (TopicFields, topic_fields),
                (SentimentFields, sentiment_fields(_ORACLE_LEXICON)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["u1", "\u00fc7", "u 2", "\u6771"]),
    st.integers(-60, 60),
    st.sampled_from([None, "bob", "\u00e9"]),
    _TEXT,
), max_size=12))
@example([("u1", -1, None, "#a# #b c#d# lone # @"),
          ("u 2", 0, "bob", "@! @\u00e9_9, [nosuch] [smile][\u65e5] @"),
          ("\u6771", -50, None, "caf\u00e9 \u6771\u4eac #\u0663#")])
def test_each_projection_is_the_parsed_tweet_cut_to_its_fields(records):
    """On the lines ingest writes, each split of each projection equals the parser's
    tweets of that split with only the projection's fields, under the same names."""
    tweets = [
        parse_tweet_line(f"i{n}\t{user}\t{ts}\t{retweet or NO_RETWEET}\t{text}", _ORACLE_LEXICON)
        for n, (user, ts, retweet, text) in enumerate(records)
    ]
    written = [t for t in tweets if _PROJECTION_WINDOW.contains(t.timestamp, "all")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus_normalized.tsv"
        write_lines(map(format_tweet_line, written), path)
        for split in SPLITS:
            expected = [t for t in written if _PROJECTION_WINDOW.contains(t.timestamp, split)]
            for record, project in _PROJECTIONS:
                assert set(record._fields) <= set(Tweet._fields)
                got = list(read_normalized(path, _PROJECTION_WINDOW, split, project))
                assert got == [tuple(getattr(t, f) for f in record._fields) for t in expected]
                assert all(type(r) is record for r in got)
                if record is SentimentFields:
                    assert all(type(r.emoticon_counts) is EmoticonCounts for r in got)


_INGEST_WINDOW = CorpusWindow(-100, 0, 0, 100)
_INGEST_LEXICON = EmoticonLexicon({"[smile]": "positive"})


def _ingest(corpus: Path, window: CorpusWindow) -> tuple[int, str]:
    """Run ``ingest`` on ``corpus`` into its directory; return its exit code and stderr."""
    out = corpus.parent
    save_lexicon(_INGEST_LEXICON, out / "lexicon.tsv")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["ingest", "--out", str(out), "--corpus", str(corpus),
                     "--lexicon", str(out / "lexicon.tsv"),
                     "--window=" + ",".join(map(str, window))])
    return code, stderr.getvalue()


# records of 5 fields, well-formed or not, of 4 or 6, and lines with nothing but
# spaces and tabs, or nothing at all; the id "t" is made unique by its line
# number, so that only "dup" repeats an id
_RAW_RECORDS = st.one_of(
    st.tuples(st.sampled_from(["t", "dup"]), st.sampled_from(["u", "\u00fc7", "u 2"]),
              st.one_of(st.integers(-150, 150).map(str), st.sampled_from(["-0", "007"])),
              st.sampled_from(["-", "bob"]), _TEXT),
    st.tuples(st.sampled_from(["t", ""]), _FIELD,
              st.sampled_from(["1_0", " +7 ", "\u0663", "-0", "007", "", "12"]),
              st.sampled_from(["-", "", "bob"]),
              st.one_of(_TEXT, st.tuples(_TEXT, st.just("\r"), _TEXT).map("".join))),
    st.lists(_TEXT, min_size=4, max_size=4).map(tuple),
    st.lists(_TEXT, min_size=6, max_size=6).map(tuple),
    st.sampled_from([("",), (" ",), ("",) * 5, (" ", "\t", "  ", "", " "), (" \t ",)]),
)


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.tuples(_RAW_RECORDS, st.sampled_from(["\n", "\r\n"])), max_size=4),
       last_ending=st.sampled_from([None, "", "\r"]))
@example(records=[((" ", "\t", "  ", "", " "), "\n")], last_ending=None)
@example(records=[(("dup", "u", "150", "-", "out"), "\n"), (("dup", "u", "5", "-", "in"), "\r\n")],
         last_ending=None)
@example(records=[(("t", "u", "5", "-", "one"), "\n"), (("t", "u", "6", "-", "two"), "\n")],
         last_ending="\r")
@example(records=[(("t", "u", "5", "-", "one"), "\n"), (("",), "\n")], last_ending="")
def test_ingest_writes_the_parsers_line_or_raises_its_error(records, last_ending):
    """ingest writes format_tweet_line(parse_tweet_line(line)) for each line in the
    window, or stops with the parser's ParseError, the file's path and the line
    number in front; and stream_corpus yields, in each split, the parsed tweets of
    the lines that ingest wrote, or raises the same error. The file's last line may
    also end without a newline, or in a carriage return alone."""
    if records and last_ending is not None:
        records = [*records[:-1], (records[-1][0], last_ending)]
    lines = [
        "\t".join((f"t{n}" if fields[0] == "t" else fields[0], *fields[1:])) + ending
        for n, (fields, ending) in enumerate(records, start=1)
    ]
    expected, error, first_line = [], None, {}
    for line_no, line in enumerate(lines, start=1):
        if line in ("\n", "\r\n", ""):
            # only a line with nothing before its end is skipped; an empty
            # last line without one is not in the file at all
            continue
        try:
            tweet = parse_tweet_line(line, _INGEST_LEXICON, line_no)
            seen = first_line.setdefault(tweet.id, line_no)
            if seen != line_no:
                raise ParseError(f"duplicate tweet id {tweet.id!r}, first on line {seen}",
                                 line_no)
        except ParseError as exc:
            error = str(exc)
            break
        if _INGEST_WINDOW.contains(tweet.timestamp, "all"):
            expected.append(format_tweet_line(tweet) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "corpus.tsv"
        raw.write_text("".join(lines), encoding="utf-8", newline="")
        code, stderr = _ingest(raw, _INGEST_WINDOW)
        if error is not None:
            error = f"{raw}: {error}"
            assert (code, stderr) == (1, f"error: {error}\n")
            for split in SPLITS:
                assert_raises(lambda: list(stream_corpus(raw, _INGEST_LEXICON, _INGEST_WINDOW,
                                                         split)), ParseError, error)
            return
        assert (code, stderr) == (0, "")
        written = (Path(tmp) / "corpus_normalized.tsv").read_text(encoding="utf-8")
        assert written == "".join(expected)
        tweets = [parse_tweet_line(line, _INGEST_LEXICON) for line in expected]
        for split in SPLITS:
            assert list(stream_corpus(raw, _INGEST_LEXICON, _INGEST_WINDOW, split)) == [
                t for t in tweets if _INGEST_WINDOW.contains(t.timestamp, split)
            ]


# Hand-written reference tokenizer: walk the text and collect spans between
# alternating '#' characters. Deliberately different from the regex path.
def _reference_hashtags(text: str) -> list[str]:
    tags = []
    inside = False
    current = []
    for ch in text:
        if ch == "#":
            if inside and current:
                tags.append("".join(current))
            inside = not inside
            current = []
        elif inside:
            current.append(ch)
    return tags


HASHTAG_FIXTURE = [
    "plain text with no tags",
    "#one#",
    "#a# mid #b#",
    "leading text #tag# trailing",
    "#x##y#",
    "unpaired # alone",
    "#start# then # stray",
    "text # #inner# #",
    "##",
    "# #",
    "#multi word tag# ok",
    "#a#b#c#",
    "no tags but @mention",
    "#1# #2# #3#",
    "tail #last#",
    "#dup# #dup#",
    "between#glued#words",
    "#",
    "nothing",
    "#final one# #final two#",
]


def test_hashtags_match_reference_tokenizer(lexicon):
    for i, text in enumerate(HASHTAG_FIXTURE):
        got = list(make_tweet(lexicon, text, tweet_id=f"f{i}").hashtags)
        assert got == _reference_hashtags(text), text


def test_emoticon_count_totals_match_occurrences(lexicon):
    texts = [
        "[smile] [cry] [meh] [nosuch]",
        "[laugh][laugh][laugh]",
        "none at all",
        "[angry] text [smile] more [meh][meh]",
    ]
    for text in texts:
        t = make_tweet(lexicon, text)
        occurrences = sum(
            text.count(token) for token, p in lexicon.entries.items() if p != "neutral"
        )
        assert sum(t.emoticon_counts) == occurrences


def test_round_trip_serialization(lexicon):
    texts = ["plain", "#a# @bob [smile]", "tag#mid#stuff [cry][meh]"]
    for i, text in enumerate(texts):
        t = make_tweet(lexicon, text, tweet_id=f"r{i}", retweet_of="bob" if i else None)
        assert parse_tweet_line(format_tweet_line(t), lexicon) == t


@pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\rb"])
def test_format_rejects_text_that_would_not_read_back(lexicon, text):
    t = make_tweet(lexicon, "plain")._replace(text=text)
    with pytest.raises(ValueError, match="may not contain"):
        format_tweet_line(t)


class TestLexicon:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("[smile]\tpositive\n[cry]\tnegative\n")
        assert len(load_lexicon(path)) == 2

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("[smile]\tpositive\n[smile]\tnegative\n")
        with pytest.raises(LexiconError, match="duplicate"):
            load_lexicon(path)

    def test_unknown_polarity_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("[smile]\thappyish\n")
        with pytest.raises(LexiconError, match="polarity"):
            load_lexicon(path)

    @pytest.mark.parametrize("token", ["smile", "[a]b]", "[]", "[smile] ", "[[smile]]"])
    def test_token_no_text_could_count_is_rejected(self, tmp_path, token):
        path = tmp_path / "lex.tsv"
        path.write_text(f"[cry]\tnegative\n{token}\tpositive\n")
        with pytest.raises(LexiconError, match=rf"^{re.escape(str(path))}: line 2: token .* "
                                               "not one bracketed emoticon"):
            load_lexicon(path)
        with pytest.raises(LexiconError, match="not one bracketed emoticon"):
            EmoticonLexicon({"[cry]": "negative", token: "positive"})

    def test_full_sized_lexicon(self, tmp_path):
        # same scale as the SINA Weibo emoticon set
        path = tmp_path / "lex.tsv"
        rows = [f"[e{i:03d}]\t{['positive','negative','neutral'][i % 3]}" for i in range(436)]
        path.write_text("\n".join(rows) + "\n")
        assert len(load_lexicon(path)) == 436

    def test_leading_byte_order_mark_is_not_read_into_the_first_token(self, tmp_path):
        # "\ufeff[n0]" was once rejected as a token that is not one bracketed emoticon
        text = "[n0]\tnegative\n[p0]\tpositive\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf[n0]")
        assert load_lexicon(marked).entries == load_lexicon(plain).entries

    def test_lexicon_is_immutable(self, lexicon):
        for change in (lambda: setattr(lexicon, "entries", {}),
                       lambda: delattr(lexicon, "entries"),
                       lambda: setattr(lexicon, "extra", 1)):
            with pytest.raises(AttributeError):
                change()
        assert len(lexicon) == 5

    def test_empty_lexicon_counts_nothing(self):
        assert EmoticonLexicon({}).count("[smile] [cry] [cry]") == (0, 0)


class TestStreamCorpus:
    WINDOW = CorpusWindow(train_start=0, train_end=100, test_start=100, test_end=200)

    def _write(self, tmp_path, timestamps):
        path = tmp_path / "corpus.tsv"
        lines = [f"id{i}\tu{i}\t{ts}\t-\ttext {i}" for i, ts in enumerate(timestamps)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_split_counts(self, tmp_path, lexicon):
        path = self._write(tmp_path, [10, 20, 99, 150, 199])
        assert len(list(stream_corpus(path, lexicon, self.WINDOW, "train"))) == 3
        assert len(list(stream_corpus(path, lexicon, self.WINDOW, "test"))) == 2
        assert len(list(stream_corpus(path, lexicon, self.WINDOW, "all"))) == 5

    def test_half_open_boundary(self, tmp_path, lexicon):
        # exactly at train_end: excluded from [train_start, train_end), so it
        # lands on the test side when the intervals touch
        path = self._write(tmp_path, [100])
        assert list(stream_corpus(path, lexicon, self.WINDOW, "train")) == []
        assert len(list(stream_corpus(path, lexicon, self.WINDOW, "test"))) == 1

    def test_outside_both_windows(self, tmp_path, lexicon):
        window = CorpusWindow(0, 50, 100, 200)
        path = self._write(tmp_path, [75])
        assert list(stream_corpus(path, lexicon, window, "all")) == []

    def test_order_is_file_order(self, tmp_path, lexicon):
        path = self._write(tmp_path, [30, 10, 20])
        ids = [t.id for t in stream_corpus(path, lexicon, self.WINDOW, "train")]
        assert ids == ["id0", "id1", "id2"]

    def test_deterministic(self, tmp_path, lexicon):
        path = self._write(tmp_path, [10, 20, 30])
        a = list(stream_corpus(path, lexicon, self.WINDOW, "train"))
        b = list(stream_corpus(path, lexicon, self.WINDOW, "train"))
        assert a == b

    def test_lone_carriage_return_is_an_error_on_its_own_line(self, tmp_path, lexicon):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\tu\t10\t-\tone\nb\tu\t20\t-\ttwo\nc\tu\t30\t-\tth\rree\nd\tu\t40\t-\tx\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: carriage return"):
            list(stream_corpus(path, lexicon, self.WINDOW, "train"))

    # a record outside the split, or one whose timestamp cannot be read, is still checked
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("record, message", [
        ("c\tu\tsoon\t-\tthree", "bad timestamp 'soon'"),
        ("c\tu", "expected 5 tab-separated fields, got 2"),
        ("c\tu\t1\r0\t-\tthree", "carriage return inside the record"),
        ("c\tu\t250\t-\tthree\tfour", "expected 5 tab-separated fields, got 6"),
        ("\tu\t250\t-\tthree", "empty id or user field"),
        ("a\tu\t250\t-\tthree", "duplicate tweet id 'a', first on line 1"),
    ], ids=["bad-timestamp", "short-record", "carriage-return", "outside-six-fields",
            "outside-empty-id", "outside-repeated-id"])
    def test_unreadable_timestamp_still_raises_at_its_line(
        self, tmp_path, lexicon, split, record, message
    ):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tu\t10\t-\tone\nb\tu\t150\t-\ttwo\n{record}\n", newline="")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: {message}"):
            list(stream_corpus(path, lexicon, self.WINDOW, split))

    # int() reads each as 150, in the test interval; the parser takes none of them
    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("ts", ["1_50", " 150", "+150", "150 ", "\u0661\u0665\u0660"],
                             ids=["underscore", "leading-space", "plus", "trailing-space",
                                  "arabic-indic-digits"])
    def test_a_timestamp_the_parser_rejects_raises_in_every_split(
        self, tmp_path, lexicon, split, ts
    ):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tu\t10\t-\tone\nb\tu\t{ts}\t-\ttwo\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: "
                                             f"bad timestamp {re.escape(repr(ts))}$"):
            list(stream_corpus(path, lexicon, self.WINDOW, split))

    @pytest.mark.parametrize("split", SPLITS)
    def test_empty_and_crlf_only_lines_are_skipped(self, tmp_path, lexicon, split):
        path = tmp_path / "corpus.tsv"
        path.write_text("\na\tu\t10\t-\tone\n\r\nb\tu\t150\t-\ttwo\n\n\r\n",
                        encoding="utf-8", newline="")
        ids = [t.id for t in stream_corpus(path, lexicon, self.WINDOW, split)]
        assert ids == {"train": ["a"], "test": ["b"], "all": ["a", "b"]}[split]

    # a line of spaces and tabs is a record, not a blank line
    @pytest.mark.parametrize("reader", [*SPLITS, "ingest"])
    @pytest.mark.parametrize("record, message", [
        ("\t\t\t\t", "empty id or user field"),
        (" \t \t \t \t ", "bad timestamp ' '"),
        (" \t ", "expected 5 tab-separated fields, got 2"),
    ], ids=["tabs", "spaces-and-tabs", "spaces-and-a-tab"])
    def test_a_whitespace_only_line_raises_at_its_line(
        self, tmp_path, lexicon, reader, record, message
    ):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tu\t10\t-\tone\n{record}\nb\tu\t150\t-\ttwo\n", encoding="utf-8")
        if reader == "ingest":
            assert _ingest(path, self.WINDOW) == (1, f"error: {path}: line 2: {message}\n")
            assert not (tmp_path / "corpus_normalized.tsv").exists()
        else:
            assert_raises(lambda: list(stream_corpus(path, lexicon, self.WINDOW, reader)),
                          ParseError, f"{path}: line 2: {message}")

    def test_crlf_line_ends_read_like_lf(self, tmp_path, lexicon):
        lf = self._write(tmp_path, [10, 20, 150])
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert list(stream_corpus(crlf, lexicon, self.WINDOW, "all")) == list(
            stream_corpus(lf, lexicon, self.WINDOW, "all")
        )


def test_window_validation():
    with pytest.raises(ValueError, match="train_start < train_end <= test_start < test_end"):
        CorpusWindow(train_start=0, train_end=0, test_start=10, test_end=20)
    with pytest.raises(ValueError):
        CorpusWindow(train_start=0, train_end=50, test_start=40, test_end=60)
    window = CorpusWindow(0, 50, 50, 60)
    with pytest.raises(ValueError):
        window._replace(train_end=70)
    with pytest.raises(AttributeError):
        window.train_end = 10


def _callers(name: str) -> set[tuple[str, str]]:
    """(file, top-level function) of every call to ``name`` in the package source."""
    package = Path(sentpop.corpus.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_only_ingest_and_the_two_corpus_readers_open_a_corpus():
    # outside_records is the one reader of a file from outside the run: the
    # corpus (checked_records, for ingest and stream_corpus), the lexicon and
    # the stopwords; every stage after ingest, and synth reading back its own
    # lines, reads a written corpus through read_normalized
    assert _callers("open_corpus") == {("corpus.py", "read_normalized")}
    assert _callers("outside_records") == {
        ("corpus.py", "checked_records"), ("corpus.py", "load_lexicon"),
        ("topics.py", "load_stopwords"),
    }
    # besides the two readers, every open is of bytes to digest, of an artifact
    # the run writes or wrote, or of the manifest
    assert _callers("open") == {
        ("corpus.py", "open_corpus"), ("corpus.py", "outside_records"),
        ("manifest.py", "file_digest"), ("manifest.py", "write_lines"),
        ("manifest.py", "read_rows"), ("manifest.py", "RunManifest"), ("synth.py", "_generate"),
    }
    assert _callers("checked_records") == {
        ("cli.py", "cmd_ingest"), ("corpus.py", "stream_corpus")
    }
    assert _callers("check_tweet_fields") == {
        ("corpus.py", "checked_records"), ("corpus.py", "parse_tweet_line")
    }
    assert _callers("read_normalized") == {
        ("cli.py", "cmd_graph"), ("cli.py", "cmd_topics"), ("cli.py", "cmd_sentiment"),
        ("synth.py", "_generate"),
    }


def _lexicon_file(tmp_path, text):
    path = tmp_path / "lex.tsv"
    path.write_text(text, encoding="utf-8")
    return path


_WINDOW = CorpusWindow(0, 10, 10, 20)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: EmoticonLexicon({"[x]": "happy"}), LexiconError,
                 "unknown polarity 'happy' for '[x]'", id="lexicon-polarity"),
    pytest.param(lambda tmp: _WINDOW.contains(5, "both"), ValueError,
                 "unknown split 'both'", id="window-split"),
    pytest.param(lambda tmp: next(stream_corpus(tmp / "corpus.tsv", EmoticonLexicon({}),
                                                _WINDOW, "both")),
                 ValueError, "split must be one of ('train', 'test', 'all'), got 'both'",
                 id="stream-split"),
    pytest.param(lambda tmp: next(read_normalized(tmp / "corpus.tsv", _WINDOW, "both",
                                                  graph_fields)),
                 ValueError, "split must be one of ('train', 'test', 'all'), got 'both'",
                 id="normalized-split"),
    pytest.param(lambda tmp: load_lexicon(_lexicon_file(tmp, "[x]\tpositive\textra\n")),
                 LexiconError, "{tmp}/lex.tsv: line 1: expected 2 fields, got 3",
                 id="lexicon-fields-3"),
    pytest.param(lambda tmp: load_lexicon(_lexicon_file(tmp, "[y]\tnegative\n[x]\n")),
                 LexiconError, "{tmp}/lex.tsv: line 2: expected 2 fields, got 1",
                 id="lexicon-fields-1"),
])
def test_rejected_input_raises_its_message(tmp_path, call, error, message):
    assert_raises(lambda: call(tmp_path), error, message.format(tmp=tmp_path))
