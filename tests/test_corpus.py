"""Corpus and lexicon parsing tests."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sentpop.corpus
from sentpop.corpus import (
    CorpusWindow,
    EmoticonCounts,
    EmoticonLexicon,
    LexiconError,
    SPLITS,
    ParseError,
    format_tweet_line,
    load_lexicon,
    parse_tweet_line,
    stream_corpus,
)

from conftest import make_tweet


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
        with pytest.raises(LexiconError, match=r"^line 2: token .* not one bracketed emoticon"):
            load_lexicon(path)
        with pytest.raises(LexiconError, match="not one bracketed emoticon"):
            EmoticonLexicon({"[cry]": "negative", token: "positive"})

    def test_full_sized_lexicon(self, tmp_path):
        # same scale as the SINA Weibo emoticon set
        path = tmp_path / "lex.tsv"
        rows = [f"[e{i:03d}]\t{['positive','negative','neutral'][i % 3]}" for i in range(436)]
        path.write_text("\n".join(rows) + "\n")
        assert len(load_lexicon(path)) == 436

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
        with pytest.raises(ParseError, match="^line 3: carriage return"):
            list(stream_corpus(path, lexicon, self.WINDOW, "train"))

    def test_lines_outside_the_split_are_not_parsed(self, tmp_path, lexicon, monkeypatch):
        path = self._write(tmp_path, [10, 20, 99, 150, 199, 250])
        parsed = []
        real = sentpop.corpus.parse_tweet_line

        def counting(line, lex, line_no=None):
            parsed.append(line_no)
            return real(line, lex, line_no)

        monkeypatch.setattr(sentpop.corpus, "parse_tweet_line", counting)
        for split, lines in (("train", [1, 2, 3]), ("test", [4, 5]), ("all", [1, 2, 3, 4, 5, 6])):
            parsed.clear()
            tweets = list(stream_corpus(path, lexicon, self.WINDOW, split))
            assert [t.id for t in tweets] == [f"id{n - 1}" for n in lines if n != 6], split
            assert parsed == lines, split

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("record, message", [
        ("c\tu\tsoon\t-\tthree", "bad timestamp 'soon'"),
        ("c\tu", "expected 5 tab-separated fields, got 2"),
        ("c\tu\t1\r0\t-\tthree", "carriage return inside the record"),
    ], ids=["bad-timestamp", "short-record", "carriage-return"])
    def test_unreadable_timestamp_still_raises_at_its_line(
        self, tmp_path, lexicon, split, record, message
    ):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tu\t10\t-\tone\nb\tu\t150\t-\ttwo\n{record}\n", newline="")
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
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
        with pytest.raises(ParseError, match=f"^line 2: bad timestamp {re.escape(repr(ts))}$"):
            list(stream_corpus(path, lexicon, self.WINDOW, split))

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


def test_only_stream_corpus_and_ingest_open_a_corpus():
    # a stage that needs tweets reads them through stream_corpus
    assert _callers("open_corpus") == {("corpus.py", "stream_corpus"), ("cli.py", "cmd_ingest")}
