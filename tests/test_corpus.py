"""Corpus and lexicon parsing tests."""

import dataclasses

import pytest

from sentpop.corpus import (
    CorpusWindow,
    EmoticonCounts,
    LexiconError,
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
        assert t.emoticon_counts == EmoticonCounts(2, 1, 0)

    def test_plain_text(self, lexicon):
        t = make_tweet(lexicon, "nothing interesting here")
        assert t.hashtags == ()
        assert t.emoticon_counts == (0, 0, 0)

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
        assert t.emoticon_counts == (1, 0, 0)

    def test_neutral_counted_separately(self, lexicon):
        t = make_tweet(lexicon, "[meh][meh][cry]")
        assert t.emoticon_counts == (0, 1, 2)

    def test_retweet_field(self, lexicon):
        assert make_tweet(lexicon, "x", retweet_of="bob").retweet_of == "bob"
        assert make_tweet(lexicon, "x").retweet_of is None

    def test_malformed_line_reports_line_number(self, lexicon):
        with pytest.raises(ParseError, match="line 7"):
            parse_tweet_line("only\tthree\tfields", lexicon, line_no=7)

    def test_bad_timestamp(self, lexicon):
        with pytest.raises(ParseError, match="timestamp"):
            parse_tweet_line("id\tu\tnot_a_number\t-\ttext", lexicon, line_no=1)


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
        occurrences = sum(text.count(token) for token in lexicon.entries)
        assert sum(t.emoticon_counts) == occurrences


def test_round_trip_serialization(lexicon):
    texts = ["plain", "#a# @bob [smile]", "tag#mid#stuff [cry][meh]"]
    for i, text in enumerate(texts):
        t = make_tweet(lexicon, text, tweet_id=f"r{i}", retweet_of="bob" if i else None)
        assert parse_tweet_line(format_tweet_line(t), lexicon) == t


@pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\rb"])
def test_format_rejects_text_that_would_not_read_back(lexicon, text):
    t = dataclasses.replace(make_tweet(lexicon, "plain"), text=text)
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

    def test_full_sized_lexicon(self, tmp_path):
        # same scale as the SINA Weibo emoticon set
        path = tmp_path / "lex.tsv"
        rows = [f"[e{i:03d}]\t{['positive','negative','neutral'][i % 3]}" for i in range(436)]
        path.write_text("\n".join(rows) + "\n")
        assert len(load_lexicon(path)) == 436


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

    def test_crlf_line_ends_read_like_lf(self, tmp_path, lexicon):
        lf = self._write(tmp_path, [10, 20, 150])
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert list(stream_corpus(crlf, lexicon, self.WINDOW, "all")) == list(
            stream_corpus(lf, lexicon, self.WINDOW, "all")
        )


def test_window_validation():
    with pytest.raises(ValueError):
        CorpusWindow(train_start=0, train_end=0, test_start=10, test_end=20)
    with pytest.raises(ValueError):
        CorpusWindow(train_start=0, train_end=50, test_start=40, test_end=60)
