import pytest

from sentpop.corpus import EmoticonLexicon, parse_tweet_line


@pytest.fixture
def lexicon() -> EmoticonLexicon:
    return EmoticonLexicon(
        {
            "[smile]": "positive",
            "[laugh]": "positive",
            "[cry]": "negative",
            "[angry]": "negative",
            "[meh]": "neutral",
        }
    )


def make_tweet(
    lexicon: EmoticonLexicon,
    text: str,
    user: str = "alice",
    tweet_id: str = "t1",
    timestamp: int = 100,
    retweet_of: str | None = None,
):
    retweet = retweet_of if retweet_of is not None else "-"
    return parse_tweet_line(f"{tweet_id}\t{user}\t{timestamp}\t{retweet}\t{text}", lexicon)


def assert_raises(call, error: type, message: str) -> None:
    """``call()`` raises ``error`` itself, not a subclass of it, with ``message`` as its text."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
