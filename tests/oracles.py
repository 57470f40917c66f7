"""Scalar reference implementations that the library's fast paths are checked against."""

import numpy as np

from sentpop.sentiment import tweet_sentiment, user_phrase_sentiment


def raw_scan_vectors(members, topics, tweets_by_user, mean_over_matching=False):
    """Per-topic, per-phrase ``phrase in text`` scan; the definition ``catalog_vectors`` meets."""
    out = {}
    for topic in topics:
        vectors = {}
        for user in sorted(set(members)):
            tweets = tweets_by_user.get(user, ())
            if not tweets:
                continue
            if mean_over_matching:
                values = np.array(
                    [user_phrase_sentiment(tweets, p, True) for p in topic.key_phrases],
                    dtype=np.float64,
                )
            else:
                scored = [
                    (t.text, tweet_sentiment(t.emoticon_counts.pos, t.emoticon_counts.neg))
                    for t in tweets
                    if t.emoticon_counts.pos + t.emoticon_counts.neg > 0
                ]
                values = np.array(
                    [sum(s for text, s in scored if p in text) for p in topic.key_phrases],
                    dtype=np.float64,
                )
                values /= len(tweets)
            if np.any(values != 0.0):
                vectors[user] = values
        out[topic.hashtag] = vectors
    return out
