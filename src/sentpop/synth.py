"""Deterministic synthetic corpus generator with planted ground truth.

Generates a small corpus whose social graph, sentiment vectors and community
energies are fully determined by one seed. Topic popularity can be planted as
a linear function of the community energy (or of per-edge energies with
per-edge weights) and is realized as actual test-window tweets, so the whole
pipeline, hashtag counting included, can be exercised end to end against
known parameters.

Every user gets a latent stance per topic and emits emoticons consistent
with it; roughly ``emoticon_rate`` of tweets carry emoticons. The expected
values file records the planted parameters, each topic's community energy,
its exact (unrounded) target and the realized tweet count, and the largest
shift ``popularity - exact_target``, which making the popularities distinct
can make large.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ._lazy import np
from .corpus import CorpusWindow, EmoticonLexicon, save_lexicon, stream_corpus
from .manifest import atomic_write, atomic_write_text, read_rows, write_lines
from .energy import EnergyFunction, per_edge_energies
from .graph import Edge, SocialGraph, canonical_edge, extract_community
from .sentiment import catalog_vectors
from .topics import Topic

# Not called here: these stay importable from this module because
# perfbench/trace_stage.py times them where callers look them up.
from .corpus import parse_tweet_line  # noqa: F401
from .graph import build_graph  # noqa: F401
from .sentiment import community_topic_vectors, group_tweets_by_user  # noqa: F401

MONTH_SECONDS = 30 * 24 * 3600
SYNTH_WINDOW = CorpusWindow(
    train_start=0,
    train_end=4 * MONTH_SECONDS,
    test_start=4 * MONTH_SECONDS,
    test_end=6 * MONTH_SECONDS,
)
FIRST_TEST_MONTH_END = SYNTH_WINDOW.test_start + MONTH_SECONDS

MAX_TOTAL_TWEETS = 200_000
_N_FILLERS = 200
_N_STOPWORDS = 10

_POS_TOKENS = tuple(f"[p{i}]" for i in range(5))
_NEG_TOKENS = tuple(f"[n{i}]" for i in range(5))
_NEU_TOKENS = tuple(f"[z{i}]" for i in range(3))


class InfeasibleConfigError(ValueError):
    """The requested configuration cannot be realized as a corpus."""


def _check_planted(planted, *names: str) -> None:
    """Reject a non-finite planted parameter, or a negative ``noise_sigma``, by name."""
    for name in names:
        if not math.isfinite(getattr(planted, name)):
            raise ValueError(f"{name} must be finite")
    if not (math.isfinite(planted.noise_sigma) and planted.noise_sigma >= 0.0):
        raise ValueError("noise_sigma must be finite and non-negative")


@dataclass(frozen=True)
class PlantedLinear:
    """popularity ~ alpha * community_energy + beta + noise."""

    alpha: float
    beta: float
    noise_sigma: float = 0.0  # fraction of the mean noiseless popularity

    def __post_init__(self):
        _check_planted(self, "alpha", "beta")


@dataclass(frozen=True)
class PlantedEdgeWeights:
    """popularity ~ sum(omega_e * edge_energy_e) + rho + noise."""

    weight_lo: float
    weight_hi: float
    rho: float
    noise_sigma: float = 0.0

    def __post_init__(self):
        _check_planted(self, "weight_lo", "weight_hi", "rho")
        if self.weight_lo > self.weight_hi:
            raise ValueError("weight_lo must be <= weight_hi")


@dataclass(frozen=True)
class SynthConfig:
    rng_seed: int = 0
    n_users: int = 50
    edge_density: float = 0.1
    n_topics: int = 20
    m: int = 10
    emoticon_rate: float = 0.5
    planted: PlantedLinear | PlantedEdgeWeights | None = None
    tweets_per_user: int = 8
    care_range: tuple[float, float] = (0.15, 0.6)
    max_depth: int = 3
    popularity_range: tuple[int, int] = (100, 500)  # used when planted is None

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError("edge_density must be in (0, 1]")
        if not 0.0 <= self.emoticon_rate <= 1.0:
            raise ValueError("emoticon_rate must be in [0, 1]")
        if not 1 <= self.n_topics <= 999:
            raise ValueError("n_topics must be in [1, 999]")
        if not 1 <= self.m <= 99:
            raise ValueError("m must be in [1, 99]")
        if self.tweets_per_user < 1:
            raise ValueError("tweets_per_user must be >= 1")
        lo, hi = self.care_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("care_range must satisfy 0 <= lo <= hi <= 1")


@dataclass
class GeneratedCorpus:
    corpus_path: Path
    lexicon_path: Path
    stopwords_path: Path
    expected_path: Path
    window: CorpusWindow
    seed_user: str
    max_depth: int
    n_train_tweets: int
    n_test_tweets: int
    max_popularity_shift: float  # largest popularity - exact_target
    rows: dict[Path, int]  # each written file -> its line count


@dataclass(frozen=True)
class ExpectedTopic:
    hashtag: str
    energy: float
    exact_target: float
    popularity: int


@dataclass
class ExpectedValues:
    params: dict[str, str] = field(default_factory=dict)
    topics: list[ExpectedTopic] = field(default_factory=list)
    edge_weights: dict[Edge, float] = field(default_factory=dict)


def synthetic_lexicon() -> EmoticonLexicon:
    entries: dict[str, str] = {}
    for token in _POS_TOKENS:
        entries[token] = "positive"
    for token in _NEG_TOKENS:
        entries[token] = "negative"
    for token in _NEU_TOKENS:
        entries[token] = "neutral"
    return EmoticonLexicon(entries)


def _user_name(i: int) -> str:
    return f"u{i:05d}"


def _hashtag(k: int) -> str:
    return f"t{k:03d}"


def _phrases(k: int, m: int) -> tuple[str, ...]:
    # fixed-width names: lexicographic order equals planted order, and no
    # phrase is a substring of another
    return tuple(f"k{k:03d}p{n:02d}" for n in range(m))


_FILLERS = tuple(f"w{i:03d}" for i in range(_N_FILLERS))


def _filler(i: int) -> str:
    return _FILLERS[i % _N_FILLERS]


def _draw_edges(rng: np.random.Generator, users: Sequence[str], density: float) -> list[Edge]:
    """Erdos-Renyi pairs ``(users[i], users[j])``, ``i < j``, in row-major order.

    One row of pair coins per user: the same draws, in the same order, as one
    ``rng.random() < density`` per pair, in O(len(users)) memory.
    """
    edges: list[Edge] = []
    n = len(users)
    for i in range(n):
        coins = rng.random(n - i - 1) < density
        edges.extend((users[i], users[i + 1 + j]) for j in np.flatnonzero(coins).tolist())
    return edges


def _emoticon_tokens(rng: np.random.Generator, stance: float, rate: float) -> list[str]:
    tokens: list[str] = []
    if rng.random() < rate:
        total = int(rng.integers(1, 4))
        pos = int(rng.binomial(total, (1.0 + stance) / 2.0))
        neg = total - pos
        tokens.extend(_POS_TOKENS[i % len(_POS_TOKENS)] for i in range(pos))
        tokens.extend(_NEG_TOKENS[i % len(_NEG_TOKENS)] for i in range(neg))
        if rng.random() < 0.25:
            tokens.append(_NEU_TOKENS[total % len(_NEU_TOKENS)])
    return tokens


def generate(config: SynthConfig, out_dir: str | Path) -> GeneratedCorpus:
    """Write corpus, lexicon, stopword and expected-value files into ``out_dir``.

    The corpus is written to a temp file that replaces ``corpus.tsv`` once the
    other files are written: a failure, such as :class:`InfeasibleConfigError`,
    leaves no corpus behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return atomic_write(lambda tmp: _generate(config, out, tmp), out / "corpus.tsv")


def _generate(config: SynthConfig, out: Path, corpus_tmp: Path) -> GeneratedCorpus:
    rng = np.random.default_rng(config.rng_seed)

    users = [_user_name(i) for i in range(config.n_users)]
    seed_user = users[0]
    lexicon = synthetic_lexicon()
    window = SYNTH_WINDOW
    train_len = window.train_end - window.train_start
    test_len = window.test_end - window.test_start

    # social graph (Erdos-Renyi); keep the seed attached to the graph
    edges = _draw_edges(rng, users, config.edge_density)
    if not any(seed_user in e for e in edges):
        edges.append((users[0], users[1]))
    edges.sort()

    stances = rng.uniform(-1.0, 1.0, size=(config.n_users, config.n_topics))
    care_probs = np.linspace(config.care_range[0], config.care_range[1], config.n_topics)
    cares = rng.random(size=(config.n_users, config.n_topics)) < care_probs[None, :]

    phrase_lists = [_phrases(k, config.m) for k in range(config.n_topics)]

    def train_lines() -> Iterator[str]:
        """The train split: one tweet per graph edge, then each user's topic tweets."""
        for idx, (a, b) in enumerate(edges):
            ts = window.train_start + idx % train_len
            if idx % 2 == 0:
                yield f"r{idx:07d}\t{a}\t{ts}\t-\t@{b} {_filler(idx)}"
            else:
                yield f"r{idx:07d}\t{a}\t{ts}\t{b}\tfwd {_filler(idx)}"
        counter = 0
        for u_idx, user in enumerate(users):
            cared = [k for k in range(config.n_topics) if cares[u_idx, k]]
            for t in range(config.tweets_per_user):
                ts = window.train_start + (counter * 53 + 11) % train_len
                if cared:
                    k = cared[t % len(cared)]
                    mask = rng.random(config.m) < 0.7
                    if not mask.any():
                        mask[0] = True
                    tokens = [p for p, keep in zip(phrase_lists[k], mask) if keep]
                    tokens.append(_filler(counter * 3))
                    tokens.extend(
                        _emoticon_tokens(rng, float(stances[u_idx, k]), config.emoticon_rate)
                    )
                else:
                    tokens = [_filler(counter * 3), _filler(counter * 3 + 1)]
                yield f"s{counter:07d}\t{user}\t{ts}\t-\t" + " ".join(tokens)
                counter += 1

    # the train split goes to the corpus file first. The corpus's only
    # mentions and retweets are the edge tweets, and every user writes a train
    # tweet, so the drawn graph is the one `graph` builds from the corpus;
    # names sort like indices only below 100,000 users, so edges are made
    # canonical.
    n_train_tweets = write_lines(train_lines(), corpus_tmp)
    graph = SocialGraph(set(users), {canonical_edge(a, b) for a, b in edges})
    community = extract_community(graph, seed_user, config.max_depth)

    topics = [
        Topic(
            hashtag=_hashtag(k), start_time=window.test_start, popularity=1,
            key_phrases=phrase_lists[k],
        )
        for k in range(config.n_topics)
    ]
    # the train split is read back once, as `sentiment` reads it, to learn each
    # topic's community energy before popularity is planted; no line or
    # parsed tweet is held
    vectors_by_topic = catalog_vectors(
        community.members, topics, stream_corpus(corpus_tmp, lexicon, window, "train")
    )
    # the topics x edges matrix is needed only to plant edge weights: its
    # product with them is not the per-row dots. Its row sums are np.sum of
    # each row, bit for bit, so otherwise only those are kept.
    plant_edges = isinstance(config.planted, PlantedEdgeWeights)
    if plant_edges:
        edge_energy_matrix = np.zeros((config.n_topics, len(community.edges)))
    energies = np.zeros(config.n_topics)
    for k, topic in enumerate(topics):
        vectors = vectors_by_topic[topic.hashtag]
        _, values = per_edge_energies(community, vectors, EnergyFunction.COSINE)
        energies[k] = np.sum(values)
        if plant_edges:
            edge_energy_matrix[k] = values

    omegas: np.ndarray | None = None
    # a plant past float64 overflows to inf or NaN here, which the checks below reject
    with np.errstate(over="ignore", invalid="ignore"):
        if config.planted is None:
            lo, hi = config.popularity_range
            exact = rng.uniform(float(lo), float(hi), config.n_topics)
            noise_sigma = 0.0
        elif isinstance(config.planted, PlantedLinear):
            exact = config.planted.alpha * energies + config.planted.beta
            noise_sigma = config.planted.noise_sigma
        else:
            omegas = rng.uniform(
                config.planted.weight_lo, config.planted.weight_hi, len(community.edges)
            )
            exact = edge_energy_matrix @ omegas + config.planted.rho
            noise_sigma = config.planted.noise_sigma

        if noise_sigma > 0.0:
            exact = exact + rng.normal(0.0, noise_sigma * float(np.mean(exact)), config.n_topics)

    # checked as floats: a target past int64, or NaN, has no popularity to cast to
    if not np.all(exact <= MAX_TOTAL_TWEETS):
        raise InfeasibleConfigError(
            f"planted popularity {np.max(exact)} exceeds the cap of {MAX_TOTAL_TWEETS} tweets"
        )
    if np.any(np.rint(exact) < 1):
        raise InfeasibleConfigError(
            f"planted popularity drops below 1 (min {exact.min()}); raise the intercept"
        )
    pops = np.rint(exact).astype(np.int64)
    # popularity values must be distinct or the catalog dedupe would drop topics
    order = sorted(range(config.n_topics), key=lambda k: (pops[k], k))
    prev = 0
    for k in order:
        if pops[k] <= prev:
            pops[k] = prev + 1
        prev = int(pops[k])
    # raising each tie past the value below it moves crowded targets far: the
    # popularity then follows the rank more than the plant
    max_popularity_shift = max(p - e for p, e in zip(pops.tolist(), exact.tolist()))
    n_test_tweets = int(pops.sum())
    total_tweets = n_train_tweets + n_test_tweets
    if total_tweets > MAX_TOTAL_TWEETS:
        raise InfeasibleConfigError(
            f"would generate {total_tweets} tweets (cap {MAX_TOTAL_TWEETS})"
        )

    def test_lines() -> Iterator[str]:
        """Each topic's test-window tweets, made as the corpus file takes them."""
        counter = 0
        for k in range(config.n_topics):
            tag = _hashtag(k)
            body = " ".join(phrase_lists[k])
            spacing = max(1, (test_len * 9 // 10) // int(pops[k]))
            for j in range(int(pops[k])):
                ts = window.test_start + j * spacing
                author = users[(counter + j) % config.n_users]
                fillers = f"{_filler(2 * counter)} {_filler(2 * counter + 1)}"
                yield f"p{counter:07d}\t{author}\t{ts}\t-\t#{tag}# {body} {fillers}"
                counter += 1

    with open(corpus_tmp, "a", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in test_lines())
    corpus_path = out / "corpus.tsv"
    lexicon_path = out / "lexicon.tsv"
    stopwords_path = out / "stopwords.tsv"
    expected_path = out / "expected.tsv"
    lexicon_rows = atomic_write(lambda tmp: save_lexicon(lexicon, tmp), lexicon_path)
    atomic_write_text(
        stopwords_path, "".join(f"{_filler(i)}\n" for i in range(_N_STOPWORDS))
    )

    planted_kind = (
        "none"
        if config.planted is None
        else ("linear" if isinstance(config.planted, PlantedLinear) else "edge_weights")
    )
    rows: list[str] = []

    def param(name: str, value) -> None:
        rows.append(f"param\t{name}\t{value}")

    param("rng_seed", config.rng_seed)
    param("n_users", config.n_users)
    param("edge_density", repr(config.edge_density))
    param("n_topics", config.n_topics)
    param("m", config.m)
    param("emoticon_rate", repr(config.emoticon_rate))
    param("tweets_per_user", config.tweets_per_user)
    param("seed_user", seed_user)
    param("max_depth", config.max_depth)
    param("planted", planted_kind)
    param("noise_sigma", repr(float(noise_sigma)))
    param("energy_model", "mrf")
    param("energy_function", "cosine")
    param("train_start", window.train_start)
    param("train_end", window.train_end)
    param("test_start", window.test_start)
    param("test_end", window.test_end)
    param("first_month_end", FIRST_TEST_MONTH_END)
    param("n_community_edges", len(community.edges))
    param("n_train_tweets", n_train_tweets)
    param("n_test_tweets", n_test_tweets)
    param("max_popularity_shift", repr(max_popularity_shift))
    if isinstance(config.planted, PlantedLinear):
        param("alpha", repr(config.planted.alpha))
        param("beta", repr(config.planted.beta))
    if isinstance(config.planted, PlantedEdgeWeights):
        param("rho", repr(config.planted.rho))
    for k in range(config.n_topics):
        rows.append(
            f"topic\t{_hashtag(k)}\t{float(energies[k])!r}\t{float(exact[k])!r}\t{int(pops[k])}"
        )
    if omegas is not None:
        for (a, b), w in zip(community.edges, omegas):
            rows.append(f"edge\t{a}\t{b}\t{float(w)!r}")
    atomic_write_text(expected_path, "\n".join(rows) + "\n")

    return GeneratedCorpus(
        corpus_path=corpus_path,
        lexicon_path=lexicon_path,
        stopwords_path=stopwords_path,
        expected_path=expected_path,
        window=window,
        seed_user=seed_user,
        max_depth=config.max_depth,
        n_train_tweets=n_train_tweets,
        n_test_tweets=n_test_tweets,
        max_popularity_shift=max_popularity_shift,
        rows={
            corpus_path: n_train_tweets + n_test_tweets,
            lexicon_path: lexicon_rows,
            stopwords_path: _N_STOPWORDS,
            expected_path: len(rows),
        },
    )


def load_expected(path: str | Path) -> ExpectedValues:
    out = ExpectedValues()
    for line_no, fields in read_rows(path, None, "expected-values"):
        kind, n = fields[0], len(fields)
        if kind == "param" and n == 3:
            out.params[fields[1]] = fields[2]
        elif kind == "topic" and n == 5:
            _, tag, energy, target, popularity = fields
            out.topics.append(ExpectedTopic(tag, float(energy), float(target), int(popularity)))
        elif kind == "edge" and n == 4:
            out.edge_weights[(fields[1], fields[2])] = float(fields[3])
        else:
            raise ValueError(f"{path}: bad expected-values row at line {line_no}")
    return out
