"""Scalar reference implementations that the library's fast paths are checked against."""

import math
import re
from collections.abc import Sequence

import numpy as np

from sentpop.corpus import (
    _EMOTICON_RE,
    _HASHTAG_RE,
    _MENTION_RE,
    NO_RETWEET,
    EmoticonCounts,
    EmoticonLexicon,
    ParseError,
    Tweet,
)
from sentpop.graph import Edge
from sentpop.predictor import (
    PREDICTOR_KINDS,
    EdgeModel,
    LinearModel,
    TopicSample,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    _check_edges,
    _predict_batch,
)
from sentpop.sentiment import tweet_sentiment
from sentpop.stats import student_t_two_tailed_p


def parse_tweet_line(line: str, lexicon: EmoticonLexicon, line_no: int | None = None) -> Tweet:
    """The plain parser ``corpus.parse_tweet_line`` meets: every text scanned for every marker."""
    if line.endswith("\n"):
        line = line[:-1].removesuffix("\r")
    if "\r" in line:
        raise ParseError("carriage return inside the record", line_no)
    fields = line.split("\t")
    if len(fields) != 5:
        raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line_no)
    tweet_id, user, ts_raw, retweet_raw, text = fields
    if not tweet_id or not user:
        raise ParseError("empty id or user field", line_no)
    if re.fullmatch("-?[0-9]+", ts_raw) is None:
        raise ParseError(f"bad timestamp {ts_raw!r}", line_no)
    timestamp = int(ts_raw)
    retweet_of = None if retweet_raw == NO_RETWEET else retweet_raw
    if retweet_of == "":
        raise ParseError("empty retweet field (use '-' for none)", line_no)
    polarities = [lexicon.entries.get(token) for token in _EMOTICON_RE.findall(text)]
    return Tweet(
        id=tweet_id,
        user=user,
        timestamp=timestamp,
        text=text,
        hashtags=tuple(_HASHTAG_RE.findall(text)),
        mentions=tuple(_MENTION_RE.findall(text)),
        retweet_of=retweet_of,
        emoticon_counts=EmoticonCounts(polarities.count("positive"), polarities.count("negative")),
    )


def raw_scan_vectors(members, topics, tweets_by_user):
    """Per-topic, per-phrase ``phrase in text`` scan; the definition ``catalog_vectors`` meets."""
    out = {}
    for topic in topics:
        vectors = {}
        for user in sorted(set(members)):
            tweets = tweets_by_user.get(user, ())
            if not tweets:
                continue
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


def scalar_edge_draws(rng: np.random.Generator, users: Sequence[str], density: float):
    """One ``rng.random()`` per pair ``i < j``; the draws ``synth._draw_edges`` makes."""
    edges = []
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            if rng.random() < density:
                edges.append((users[i], users[j]))
    return edges


def standardize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scores into a new array; the arithmetic ``predictor._standardize`` does in place.

    Each column is scaled by 2^-e, where 2^(e-1) <= max|v| < 2^e, before its
    mean and deviation are taken; ``mu`` and ``sd`` are scaled back by 2^e.
    A column whose deviation is at most 256 * eps times the largest magnitude
    in ``values`` (NaN aside) is rounding noise: its z-scores are 0, its scale 1.
    """
    exponents = np.array(
        [math.frexp(float(np.abs(column).max()))[1] for column in values.T], dtype=int
    )
    scaled = np.array(
        [[math.ldexp(v, -int(e)) for v, e in zip(row, exponents)] for row in values.tolist()],
        dtype=np.float64,
    ).reshape(values.shape)
    mu = scaled.mean(axis=0)
    sd = scaled.std(axis=0)
    raw_sd = np.ldexp(sd, exponents)
    largest = max((abs(v) for v in values.flat if not math.isnan(v)), default=0.0)
    constant = raw_sd <= 256 * np.finfo(np.float64).eps * largest
    z = np.where(constant, 0.0, (scaled - mu) / np.where(constant, 1.0, sd))
    return z, np.ldexp(mu, exponents), np.where(constant, 1.0, raw_sd)


def loss(model: LinearModel | EdgeModel, samples: Sequence[TopicSample]) -> float:
    """Half mean squared error over the samples."""
    if not samples:
        raise ValueError("loss needs at least one sample")
    errors = _predict_batch(model, samples) - np.array(
        [s.target for s in samples], dtype=np.float64
    )
    return float(np.dot(errors, errors)) / (2.0 * len(samples))


def predict_linear(model: LinearModel, energy: float) -> float:
    return model.alpha * energy + model.beta


def predict_edge(model: EdgeModel, sample: TopicSample) -> float:
    _check_edges(model.edges, sample)
    return float(np.dot(model.weight_values, sample.edge_energies)) + model.rho


def gradient_linear(
    model: LinearModel, samples: Sequence[TopicSample]
) -> tuple[float, float]:
    """(d/d alpha, d/d beta) of the loss: mean residual times feature."""
    if not samples:
        raise ValueError("gradient needs at least one sample")
    feats = np.array([s.total_energy for s in samples], dtype=np.float64)
    errors = model.alpha * feats + model.beta - np.array(
        [s.target for s in samples], dtype=np.float64
    )
    n = len(samples)
    return float(np.dot(errors, feats)) / n, float(np.sum(errors)) / n


def gradient_edge_model(
    model: EdgeModel, samples: Sequence[TopicSample]
) -> tuple[np.ndarray, float]:
    """Gradients for every edge weight plus the intercept."""
    if not samples:
        raise ValueError("gradient needs at least one sample")
    errors = _predict_batch(model, samples) - np.array(
        [s.target for s in samples], dtype=np.float64
    )
    feats = np.stack([s.edge_energies for s in samples])
    n = len(samples)
    return feats.T @ errors / n, float(np.sum(errors)) / n


def gradient_edge(
    model: EdgeModel, samples: Sequence[TopicSample], edge: Edge
) -> float:
    """Loss gradient with respect to a single edge weight."""
    try:
        idx = model.edges.index(edge)
    except ValueError:
        raise ValueError(f"edge {edge!r} is not in the model") from None
    grad_w, _ = gradient_edge_model(model, samples)
    return float(grad_w[idx])


def sgd_step(
    model: LinearModel | EdgeModel,
    batch: Sequence[TopicSample],
    config: TrainConfig,
) -> LinearModel | EdgeModel:
    """One gradient-descent update on the mean batch gradient."""
    eta = config.learning_rate
    if isinstance(model, LinearModel):
        d_alpha, d_beta = gradient_linear(model, batch)
        return LinearModel(
            alpha=model.alpha - eta * d_alpha, beta=model.beta - eta * d_beta
        )
    grad_w, d_rho = gradient_edge_model(model, batch)
    return EdgeModel(
        edges=model.edges,
        weight_values=model.weight_values - eta * grad_w,
        rho=model.rho - eta * d_rho,
    )


def dual_step(
    c: tuple[float, ...], gram: np.ndarray, i: int, target: float, eta: float
) -> tuple[float, ...]:
    """One per-sample step on the coefficients of ``w = z^T c``, ``rho = sum(c)``.

    Sample ``i``'s prediction is row ``i`` of the Gram matrix ``z z^T + 1``
    dotted with ``c``; the step moves ``c[i]`` alone, by ``-eta`` times its error.
    """
    error = float(np.dot(gram[i], np.array(c))) - target
    return c[:i] + (c[i] - eta * error,) + c[i + 1 :]


def object_per_step_train(
    kind: str, train_samples: Sequence[TopicSample], config: TrainConfig
) -> TrainResult:
    """Per-sample SGD in dual coordinates that builds a new coefficient tuple on every step.

    The definition ``predictor.train`` meets bit for bit: same zero start,
    shuffles, plateau stop and end-of-epoch divergence check, and the same
    dot products, one per row of ``z``, for the Gram matrix.
    """
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {kind!r}")
    if not train_samples:
        raise ValueError("train needs at least one sample")
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_samples)
    if kind == "linear":
        edges: tuple[Edge, ...] = ()
        z, mu, sd = standardize(np.array([[s.total_energy] for s in train_samples]))
    else:
        edges = train_samples[0].edges
        for s in train_samples:
            if s.edges is not edges and s.edges != edges:
                raise ValueError("samples cover different edge sets")
        z, mu, sd = standardize(np.stack([s.edge_energies for s in train_samples]))
    targets = np.array([s.target for s in train_samples], dtype=np.float64)
    gram = np.array([z @ row + 1.0 for row in z])
    eta = config.learning_rate
    omega_max = eta * max(float(gram[i, i]) for i in range(n))

    c = (0.0,) * n
    curve: list[float] = []
    plateaued = False
    prev = math.inf
    # a diverging run overflows on the way; the loss check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i in rng.permutation(n).tolist():
                c = dual_step(c, gram, i, float(targets[i]), eta)
            errors = gram @ np.array(c) - targets
            epoch_loss = float(np.dot(errors, errors)) / (2.0 * n)
            curve.append(epoch_loss)
            if not math.isfinite(epoch_loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch
                )
            if 0.0 <= prev - epoch_loss < config.stop_tol * prev:
                plateaued = True
                break
            prev = epoch_loss

    w = z.T @ np.array(c)
    rho = float(np.sum(np.array(c)))
    if kind == "linear":
        alpha = float(w[0]) / float(sd[0])
        model: LinearModel | EdgeModel = LinearModel(
            alpha, rho - float(w[0]) * float(mu[0]) / float(sd[0])
        )
    else:
        model = EdgeModel(edges, w / sd, rho - float(np.dot(w, mu / sd)))
    return TrainResult(
        model=model, omega_max=omega_max, loss_curve=curve, plateaued=plateaued
    )


def primal_per_step_train(
    kind: str, train_samples: Sequence[TopicSample], config: TrainConfig
) -> TrainResult:
    """Per-sample SGD on the weights and intercept, a new model object on every step.

    The primal form of the run ``predictor.train`` makes in dual coordinates:
    same zero start, shuffles, plateau stop and end-of-epoch divergence check,
    with sums taken in another order, so equal to it up to rounding.
    """
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {kind!r}")
    if not train_samples:
        raise ValueError("train needs at least one sample")
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_samples)

    if kind == "linear":
        feats = np.array([s.total_energy for s in train_samples], dtype=np.float64)
        z, mu, sd = standardize(feats[:, None])
        std_samples = [
            TopicSample(
                topic=s.topic,
                edges=(),
                edge_energies=np.zeros(0),
                total_energy=float(z[i, 0]),
                target=s.target,
            )
            for i, s in enumerate(train_samples)
        ]
        model: LinearModel | EdgeModel = LinearModel(0.0, 0.0)
    else:
        edges = train_samples[0].edges
        for s in train_samples:
            if s.edges is not edges and s.edges != edges:
                raise ValueError("samples cover different edge sets")
        feats = np.stack([s.edge_energies for s in train_samples])
        z, mu, sd = standardize(feats)
        std_samples = [
            TopicSample(
                topic=s.topic,
                edges=edges,
                edge_energies=z[i],
                total_energy=float(np.sum(z[i])),
                target=s.target,
            )
            for i, s in enumerate(train_samples)
        ]
        model = EdgeModel(
            edges=edges,
            weight_values=np.zeros(len(edges), dtype=np.float64),
            rho=0.0,
        )

    omega_max = config.learning_rate * max(float(np.dot(row, row)) + 1.0 for row in z)
    curve: list[float] = []
    plateaued = False
    prev = math.inf
    # a diverging run overflows on the way; the loss check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i in rng.permutation(n):
                model = sgd_step(model, (std_samples[i],), config)
            epoch_loss = loss(model, std_samples)
            curve.append(epoch_loss)
            if not math.isfinite(epoch_loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch
                )
            if 0.0 <= prev - epoch_loss < config.stop_tol * prev:
                plateaued = True
                break
            prev = epoch_loss

    if isinstance(model, LinearModel):
        alpha = model.alpha / float(sd[0])
        beta = model.beta - model.alpha * float(mu[0]) / float(sd[0])
        return TrainResult(
            model=LinearModel(alpha, beta),
            omega_max=omega_max,
            loss_curve=curve,
            plateaued=plateaued,
        )
    raw_w = model.weight_values / sd
    raw_rho = model.rho - float(np.dot(model.weight_values, mu / sd))
    return TrainResult(
        model=EdgeModel(edges=model.edges, weight_values=raw_w, rho=raw_rho),
        omega_max=omega_max,
        loss_curve=curve,
        plateaued=plateaued,
    )


def least_squares_floor(z: np.ndarray, t: np.ndarray) -> float:
    """The least half-MSE any model ``z @ w + rho`` reaches on targets ``t``.

    Exact least squares on ``[z, 1]`` (``lstsq`` handles rank-deficient
    ``z``): the floor L* that constant-step SGD on the same rows can only
    approach.
    """
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    a = np.hstack([z, np.ones((z.shape[0], 1))])
    theta, *_ = np.linalg.lstsq(a, t, rcond=None)
    errors = a @ theta - t
    return float(np.dot(errors, errors)) / (2.0 * len(t))


def closed_form_linear_fit(
    energies: Sequence[float], targets: Sequence[float]
) -> LinearModel:
    """Ordinary least squares for the one-variable model."""
    x = np.asarray(energies, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("need two equal-length one-dimensional series")
    dx = x - x.mean()
    ssx = float(np.dot(dx, dx))
    if ssx == 0.0:
        raise ValueError("constant energies; slope undefined")
    alpha = float(np.dot(dx, y - y.mean())) / ssx
    beta = float(y.mean()) - alpha * float(x.mean())
    return LinearModel(alpha=alpha, beta=beta)


def numpy_pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """r as ``stats.pearson`` once computed it: numpy means and BLAS dot products."""
    xa, ya = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    return max(-1.0, min(1.0, r))


def numpy_rse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """RSE as ``stats.rse`` once computed it: numpy's mean and pairwise sums."""
    pa, ya = np.asarray(predicted, dtype=np.float64), np.asarray(actual, dtype=np.float64)
    return float(np.sum((pa - ya) ** 2)) / float(np.sum((ya - ya.mean()) ** 2))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-tailed paired t-test p-value on the differences a - b.

    Identical differences (zero variance) leave the statistic undefined and
    raise, including the a == b case.
    """
    aa, ba = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if aa.ndim != 1 or ba.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if aa.shape[0] != ba.shape[0]:
        raise ValueError("series lengths differ")
    n = aa.shape[0]
    if n < 2:
        raise ValueError("paired t-test requires at least 2 pairs")
    d = aa - ba
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero variance; t statistic undefined")
    t_stat = float(np.mean(d)) / (sd / math.sqrt(n))
    return student_t_two_tailed_p(t_stat, n - 1)
