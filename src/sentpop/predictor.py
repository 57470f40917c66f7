"""Popularity predictors over community sentiment energies.

Two linear hypothesis classes share one training loop:

* a one-variable model ``alpha * total_energy + beta``;
* a per-edge model ``sum(omega_e * edge_energy_e) + rho``, one weight per
  community edge.

Both are trained by per-sample stochastic gradient descent on
half-mean-squared-error, over a feature matrix with one column per edge, or
a single column of total energy for the one-variable model. Features are
z-scored internally on the training split (energies vary over orders of
magnitude) and the learned parameters are mapped back to raw energy space,
so stored models always apply to unscaled energies.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import stats
from ._lazy import np
from .energy import EnergyFunction, mrf_total, per_edge_energies
from .graph import CommunityGraph, Edge
from .manifest import read_rows, write_lines
from .topics import Topic

PREDICTOR_KINDS = ("linear", "edge")


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite at the end of an epoch."""

    def __init__(self, message: str, epoch: int):
        self.epoch = epoch
        super().__init__(message)


@dataclass(frozen=True)
class LinearModel:
    alpha: float
    beta: float


@dataclass(frozen=True, eq=False)
class EdgeModel:
    edges: tuple[Edge, ...]
    weight_values: np.ndarray
    rho: float

    def __post_init__(self):
        if self.weight_values.shape != (len(self.edges),):
            raise ValueError("one weight per edge required")


@dataclass(frozen=True, eq=False)
class TopicSample:
    """Per-topic features (edge energies and their sum) with the real popularity.

    A sample made from its total energy alone (:func:`energy_samples`) has no
    edges and an empty ``edge_energies``: it serves the linear model only.
    """

    topic: str
    edges: tuple[Edge, ...]
    edge_energies: np.ndarray | tuple[()]
    total_energy: float
    target: float


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 500
    rng_seed: int = 0
    stop_tol: float = 1e-5  # relative: see ``train``

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError("learning_rate must be finite and non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValueError("stop_tol must be finite and non-negative")


@dataclass
class TrainResult:
    model: LinearModel | EdgeModel
    # largest Kaczmarz relaxation eta * (|z_i|^2 + 1) over the standardized rows;
    # at 2 or above a step on that row expands its own residual
    omega_max: float
    loss_curve: list[float] = field(default_factory=list)
    plateaued: bool = False  # stopped on the plateau test, not the epoch cap


@dataclass
class EvalResult:
    rse: float
    r_squared: float
    residuals: list[tuple[str, float, float]]  # (topic, actual, predicted)


def make_samples(
    community: CommunityGraph,
    vectors_by_topic: Mapping[str, Mapping[str, np.ndarray]],
    topics: Sequence[Topic],
    function: EnergyFunction = EnergyFunction.COSINE,
) -> list[TopicSample]:
    """Build per-topic feature samples over the community's sorted edges."""
    samples = []
    for topic in topics:
        vectors = vectors_by_topic.get(topic.hashtag, {})
        edges, values = per_edge_energies(community, vectors, function)
        samples.append(
            TopicSample(
                topic=topic.hashtag,
                edges=edges,
                edge_energies=values,
                total_energy=mrf_total(values),
                target=float(topic.popularity),
            )
        )
    return samples


def energy_samples(energies: Mapping[str, float], topics: Sequence[Topic]) -> list[TopicSample]:
    """Samples for the linear model from each topic's total energy, by hashtag.

    The ``energy`` stage's mrf energy and :func:`make_samples`' ``total_energy``
    are both :func:`~sentpop.energy.mrf_total` of the same per-edge energies,
    so the linear model trained on these samples is the one trained on
    ``make_samples``'.
    """
    return [
        TopicSample(t.hashtag, (), (), energies[t.hashtag], float(t.popularity)) for t in topics
    ]


def split_train_test(topics: Sequence[Topic], rng_seed: int) -> tuple[list[Topic], list[Topic]]:
    """Uniform random split with ceil(n/2) topics in train, deterministic by seed."""
    n = len(topics)
    if n < 2:
        raise ValueError("need at least 2 topics to split")
    k = (n + 1) // 2
    perm = np.random.default_rng(rng_seed).permutation(n)
    in_train = set(int(i) for i in perm[:k])
    train = [t for i, t in enumerate(topics) if i in in_train]
    test = [t for i, t in enumerate(topics) if i not in in_train]
    return train, test


def _check_edges(edges: tuple[Edge, ...], sample: TopicSample, owner: str = "the model") -> None:
    if sample.edges is not edges and sample.edges != edges:
        raise ValueError(f"sample {sample.topic!r} covers a different edge set than {owner}")


def _predict_batch(
    model: LinearModel | EdgeModel, samples: Sequence[TopicSample]
) -> list[float]:
    if isinstance(model, LinearModel):
        # the IEEE operations of ``alpha * feats + beta`` on an array, without numpy
        return [model.alpha * s.total_energy + model.beta for s in samples]
    # samples from one make_samples call share one edges tuple: compare each once
    for s in {id(s.edges): s for s in samples}.values():
        _check_edges(model.edges, s)
    feats = np.stack([s.edge_energies for s in samples])
    return (feats @ model.weight_values + model.rho).tolist()


def sgd_step(c: np.ndarray, i: int, gram_row: np.ndarray, target: float, eta: float) -> None:
    """One per-sample update, in dual coordinates: moves ``c[i]`` in place.

    ``gram_row`` is row ``i`` of ``z z^T + 1``, so ``gram_row . c`` is sample
    ``i``'s prediction under ``w = z^T c`` and ``rho = sum(c)``: the step is the
    primal one, which adds ``-eta * error`` times row ``i`` to ``w`` and
    ``-eta * error`` to ``rho``. A step may leave ``c`` non-finite; ``train``
    reports that at the end of the epoch.
    """
    c[i] = c[i] - eta * (gram_row.dot(c) - target)


# A column whose sd is at most this times the train matrix's largest magnitude
# is rounding noise, and counts as constant. The rounded dot product of two
# m-vectors is within about m * eps * |u||v| of the exact one, so the cosine
# energy of an exactly orthogonal pair can read up to about (m + 2) * eps
# instead of 0, with m <= 99 key phrases; 256 is the power of two above twice that.
_ROUNDING_SPREAD = 256 * sys.float_info.epsilon


def _standardize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scores of ``values``, computed in place; returns them with ``mu`` and ``sd``.

    A column counts as constant when its sd is at most ``_ROUNDING_SPREAD``
    times the whole matrix's largest magnitude: its z-scores are set to 0
    and its scale to 1, so it never gets a weight. Each column is first
    scaled by a power of two into [-1, 1], so its squares neither overflow nor
    underflow; the scaling is exact in the normal range, which leaves the
    other columns' z-scores and the returned ``mu`` and ``sd`` those of
    ``(values - mu) / values.std(axis=0)``, bit for bit, without an n x d
    temporary.
    """
    largest = np.maximum(values.max(axis=0), -values.min(axis=0))
    _, exponents = np.frexp(largest)
    np.ldexp(values, -exponents, out=values)
    mu = values.mean(axis=0)
    if values.shape[1] == 1:
        sd = values.std(axis=0)  # numpy sums a single column pairwise
        values -= mu
    else:
        # numpy's std adds the squared deviations of more than one column row
        # by row; the same sum over the deviations formed in place
        values -= mu
        sd = np.zeros_like(mu)
        for row in values:
            sd += row * row
        sd /= len(values)
        np.sqrt(sd, out=sd)
    raw_sd = np.ldexp(sd, exponents)
    # fmax skips a NaN column, which makes the run diverge anyway
    constant = raw_sd <= _ROUNDING_SPREAD * np.fmax.reduce(largest, initial=0.0)
    values /= np.where(constant, 1.0, sd)
    values[:, constant] = 0.0
    return values, np.ldexp(mu, exponents), np.where(constant, 1.0, raw_sd)


def train(
    kind: str, train_samples: Sequence[TopicSample], config: TrainConfig
) -> TrainResult:
    """Run per-sample SGD for ``config.epochs`` passes and record the loss curve.

    Training starts at zero weights and visits the samples in a new random
    order every epoch, drawn from ``config.rng_seed``, its only randomness.
    Stops early once an epoch lowers the training loss by less than
    ``config.stop_tol`` times the previous epoch's loss (a plateau);
    ``stop_tol=0.0`` disables the stop. A worsening epoch never
    counts as converged, so runaway learning rates surface as divergence
    errors instead of quietly returning the last iterate. The stop only
    truncates the run: a run that plateaus after epoch k is the first k + 1
    epochs of the same run with the stop disabled.
    """
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {kind!r}")
    if not train_samples:
        raise ValueError("train needs at least one sample")
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_samples)
    if kind == "linear":
        edges: tuple[Edge, ...] = ()
        feats = np.array([s.total_energy for s in train_samples], dtype=np.float64)[:, None]
    else:
        edges = train_samples[0].edges
        for s in train_samples:
            _check_edges(edges, s, f"sample {train_samples[0].topic!r}")
        feats = np.stack([s.edge_energies for s in train_samples])
    # an infinite feature turns its column into NaN (inf - inf); training
    # then diverges in epoch 0 and the loss check below reports it
    with np.errstate(invalid="ignore"):
        z, mu, sd = _standardize(feats)
    targets = np.array([s.target for s in train_samples], dtype=np.float64)
    target_list = targets.tolist()
    # Training starts at w = 0, rho = 0 and each step adds a multiple of one
    # row z_i to w and the same multiple to rho, so w = z^T c and rho = sum(c)
    # throughout: SGD runs on the n coefficients c, over the Gram matrix
    # z z^T + 1, whatever the number d of features. One matrix-vector product
    # per row builds it without a matrix-matrix product's BLAS buffers.
    gram = np.empty((n, n), dtype=np.float64)
    for i, row in enumerate(z):
        np.dot(z, row, out=gram[i])
    gram += 1.0
    gram_rows = list(gram)
    eta = config.learning_rate
    # the diagonal holds |z_i|^2 + 1
    omega_max = eta * float(gram.diagonal().max())
    c = np.zeros(n, dtype=np.float64)

    curve: list[float] = []
    plateaued = False
    prev = math.inf
    # The loss check is the only divergence check: NaN and inf absorb every
    # later step, so a coefficient that stops being finite is still
    # non-finite when its epoch ends, and so is its own residual, which the
    # diagonal's |z_i|^2 + 1 >= 1 carries into the loss. The steps of a
    # diverging run raise floating-point warnings on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i in rng.permutation(n).tolist():
                sgd_step(c, i, gram_rows[i], target_list[i], eta)
            errors = gram @ c - targets
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

    w, rho = z.T @ c, float(c.sum())
    if kind == "linear":
        alpha = float(w[0])
        sd0 = float(sd[0])
        model: LinearModel | EdgeModel = LinearModel(
            alpha / sd0, rho - alpha * float(mu[0]) / sd0
        )
    else:
        model = EdgeModel(
            edges=edges, weight_values=w / sd, rho=rho - float(np.dot(w, mu / sd))
        )
    return TrainResult(
        model=model, omega_max=omega_max, loss_curve=curve, plateaued=plateaued
    )


def evaluate(
    model: LinearModel | EdgeModel, test_samples: Sequence[TopicSample]
) -> EvalResult:
    """RSE and R^2 on held-out samples, with per-topic residual rows."""
    if not test_samples:
        raise ValueError("evaluate needs at least one sample")
    preds = _predict_batch(model, test_samples)
    actuals = [float(s.target) for s in test_samples]
    value = stats.rse(preds, actuals)
    return EvalResult(
        rse=value,
        r_squared=1.0 - value,
        residuals=[(s.topic, a, p) for s, a, p in zip(test_samples, actuals, preds)],
    )


def save_model(model: LinearModel | EdgeModel, path: str | Path) -> int:
    """Persist a ``kind`` header row, then the parameters; returns the row count."""
    if isinstance(model, LinearModel):
        rows = ["kind\tlinear", f"{model.alpha!r}\t{model.beta!r}"]
    else:
        weights = zip(model.edges, model.weight_values.tolist())
        rows = ["kind\tedge", *(f"{a}\t{b}\t{w!r}" for (a, b), w in weights)]
        rows.append(f"rho\t{model.rho!r}")
    return write_lines(rows, path)


def load_model(path: str | Path) -> LinearModel | EdgeModel:
    rows = [fields for _, fields in read_rows(path, None, "model")]
    if not rows or rows[0][0] != "kind" or len(rows[0]) < 2:
        raise ValueError(f"{path}: missing kind header")
    kind = rows[0][1]
    if kind == "linear":
        if len(rows) != 2 or len(rows[1]) != 2:
            raise ValueError(f"{path}: malformed linear model")
        alpha, beta = (float(v) for v in rows[1])
        return LinearModel(alpha=alpha, beta=beta)
    if kind == "edge":
        body, rho = rows[1:-1], rows[-1]
        if len(rows) < 2 or rho[0] != "rho" or len(rho) != 2 or any(len(r) != 3 for r in body):
            raise ValueError(f"{path}: malformed edge model")
        edges = tuple((a, b) for a, b, _ in body)
        # save_model writes the rows in sorted edge order, each edge once
        if any(e >= f for e, f in zip(edges, edges[1:])):
            raise ValueError(f"{path}: malformed edge model")
        weights = np.array([float(w) for _, _, w in body], dtype=np.float64)
        return EdgeModel(edges, weights, float(rho[1]))
    raise ValueError(f"{path}: unknown model kind {kind!r}")
