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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import stats
from ._lazy import np
from .energy import EnergyFunction, per_edge_energies
from .graph import CommunityGraph, Edge
from .topics import GapDataset, Topic

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

    @property
    def weights(self) -> dict[Edge, float]:
        return {e: float(w) for e, w in zip(self.edges, self.weight_values)}

    @classmethod
    def from_weights(cls, weights: Mapping[Edge, float], rho: float) -> "EdgeModel":
        edges = tuple(sorted(weights))
        values = np.array([weights[e] for e in edges], dtype=np.float64)
        return cls(edges=edges, weight_values=values, rho=rho)


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
    init: str = "zeros"  # "zeros" | "uniform"
    init_range: tuple[float, float] = (-0.01, 0.01)
    rng_seed: int = 0
    shuffle: bool = True
    l2: float = 0.0
    stop_tol: float = 1e-5  # relative: see ``train``

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError("learning_rate must be finite and non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.init not in ("zeros", "uniform"):
            raise ValueError(f"unknown init {self.init!r}")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError("l2 must be finite and non-negative")


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
    """Build per-topic feature samples over the community's (sorted) edge set."""
    edges = community.index.edges
    samples = []
    for topic in topics:
        vectors = vectors_by_topic.get(topic.hashtag, {})
        _, values = per_edge_energies(community, vectors, function)
        samples.append(
            TopicSample(
                topic=topic.hashtag,
                edges=edges,
                edge_energies=values,
                total_energy=float(np.sum(values)),
                target=float(topic.popularity),
            )
        )
    return samples


def energy_samples(energies: Mapping[str, float], topics: Sequence[Topic]) -> list[TopicSample]:
    """Samples for the linear model from each topic's total energy, by hashtag.

    The ``energy`` stage's mrf energy is the sum that :func:`make_samples`
    stores as ``total_energy``, bit for bit, so the linear model trained on
    these samples is the one trained on ``make_samples``'.
    """
    return [
        TopicSample(t.hashtag, (), (), energies[t.hashtag], float(t.popularity)) for t in topics
    ]


def split_train_test(
    dataset: GapDataset | Sequence[Topic], rng_seed: int
) -> tuple[list[Topic], list[Topic]]:
    """Uniform random split with ceil(n/2) topics in train, deterministic by seed."""
    topics = list(dataset.topics if isinstance(dataset, GapDataset) else dataset)
    n = len(topics)
    if n < 2:
        raise ValueError("need at least 2 topics to split")
    k = (n + 1) // 2
    perm = np.random.default_rng(rng_seed).permutation(n)
    in_train = set(int(i) for i in perm[:k])
    train = [t for i, t in enumerate(topics) if i in in_train]
    test = [t for i, t in enumerate(topics) if i not in in_train]
    return train, test


def _check_edges(model: EdgeModel, sample: TopicSample) -> None:
    if sample.edges is not model.edges and sample.edges != model.edges:
        raise ValueError(
            f"sample {sample.topic!r} covers a different edge set than the model"
        )


def _predict_batch(
    model: LinearModel | EdgeModel, samples: Sequence[TopicSample]
) -> list[float]:
    if isinstance(model, LinearModel):
        # the IEEE operations of ``alpha * feats + beta`` on an array, without numpy
        return [model.alpha * s.total_energy + model.beta for s in samples]
    # samples from one make_samples call share one edges tuple: compare each once
    for s in {id(s.edges): s for s in samples}.values():
        _check_edges(model, s)
    feats = np.stack([s.edge_energies for s in samples])
    return (feats @ model.weight_values + model.rho).tolist()


def sgd_step(
    w: np.ndarray, rho: float, row: np.ndarray, target: float, eta: float, l2: float
) -> float:
    """One per-sample update of the weights ``w``, in place; returns the new intercept.

    ``row`` is the sample's ``(1, d)`` feature row. The optional L2 penalty
    applies to the weights, never to the intercept. A step may leave ``w`` or
    the intercept non-finite; ``train`` reports that at the end of the epoch.
    """
    err = float((row @ w)[0]) + rho - target
    grad = row[0] * err
    if l2:
        grad += l2 * w
    grad *= eta
    w -= grad
    return rho - eta * err


def _standardize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scores of ``values``, computed in place; returns them with ``mu`` and ``sd``.

    Constant columns keep scale 1 so they map to zero. Each column is first
    scaled by a power of two into [-1, 1], so its squares in ``std`` neither
    overflow nor underflow; the scaling is exact in the normal range, which
    leaves the z-scores and the returned ``mu`` and ``sd`` those of
    ``(values - mu) / sd``, bit for bit, without its two temporaries.
    """
    _, exponents = np.frexp(np.maximum(values.max(axis=0), -values.min(axis=0)))
    np.ldexp(values, -exponents, out=values)
    mu = values.mean(axis=0)
    sd = values.std(axis=0)
    constant = sd == 0.0
    values -= mu
    values /= np.where(constant, 1.0, sd)
    return values, np.ldexp(mu, exponents), np.where(constant, 1.0, np.ldexp(sd, exponents))


def train(
    kind: str, train_samples: Sequence[TopicSample], config: TrainConfig
) -> TrainResult:
    """Run per-sample SGD for ``config.epochs`` passes and record the loss curve.

    Sample order is reshuffled every epoch when ``config.shuffle`` is set; all
    randomness (shuffling and optional uniform init) flows from
    ``config.rng_seed``. Stops early once an epoch lowers the training loss
    by less than ``config.stop_tol`` times the previous epoch's loss (a
    plateau); ``stop_tol=0.0`` disables the stop. A worsening epoch never
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
            if s.edges is not edges and s.edges != edges:
                raise ValueError("samples cover different edge sets")
        feats = np.stack([s.edge_energies for s in train_samples])
    # an infinite feature turns its column into NaN (inf - inf); training
    # then diverges in epoch 0 and the loss check below reports it
    with np.errstate(invalid="ignore"):
        z, mu, sd = _standardize(feats)
    targets = np.array([s.target for s in train_samples], dtype=np.float64)
    target_list = targets.tolist()
    # (1, d) rows keep the residual's BLAS summation order of a batch of one
    rows = [z[i : i + 1] for i in range(n)]
    d = z.shape[1]
    eta, l2 = config.learning_rate, config.l2
    # row norms without a z * z copy
    omega_max = eta * (float(np.einsum("ij,ij->i", z, z).max()) + 1.0)
    if config.init == "uniform":
        lo, hi = config.init_range
        draws = rng.uniform(lo, hi, d + 1)
        w, rho = draws[:-1], float(draws[-1])
    else:
        w, rho = np.zeros(d, dtype=np.float64), 0.0

    curve: list[float] = []
    plateaued = False
    prev = math.inf
    # The loss check is the only divergence check: NaN and inf absorb every
    # later step, so a weight or intercept that stops being finite is still
    # non-finite when its epoch ends. The steps of a diverging run raise
    # floating-point warnings on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n).tolist() if config.shuffle else range(n)
            for i in order:
                rho = sgd_step(w, rho, rows[i], target_list[i], eta, l2)
            errors = z @ w + rho - targets
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


def save_model(model: LinearModel | EdgeModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(model, LinearModel):
            fh.write("kind\tlinear\n")
            fh.write(f"{model.alpha!r}\t{model.beta!r}\n")
        else:
            fh.write("kind\tedge\n")
            for (a, b), w in zip(model.edges, model.weight_values):
                fh.write(f"{a}\t{b}\t{float(w)!r}\n")
            fh.write(f"rho\t{model.rho!r}\n")


def load_model(path: str | Path) -> LinearModel | EdgeModel:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or not lines[0].startswith("kind\t"):
        raise ValueError(f"{path}: missing kind header")
    kind = lines[0].split("\t")[1]
    if kind == "linear":
        if len(lines) != 2:
            raise ValueError(f"{path}: malformed linear model")
        alpha, beta = (float(v) for v in lines[1].split("\t"))
        return LinearModel(alpha=alpha, beta=beta)
    if kind == "edge":
        if len(lines) < 2 or not lines[-1].startswith("rho\t"):
            raise ValueError(f"{path}: malformed edge model")
        weights: dict[Edge, float] = {}
        for row in lines[1:-1]:
            a, b, w = row.split("\t")
            weights[(a, b)] = float(w)
        rho = float(lines[-1].split("\t")[1])
        return EdgeModel.from_weights(weights, rho)
    raise ValueError(f"{path}: unknown model kind {kind!r}")
