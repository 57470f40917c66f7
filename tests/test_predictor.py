"""Predictor tests: predictions, gradients, SGD training and evaluation."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentpop import predictor
from sentpop.predictor import (
    PREDICTOR_KINDS,
    EdgeModel,
    LinearModel,
    TopicSample,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_model,
    make_samples,
    save_model,
    split_train_test,
    train,
)
from sentpop.topics import GapDataset, Topic

from conftest import assert_raises
from oracles import (
    closed_form_linear_fit,
    gradient_edge,
    gradient_edge_model,
    gradient_linear,
    least_squares_floor,
    loss,
    object_per_step_train,
    predict_edge,
    predict_linear,
    primal_per_step_train,
    sgd_step,
    standardize,
)

EDGES = (("a", "b"), ("a", "c"), ("b", "c"))


def sample(edge_energies, target, topic="t", edges=EDGES):
    arr = np.asarray(edge_energies, dtype=np.float64)
    return TopicSample(
        topic=topic,
        edges=edges,
        edge_energies=arr,
        total_energy=float(np.sum(arr)),
        target=float(target),
    )


def random_samples(rng, n_edges=5, n_samples=12, targets=None):
    edges = tuple((f"u{i}", f"v{i}") for i in range(n_edges))
    feats = rng.uniform(0, 1, size=(n_samples, n_edges))
    if targets is None:
        targets = rng.uniform(5, 50, n_samples)
    return [
        sample(feats[i], targets[i], topic=f"t{i}", edges=edges)
        for i in range(n_samples)
    ]


class TestSplit:
    def _dataset(self, n):
        topics = tuple(Topic(f"h{i}", 0, 10 + i) for i in range(n))
        return GapDataset(gap=1, topics=topics).topics

    def test_even_split(self):
        train_t, test_t = split_train_test(self._dataset(10), rng_seed=1)
        assert len(train_t) == 5 and len(test_t) == 5

    def test_odd_split_gives_train_the_extra_topic(self):
        train_t, test_t = split_train_test(self._dataset(7), rng_seed=1)
        assert len(train_t) == 4 and len(test_t) == 3

    @pytest.mark.parametrize("n", range(2, 22))
    def test_sizes_across_n(self, n):
        train_t, test_t = split_train_test(self._dataset(n), rng_seed=0)
        assert len(train_t) == (n + 1) // 2
        assert len(test_t) == n // 2
        assert {t.hashtag for t in train_t} | {t.hashtag for t in test_t} == {
            f"h{i}" for i in range(n)
        }

    def test_deterministic_given_seed(self):
        a = split_train_test(self._dataset(9), rng_seed=42)
        b = split_train_test(self._dataset(9), rng_seed=42)
        assert a == b
        c = split_train_test(self._dataset(9), rng_seed=43)
        assert a != c

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_train_test(self._dataset(1), rng_seed=0)


class TestPredict:
    def test_linear_identity(self):
        assert predict_linear(LinearModel(1.0, 0.0), 5.0) == 5.0

    def test_linear_constant(self):
        assert predict_linear(LinearModel(0.0, 4.5), 123.0) == 4.5

    def test_linear_arithmetic(self):
        assert predict_linear(LinearModel(2.0, 3.0), 10.0) == 23.0

    def test_edge_zero_weights(self):
        model = EdgeModel(EDGES, np.zeros(3), rho=7.0)
        assert predict_edge(model, sample([0.3, 0.4, 0.5], 0.0)) == 7.0

    def test_edge_unit_weights_reduce_to_total(self):
        model = EdgeModel(EDGES, np.ones(3), rho=2.0)
        s = sample([0.3, 0.4, 0.5], 0.0)
        assert predict_edge(model, s) == pytest.approx(s.total_energy + 2.0, rel=1e-12)

    def test_edge_matches_scalar_dot(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, 3)
        model = EdgeModel(EDGES, w, rho=1.5)
        s = sample(rng.uniform(0, 1, 3), 0.0)
        expected = sum(float(a) * float(b) for a, b in zip(w, s.edge_energies)) + 1.5
        assert predict_edge(model, s) == pytest.approx(expected, abs=1e-9)

    def test_edge_set_mismatch(self):
        model = EdgeModel(EDGES, np.zeros(3), rho=0.0)
        other = sample([1.0], 0.0, edges=(("x", "y"),))
        with pytest.raises(ValueError, match="edge set"):
            predict_edge(model, other)

    def test_a_mismatched_sample_in_a_batch_still_raises(self):
        # the batch compares each distinct edges tuple once, not each sample
        model = EdgeModel(EDGES, np.ones(3), rho=0.0)
        batch = [sample([0.1, 0.2, 0.3], float(i), topic=f"t{i}") for i in range(4)]
        batch.append(sample([0.5, 0.5, 0.5], 9.0, topic="copy", edges=tuple(list(EDGES))))
        assert len(evaluate(model, batch).residuals) == 5
        batch.insert(2, sample([0.1, 0.2], 0.0, topic="odd", edges=EDGES[:2]))
        with pytest.raises(ValueError, match="'odd' covers a different edge set"):
            evaluate(model, batch)

    def test_linear_batch_is_the_array_expression_bit_for_bit(self):
        rng = np.random.default_rng(6)
        energies = rng.uniform(-1e3, 1e3, 50)
        model = LinearModel(float(rng.normal()), float(rng.normal(0.0, 100.0)))
        samples = [sample([e], 0.0, edges=(("a", "b"),)) for e in energies]
        predicted = predictor._predict_batch(model, samples)
        assert all(type(p) is float for p in predicted)
        assert predicted == (model.alpha * energies + model.beta).tolist()


class TestLoss:
    def test_perfect_predictions(self):
        model = LinearModel(2.0, 1.0)
        samples = [sample([1, 1, 1], 2.0 * 3.0 + 1.0)]
        assert loss(model, samples) == 0.0

    def test_single_sample_error_two(self):
        model = LinearModel(0.0, 0.0)
        samples = [sample([1, 1, 0], -2.0)]  # prediction 0, error 2
        assert loss(model, samples) == 2.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        samples = random_samples(rng)
        model = EdgeModel(samples[0].edges, rng.uniform(-2, 2, 5), rho=0.7)
        naive = sum((predict_edge(model, s) - s.target) ** 2 for s in samples)
        naive /= 2 * len(samples)
        assert loss(model, samples) == pytest.approx(naive, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss(LinearModel(0.0, 0.0), [])


class TestGradients:
    def test_zero_at_perfect_fit(self):
        samples = [sample([1, 2, 3], 2.0 * 6.0 + 1.0), sample([2, 2, 2], 2.0 * 6.0 + 1.0)]
        d_alpha, d_beta = gradient_linear(LinearModel(2.0, 1.0), samples)
        assert d_alpha == 0.0 and d_beta == 0.0
        edge_model = EdgeModel(EDGES, np.full(3, 2.0), rho=1.0)
        grad_w, d_rho = gradient_edge_model(edge_model, samples)
        assert np.all(grad_w == 0.0) and d_rho == 0.0

    def test_single_sample_trace(self):
        # prediction error 2 on one sample, edge feature 0.5 -> gradient 1.0
        s = sample([0.5, 0.0, 0.0], 0.0)
        model = EdgeModel(EDGES, np.zeros(3), rho=2.0)
        assert gradient_edge(model, [s], EDGES[0]) == 1.0

    def test_unknown_edge_rejected(self):
        model = EdgeModel(EDGES, np.zeros(3), rho=0.0)
        with pytest.raises(ValueError, match="not in the model"):
            gradient_edge(model, [sample([0, 0, 0], 1.0)], ("q", "r"))

    @staticmethod
    def _fd(loss_at, h=1e-6):
        return (loss_at(+h) - loss_at(-h)) / (2 * h)

    def test_linear_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            samples = random_samples(rng, n_edges=4, n_samples=int(rng.integers(2, 15)))
            model = LinearModel(float(rng.normal()), float(rng.normal()))
            d_alpha, d_beta = gradient_linear(model, samples)
            fd_alpha = self._fd(lambda h: loss(LinearModel(model.alpha + h, model.beta), samples))
            fd_beta = self._fd(lambda h: loss(LinearModel(model.alpha, model.beta + h), samples))
            assert d_alpha == pytest.approx(fd_alpha, rel=1e-5)
            assert d_beta == pytest.approx(fd_beta, rel=1e-5)

    def test_edge_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        samples = random_samples(rng, n_edges=6, n_samples=10)
        edges = samples[0].edges
        w = rng.normal(size=6)
        model = EdgeModel(edges, w, rho=float(rng.normal()))
        grad_w, d_rho = gradient_edge_model(model, samples)
        for i in range(6):
            def loss_at(h, i=i):
                w2 = w.copy()
                w2[i] += h
                return loss(EdgeModel(edges, w2, model.rho), samples)

            assert grad_w[i] == pytest.approx(self._fd(loss_at), rel=1e-5)
        fd_rho = self._fd(lambda h: loss(EdgeModel(edges, w, model.rho + h), samples))
        assert d_rho == pytest.approx(fd_rho, rel=1e-5)


class TestSgdStep:
    def test_zero_gradient_leaves_model_unchanged(self):
        samples = [sample([1, 0, 0], 3.0)]
        model = LinearModel(3.0, 0.0)  # exact fit: prediction 3.0
        stepped = sgd_step(model, samples, TrainConfig(learning_rate=0.5))
        assert stepped == model

    def test_unit_gradient_moves_by_eta(self):
        # error 1 with zero features: only the intercept moves, by -eta
        s = sample([0, 0, 0], -1.0)
        model = LinearModel(0.0, 0.0)
        stepped = sgd_step(model, [s], TrainConfig(learning_rate=0.1))
        assert stepped.alpha == 0.0
        assert stepped.beta == pytest.approx(-0.1, abs=1e-15)

    def test_two_step_hand_unrolled_trace(self):
        cfg = TrainConfig(learning_rate=0.1)
        s1 = sample([2, 0, 0], 1.0)  # E = 2
        s2 = sample([1, 0, 0], 3.0)  # E = 1
        model = sgd_step(LinearModel(0.0, 0.0), [s1], cfg)
        # error -1: alpha += 0.1*2, beta += 0.1
        assert model.alpha == pytest.approx(0.2, abs=1e-15)
        assert model.beta == pytest.approx(0.1, abs=1e-15)
        model = sgd_step(model, [s2], cfg)
        # prediction 0.3, error -2.7: alpha += 0.27, beta += 0.27
        assert model.alpha == pytest.approx(0.47, abs=1e-12)
        assert model.beta == pytest.approx(0.37, abs=1e-12)

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(12)
        samples = random_samples(rng, n_edges=4, n_samples=20)
        model = EdgeModel(samples[0].edges, np.zeros(4), rho=0.0)
        cfg = TrainConfig(learning_rate=0.002)
        losses = [loss(model, samples)]
        for _ in range(60):
            model = sgd_step(model, samples, cfg)
            losses.append(loss(model, samples))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTrain:
    def test_recovers_noiseless_linear_relation(self):
        rng = np.random.default_rng(5)
        energies = rng.uniform(1, 10, 40)
        samples = [sample([e / 3] * 3, 3 * e + 5, topic=f"t{i}") for i, e in enumerate(energies)]
        result = train("linear", samples, TrainConfig())
        oracle = closed_form_linear_fit(
            [s.total_energy for s in samples], [s.target for s in samples]
        )
        assert evaluate(result.model, samples).rse < 1e-6
        assert result.model.alpha == pytest.approx(oracle.alpha, rel=1e-3)
        assert result.model.beta == pytest.approx(oracle.beta, rel=1e-3)

    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(6)
        samples = random_samples(rng)
        result = train("linear", samples, TrainConfig(learning_rate=0.0, epochs=10))
        assert result.model == LinearModel(0.0, 0.0)
        assert len(set(result.loss_curve)) == 1  # flat curve

    def test_reports_a_plateau_on_the_last_allowed_epoch(self):
        # a zero step leaves the loss flat, so the second epoch plateaus
        samples = random_samples(np.random.default_rng(6))
        for epochs, plateaued in [(1, False), (2, True), (10, True)]:
            result = train("linear", samples, TrainConfig(learning_rate=0.0, epochs=epochs))
            assert len(result.loss_curve) == min(epochs, 2)
            assert result.plateaued is plateaued, epochs

    def test_a_worsening_epoch_is_not_a_plateau(self):
        # every epoch raises the loss, each time by less than stop_tol x the previous loss
        samples = random_samples(np.random.default_rng(8), n_edges=3, n_samples=8)
        config = TrainConfig(learning_rate=1.0, epochs=4, stop_tol=1e18)
        for trainer in (train, object_per_step_train):
            result = trainer("edge", samples, config)
            curve = result.loss_curve
            assert all(0.0 < b - a < config.stop_tol for a, b in zip(curve, curve[1:]))
            assert len(curve) == 4 and not result.plateaued

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_a_plateau_stop_truncates_the_unstopped_run(self, kind):
        # the stop changes no shuffle or step: the stopped run is a prefix
        samples = random_samples(np.random.default_rng(12), n_edges=4, n_samples=15)
        config = TrainConfig(rng_seed=3)
        stopped = train(kind, samples, config)
        k = len(stopped.loss_curve)
        assert stopped.plateaued and k < config.epochs
        full = train(kind, samples, replace(config, stop_tol=0.0))
        assert len(full.loss_curve) == config.epochs
        assert full.loss_curve[:k] == stopped.loss_curve
        # parameters and curve, bit for bit, of the unstopped run cut at k epochs
        cut = replace(config, stop_tol=0.0, epochs=k)
        assert _outcome(kind, samples, cut, train)[1:3] == (
            _outcome(kind, samples, config, train)[1:3]
        )

    @pytest.mark.parametrize("kind,rows,expected", [
        # total energies 3, 6, 9: z = -1.22, 0, 1.22, so max |z|^2 = 9/6
        ("linear", [[1, 1, 1], [2, 2, 2], [3, 3, 3]], 0.1 * (1.5 + 1.0)),
        # two rows per column: z = (-1, -1, -1) and (1, 1, 1), so |z|^2 = 3
        ("edge", [[0, 1, 0], [2, 5, 2]], 0.1 * (3.0 + 1.0)),
    ])
    def test_reports_the_largest_kaczmarz_relaxation(self, kind, rows, expected):
        samples = [sample(r, 1.0 + i, topic=f"t{i}") for i, r in enumerate(rows)]
        config = TrainConfig(learning_rate=0.1, epochs=1)
        for trainer in (train, object_per_step_train):
            omega_max = trainer(kind, samples, config).omega_max
            assert omega_max == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        samples = random_samples(rng, n_edges=4, n_samples=16)
        cfg = TrainConfig(epochs=50, rng_seed=11)
        a = train("edge", samples, cfg)
        b = train("edge", samples, cfg)
        assert np.array_equal(a.model.weight_values, b.model.weight_values)
        assert a.model.rho == b.model.rho
        assert a.loss_curve == b.loss_curve

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(8)
        samples = random_samples(rng, n_edges=3, n_samples=8)
        with pytest.raises(TrainingDiverged) as err:
            train("edge", samples, TrainConfig(learning_rate=1e6, epochs=50, stop_tol=0.0))
        assert err.value.epoch == 3

    def test_loss_curve_descends_on_average(self):
        rng = np.random.default_rng(9)
        samples = random_samples(rng, n_edges=3, n_samples=20)
        result = train("edge", samples, TrainConfig(epochs=100))
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            train("quadratic", [sample([1, 1, 1], 2.0)], TrainConfig())


@pytest.mark.parametrize("name, value", [
    ("learning_rate", np.nan), ("learning_rate", np.inf), ("learning_rate", -1.0),
    ("stop_tol", np.nan), ("stop_tol", np.inf), ("stop_tol", -1.0),
])
def test_config_rejects_a_non_finite_or_negative_rate(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative$"):
        TrainConfig(**{name: value})


def test_sgd_step_moves_its_own_coefficient_in_place():
    # prediction (1, 2, 0.5) . (0.5, 0.25, 2) = 2 against target 0, so error 2:
    # coefficient 1 moves by -eta * 2, the others stay
    c = np.array([0.5, 0.25, 2.0])
    assert predictor.sgd_step(c, 1, np.array([1.0, 2.0, 0.5]), 0.0, 0.1) is None
    assert c.tolist() == [0.5, 0.25 - 0.1 * 2.0, 2.0]


def test_train_calls_sgd_step_once_per_sample_and_epoch(monkeypatch):
    calls = []
    original = predictor.sgd_step

    def counting(c, i, gram_row, target, eta):
        calls.append((len(c), i, gram_row.copy(), target))
        return original(c, i, gram_row, target, eta)

    monkeypatch.setattr(predictor, "sgd_step", counting)
    # 9 samples of 30 edges: each step reduces over 9 Gram entries, not 30 features
    samples = random_samples(np.random.default_rng(4), n_edges=30, n_samples=9)
    for kind, feats in (
        ("linear", np.array([[s.total_energy] for s in samples])),
        ("edge", np.stack([s.edge_energies for s in samples])),
    ):
        calls.clear()
        result = train(kind, samples, TrainConfig(learning_rate=1e-3, epochs=7, stop_tol=0.0))
        assert len(result.loss_curve) == 7
        assert len(calls) == 7 * 9
        z = standardize(feats)[0]
        for n, i, gram_row, target in calls:
            assert n == 9 and gram_row.shape == (9,) and target == samples[i].target
            np.testing.assert_allclose(gram_row, z @ z[i] + 1.0, rtol=1e-12)


def test_standardized_weights_lie_in_the_row_space_of_the_train_split():
    # 8 topics of 40 edges: the weights z^T c have no component in null(z),
    # which holds 33 of the 40 dimensions (the rows sum to 0 once centred)
    rng = np.random.default_rng(21)
    samples = random_samples(rng, n_edges=40, n_samples=8)
    feats = np.stack([s.edge_energies for s in samples])
    z, _, sd = standardize(feats)
    model = train("edge", samples, TrainConfig(learning_rate=0.01, epochs=200)).model
    w = model.weight_values * sd
    _, singular, vt = np.linalg.svd(z, full_matrices=False)
    basis = vt[singular > 1e-10 * singular[0]]
    assert basis.shape == (7, 40)
    null_part = w - basis.T @ (basis @ w)
    assert np.linalg.norm(null_part) <= 1e-12 * np.linalg.norm(w)


def _outcome(kind, samples, config, trainer):
    """Parameters and loss curve as raw bytes and the stop reason, or the epoch
    in which training diverged."""
    try:
        result = trainer(kind, samples, config)
    except TrainingDiverged as exc:
        return ("diverged", exc.epoch)
    model = result.model
    if kind == "linear":
        params = [model.alpha, model.beta]
    else:
        assert model.edges == samples[0].edges
        params = [*model.weight_values, model.rho]
    return (
        "trained",
        np.array(params, dtype=np.float64).tobytes(),
        np.array(result.loss_curve, dtype=np.float64).tobytes(),
        result.plateaued,
    )


# Training runs over the range the trainer must handle: no features to 50,
# learning rates from a no-op to overflow, and NaN, infinite or huge values
# planted in the features or targets.
_TRAINING_RUNS = dict(
    kind=st.sampled_from(PREDICTOR_KINDS),
    d=st.sampled_from([0, 1, 2, 50]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    constant_column=st.booleans(),
    eta=st.sampled_from([0.0, 1e-3, 0.05, 0.8, 30.0, 1e6, 1e150, 1e300]),
    epochs=st.integers(1, 25),
    stop_tol=st.sampled_from([0.0, 1e-9, 1e-5, 1e-3]),
    # (flat index into the features with the targets as a last column, value)
    extremes=st.lists(
        st.tuples(
            st.integers(0, 2**16),
            st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]), st.floats()),
        ),
        max_size=2,
    ),
)


def _training_run(d, n, seed, constant_column, eta, epochs, stop_tol, extremes):
    """The feature matrix, samples and config of one drawn training run."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 1, (n, d)) * rng.uniform(0.1, 100)
    if constant_column and d:
        feats[:, 0] = 0.5
    values = np.hstack([feats, rng.uniform(-20, 200, (n, 1))])
    for k, value in extremes:
        values.flat[k % values.size] = value
    config = TrainConfig(
        learning_rate=eta, epochs=epochs, rng_seed=seed % 1000, stop_tol=stop_tol
    )
    # a total energy of extreme values may overflow
    with np.errstate(all="ignore"):
        samples = _matrix_samples(values[:, :d], values[:, d])
    return values[:, :d], samples, config


@settings(max_examples=150, deadline=None)
@given(**_TRAINING_RUNS)
def test_train_matches_object_per_step_oracle_bit_for_bit(kind, **run):
    _, samples, config = _training_run(**run)
    # extreme values and diverging runs overflow on the way; both trainers
    # report it the same way
    with np.errstate(all="ignore"):
        assert _outcome(kind, samples, config, train) == _outcome(
            kind, samples, config, object_per_step_train
        )


def _trained(trainer, kind, samples, config):
    try:
        return trainer(kind, samples, config)
    except TrainingDiverged:
        return None


def _parameters(kind, model):
    if kind == "linear":
        return np.array([model.alpha]), model.beta
    return model.weight_values, model.rho


@settings(max_examples=150, deadline=None)
@given(**_TRAINING_RUNS)
def test_train_matches_the_primal_definition_up_to_rounding(kind, **run):
    """The dual run is the primal one in exact arithmetic; in floating point,
    where no step expands its residual (omega_max < 2), it stops at the same
    epoch for the same reason, and its loss curve and parameters agree within
    a tolerance sized from 20,000 draws of these runs: 7,015 trained with
    omega_max < 2, the loss curves within 9.1e-15 of the curve's largest loss
    and the parameters within 2.3e-11 of the standardized parameters' largest
    magnitude (see below). Diverging under one definition only took
    omega_max >= 2 (6 draws)."""
    x, samples, config = _training_run(**run)
    with np.errstate(all="ignore"):
        got = _trained(train, kind, samples, config)
        want = _trained(primal_per_step_train, kind, samples, config)
        if got is None or want is None:
            for result in (got, want):
                assert result is None or result.omega_max >= 2.0
            return
        if want.omega_max >= 2.0:
            return
        assert len(got.loss_curve) == len(want.loss_curve)
        assert got.plateaued == want.plateaued
        a, b = np.array(got.loss_curve), np.array(want.loss_curve)
        assert np.abs(a - b).max() <= 1e-12 * b.max()
        # a raw weight is w_j / sd_j and the raw intercept rho - sum(w_j mu_j / sd_j)
        # in the standardized w and rho: measure both in units of the
        # largest of those, carried to raw units
        _, mu, sd = standardize(x if kind == "edge" else x.sum(axis=1, keepdims=True))
        (w_got, rho_got), (w_want, rho_want) = (
            _parameters(kind, r.model) for r in (got, want)
        )
        scale = max(np.abs(w_want * sd).max(initial=0.0), abs(rho_want + float(w_want @ mu)))
        assert np.all(np.abs(w_got - w_want) * sd <= 1e-9 * scale)
        assert abs(rho_got - rho_want) <= 1e-9 * scale * (1.0 + float(np.sum(np.abs(mu) / sd)))


def _matrix_samples(x, t):
    edges = tuple((f"u{j}", f"v{j}") for j in range(x.shape[1]))
    return [sample(x[i], t[i], topic=f"t{i}", edges=edges) for i in range(len(t))]


def _with(values, index, value):
    values = np.array(values, dtype=np.float64)
    values[index] = value
    return values


_X = np.random.default_rng(8).uniform(0, 1, (8, 3))
_T = np.random.default_rng(9).uniform(5, 50, 8)

DIVERGING = [
    pytest.param("edge", _with(_X, (2, 1), np.nan), _T, {}, id="nan-feature"),
    pytest.param("linear", _with(_X, (2, 1), np.inf), _T, {}, id="inf-feature"),
    pytest.param("edge", _X, _with(_T, 3, -np.inf), {}, id="infinite-target"),
    pytest.param("edge", _X, _with(_T, 3, np.nan), {}, id="nan-target"),
    pytest.param("edge", _X, _T, {"learning_rate": 1e300}, id="gradient-overflows"),
    pytest.param("edge", np.zeros((2, 0)), [1.0, np.inf], {},
                 id="no-features-infinite-target"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, x, t, config", DIVERGING)
def test_train_reports_divergence_in_its_epoch(kind, x, t, config):
    # NaN and inf absorb every later step, so the end-of-epoch loss check raises
    # in the epoch whose step first left the finite range; no step warns on the way
    config = TrainConfig(epochs=50, stop_tol=0.0, **config)
    samples = _matrix_samples(np.asarray(x), np.asarray(t))
    with pytest.raises(TrainingDiverged, match="^loss became non-finite at epoch 0$") as err:
        train(kind, samples, config)
    assert err.value.epoch == 0
    # so does the primal definition, whose steps are not under test here
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        primal_per_step_train(kind, samples, config)
    assert err.value.epoch == 0


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_default_stop_ends_near_the_least_squares_floor(kind, seed):
    # planted noisy linear data of full rank; over seeds 0-19 the plateau stop
    # left at most 0.15% (edge) and 0.04% (linear) above L*
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, (40, 5))
    t = x @ rng.uniform(-3, 3, 5) + 20 + rng.normal(0, 1, 40)
    feats = x if kind == "edge" else x.sum(axis=1, keepdims=True)
    floor = least_squares_floor(standardize(feats)[0], t)
    result = train(kind, _matrix_samples(x, t), TrainConfig())
    assert result.plateaued
    assert floor * (1 - 1e-12) <= result.loss_curve[-1] <= 1.01 * floor


@pytest.mark.parametrize("seed", range(5))
def test_default_stop_ends_near_the_floor_of_a_rank_deficient_split(seed):
    # 48 topics x 51 edges of rank 35 with the intercept, the shape of the
    # train-edge workload's gap-1 split, trained at its --eta 0.001 and epoch cap;
    # over seeds 0-19 and noise 1, 3 and 10 the stop left at most 10.6% above L*
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, (48, 34))
    x = base[:, np.concatenate([np.arange(34), rng.integers(0, 34, 17)])]
    t = x @ rng.normal(0, 10, 51) + rng.normal(0, 3, 48) + 30
    z = standardize(x)[0]
    assert np.linalg.matrix_rank(np.hstack([z, np.ones((48, 1))])) == 35
    floor = least_squares_floor(z, t)
    result = train("edge", _matrix_samples(x, t), TrainConfig(learning_rate=0.001, epochs=2000))
    assert result.plateaued
    assert floor * (1 - 1e-12) <= result.loss_curve[-1] <= 1.25 * floor


def test_tied_edge_weights_reproduce_linear_hypothesis():
    rng = np.random.default_rng(10)
    samples = random_samples(rng, n_edges=7, n_samples=15)
    for _ in range(20):
        alpha, beta = rng.normal(size=2)
        linear = LinearModel(float(alpha), float(beta))
        tied = EdgeModel(samples[0].edges, np.full(7, float(alpha)), rho=float(beta))
        for s in samples:
            assert predict_edge(tied, s) == pytest.approx(
                predict_linear(linear, s.total_energy), rel=1e-12, abs=1e-12
            )


def test_closed_form_fit_is_exact_on_linear_data():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = closed_form_linear_fit(x, 2.5 * x - 3.0)
    assert fit.alpha == pytest.approx(2.5, abs=1e-12)
    assert fit.beta == pytest.approx(-3.0, abs=1e-12)


def test_evaluate_mean_predictor_has_unit_rse():
    targets = [1.0, 2.0, 3.0, 6.0]
    samples = [sample([0, 0, 0], t, topic=f"t{i}") for i, t in enumerate(targets)]
    model = LinearModel(0.0, sum(targets) / len(targets))
    result = evaluate(model, samples)
    assert result.rse == pytest.approx(1.0, abs=1e-12)
    assert result.r_squared == pytest.approx(0.0, abs=1e-12)
    assert len(result.residuals) == 4


def test_model_files_round_trip(tmp_path):
    linear = LinearModel(alpha=1.25, beta=-0.5)
    path = tmp_path / "linear.tsv"
    save_model(linear, path)
    assert load_model(path) == linear

    rng = np.random.default_rng(1)
    edge = EdgeModel(EDGES, rng.normal(size=3), rho=0.125)
    path = tmp_path / "edge.tsv"
    save_model(edge, path)
    loaded = load_model(path)
    assert loaded.edges == edge.edges
    assert np.array_equal(loaded.weight_values, edge.weight_values)
    assert loaded.rho == edge.rho


def test_save_model_returns_its_line_count(tmp_path):
    path = tmp_path / "edge.tsv"
    assert save_model(EdgeModel(EDGES, np.zeros(3), rho=0.0), path) == 5
    assert len(path.read_text().splitlines()) == 5


@pytest.mark.parametrize("text, message", [
    ("", "missing kind header"),
    ("kind\n", "missing kind header"),
    ("kind\tlinear\n1.0\n", "malformed linear model"),
    ("kind\tlinear\n1.0\t2.0\t3.0\n", "malformed linear model"),
    ("kind\tedge\na\tb\t1.0\n", "malformed edge model"),
    ("kind\tedge\na\tb\nrho\t0.5\n", "malformed edge model"),
    ("kind\tedge\na\tb\t1.0\nrho\t0.5\t1\n", "malformed edge model"),
    # save_model writes each edge once, in sorted order
    ("kind\tedge\na\tb\t1.0\na\tb\t2.0\nrho\t0.5\n", "malformed edge model"),
    ("kind\tedge\nb\tc\t1.0\na\tb\t2.0\nrho\t0.5\n", "malformed edge model"),
    ("kind\tcubic\n", "unknown model kind 'cubic'"),
])
def test_malformed_model_file_rejected(tmp_path, text, message):
    path = tmp_path / "model.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_model(path)


def test_make_samples_total_matches_community_energy():
    from sentpop.energy import EnergyFunction, community_energy_mrf
    from sentpop.graph import SocialGraph, extract_community

    rng = np.random.default_rng(13)
    g = SocialGraph()
    for i in range(8):
        g.add_edge(f"n{i}", f"n{(i + 3) % 8}")
    community = extract_community(g, "n0", 8)
    topics = [Topic(f"h{k}", 0, 10 + k, key_phrases=("p",)) for k in range(3)]
    vectors = {
        t.hashtag: {f"n{i}": rng.uniform(-1, 1, 4) for i in range(8)} for t in topics
    }
    samples = make_samples(community, vectors, topics)
    for s, t in zip(samples, topics):
        expected = community_energy_mrf(community, vectors[t.hashtag], EnergyFunction.COSINE)
        assert s.total_energy == expected.value
        assert s.target == float(t.popularity)


def _energy_fixture(n_topics):
    from sentpop.graph import SocialGraph, extract_community

    rng = np.random.default_rng(17)
    g = SocialGraph()
    for i in range(8):
        g.add_edge(f"n{i}", f"n{(i + 3) % 8}")
    community = extract_community(g, "n0", 8)
    topics = [Topic(f"h{k}", 0, 10 + 7 * k, key_phrases=("p",)) for k in range(n_topics)]
    vectors = {
        t.hashtag: {f"n{i}": rng.uniform(-1, 1, 4) for i in range(8)} for t in topics
    }
    return community, topics, vectors


def test_energy_samples_train_and_evaluate_the_linear_model_of_make_samples():
    """The energy stage's mrf value is make_samples' total_energy, so a linear model
    fed from it is the same to the bit, and so is its evaluation."""
    from sentpop.energy import EnergyFunction, community_energy_mrf

    community, topics, vectors = _energy_fixture(10)
    function = EnergyFunction.AVGLEN
    energies = {
        t.hashtag: community_energy_mrf(community, vectors[t.hashtag], function).value
        for t in topics
    }
    config = TrainConfig(epochs=200, rng_seed=4)
    runs = []
    for samples_of in (
        lambda ts: make_samples(community, vectors, ts, function),
        lambda ts: predictor.energy_samples(energies, ts),
    ):
        result = train("linear", samples_of(topics[:6]), config)
        scored = evaluate(result.model, samples_of(topics[6:]))
        runs.append((result.model, result.loss_curve, scored))
    (model_a, curve_a, eval_a), (model_b, curve_b, eval_b) = runs
    assert model_a == model_b and curve_a == curve_b
    assert (eval_a.rse, eval_a.residuals) == (eval_b.rse, eval_b.residuals)
    samples = predictor.energy_samples(energies, topics[:2])
    assert [(s.edges, len(s.edge_energies)) for s in samples] == [((), 0), ((), 0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_standardize_scales_a_column_whose_squares_overflow():
    huge = [1e200, -1e200, 3e200, 2e199]
    # ten decades smaller, and still far above rounding noise next to 3e200
    other = [0.5e190, 1.5e190, 0.25e190, 2e190]
    samples = _matrix_samples(np.array([huge, other]).T, [10.0, 20.0, 5.0, 30.0])
    model = train("edge", samples, TrainConfig(learning_rate=0.05, epochs=50)).model
    weights = model.weight_values
    assert np.all(np.isfinite(weights)) and np.isfinite(model.rho)
    assert weights[0] != 0.0 and weights[1] != 0.0
    z, mu, sd = predictor._standardize(np.array([huge, other]).T)
    assert np.allclose(z.mean(axis=0), 0.0) and np.allclose(z.std(axis=0), 1.0)
    assert mu[0] == pytest.approx(np.mean(huge)) and sd[0] == pytest.approx(
        float(np.std(np.array(huge) / 1e200)) * 1e200
    )


@pytest.mark.parametrize("d", [1, 2, 50, 3010])
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_standardize_is_numpys_std_bit_for_bit(n, d):
    """More than one column: squared deviations summed row by row, which is the
    order of numpy's axis-0 sum; one column: numpy's own pairwise ``std``."""
    rng = np.random.default_rng(n * 10_000 + d)
    values = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 8, size=d)
    values[:, 0] = 0.75  # constant
    values[:, -1] *= 2.0 ** rng.integers(-40, 40)  # a power of two scales exactly
    scaled = values.copy()
    _, exponents = np.frexp(np.maximum(scaled.max(axis=0), -scaled.min(axis=0)))
    np.ldexp(scaled, -exponents, out=scaled)
    mu, sd = scaled.mean(axis=0), scaled.std(axis=0)
    raw_sd = np.ldexp(sd, exponents)
    # a spread within 256 * eps of the largest entry is rounding noise
    constant = raw_sd <= 256 * np.finfo(np.float64).eps * np.abs(values).max()
    assert constant[0]
    z, got_mu, got_sd = predictor._standardize(values)
    assert np.array_equal(z, np.where(constant, 0.0, (scaled - mu) / np.where(constant, 1.0, sd)))
    assert np.array_equal(got_mu, np.ldexp(mu, exponents))
    assert np.array_equal(got_sd, np.where(constant, 1.0, raw_sd))


def test_standardize_counts_a_spread_within_rounding_of_the_matrix_as_constant():
    # 256 * eps times the largest entry, 3.0, is 1.7e-13: the second column's
    # spread is that of rounding, the third's is not
    values = np.array([[3.0, 0.0, 0.0], [1.0, 3.5e-17, 1e-12], [2.0, 0.0, 2e-12]])
    z, _, sd = predictor._standardize(values.copy())
    assert z[:, 1].tolist() == [0.0, 0.0, 0.0] and sd[1] == 1.0
    assert sd[2] == pytest.approx(np.std(values[:, 2]), rel=1e-15)
    assert np.allclose(z[:, [0, 2]].std(axis=0), 1.0)


def test_an_edge_orthogonal_up_to_rounding_on_train_gets_no_weight():
    """Members a and b are orthogonal in exact arithmetic on every train topic,
    where their cosine reads 0 or a rounded 3.9e-17, and not on the test topics;
    unit variance for that column would put a weight near 1e16 on the edge."""
    from sentpop.graph import CommunityGraph

    community = CommunityGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    vectors, train_topics, test_topics = {}, [], []
    for k in range(12):
        cos = 0.1 * (k % 9 + 1)  # the (c, d) edge's cosine, which popularity follows
        topic_vectors = {"a": np.array([0.1, 0.2, 0.3]), "c": np.array([1.0, 0.0, 0.0]),
                         "d": np.array([cos, np.sqrt(1.0 - cos * cos), 0.0])}
        if k >= 8:
            topic_vectors["b"] = np.array([0.3, 0.3, 0.3])
        elif k % 2:
            topic_vectors["b"] = np.array([-0.9, 0.0, 0.3])
        topic = Topic(f"h{k}", 0, 100 + round(50 * cos) + k % 3)
        vectors[topic.hashtag] = topic_vectors
        (test_topics if k >= 8 else train_topics).append(topic)
    samples = make_samples(community, vectors, train_topics)
    noise = sorted({float(s.edge_energies[0]) for s in samples})
    assert noise[0] == 0.0 and 0.0 < noise[1] < 1e-16 and len(noise) == 2
    model = train("edge", samples, TrainConfig(learning_rate=0.05)).model
    assert model.weight_values[0] == 0.0
    held_out = make_samples(community, vectors, test_topics)
    assert min(s.edge_energies[0] for s in held_out) > 0.5
    assert evaluate(model, held_out).rse < 0.01


_ODD = [sample([0.1, 0.2, 0.3], 1.0, topic="t0"),
        sample([0.1, 0.2], 2.0, topic="odd", edges=EDGES[:2])]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EdgeModel(EDGES, np.ones(2), 0.0),
                 "one weight per edge required", id="edge-model-weights"),
    pytest.param(lambda: TrainConfig(epochs=0), "epochs must be >= 1", id="epochs"),
    pytest.param(lambda: train("linear", [], TrainConfig()),
                 "train needs at least one sample", id="train-empty"),
    pytest.param(lambda: train("edge", _ODD, TrainConfig()),
                 "sample 'odd' covers a different edge set than sample 't0'",
                 id="train-edge-sets"),
    pytest.param(lambda: evaluate(LinearModel(1.0, 0.0), []),
                 "evaluate needs at least one sample", id="evaluate-empty"),
])
def test_rejected_input_raises_its_message(call, message):
    assert_raises(call, ValueError, message)
