"""Predictor tests: predictions, gradients, SGD training and evaluation."""

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

from oracles import (
    array_checked_sgd_step,
    closed_form_linear_fit,
    gradient_edge,
    gradient_edge_model,
    gradient_linear,
    least_squares_floor,
    loss,
    object_per_step_train,
    predict_edge,
    predict_linear,
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
        return GapDataset(gap=1, topics=topics)

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
        # the stop changes no shuffle, draw or step: the stopped run is a prefix
        samples = random_samples(np.random.default_rng(12), n_edges=4, n_samples=15)
        config = TrainConfig(init="uniform", rng_seed=3)
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
        cfg = TrainConfig(epochs=50, rng_seed=11, init="uniform")
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
        assert err.value.epoch is not None

    def test_loss_curve_descends_on_average(self):
        rng = np.random.default_rng(9)
        samples = random_samples(rng, n_edges=3, n_samples=20)
        result = train("edge", samples, TrainConfig(epochs=100))
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            train("quadratic", [sample([1, 1, 1], 2.0)], TrainConfig())


def test_sgd_step_updates_weights_in_place_and_returns_intercept():
    # error 2 on features (0.5, 0, 1): each weight moves by -eta * error * feature
    w = np.zeros(3)
    rho = predictor.sgd_step(w, 2.0, np.array([[0.5, 0.0, 1.0]]), 1.0, 0.0, 0.1, 0.0)
    assert w.tolist() == [-0.1, 0.0, -0.2]
    assert rho == pytest.approx(1.8, abs=1e-15)
    # zero error: only the L2 penalty moves the weight, never the intercept
    w = np.array([1.0])
    rho = predictor.sgd_step(w, 0.0, np.array([[0.0]]), 0.0, 0.0, 0.5, 0.2)
    assert w.tolist() == [0.9] and rho == 0.0
    with pytest.raises(TrainingDiverged, match="non-finite gradient"):
        predictor.sgd_step(np.zeros(2), np.inf, np.ones((1, 2)), 1.0, 0.0, 0.1, 0.0)


BIG = float(np.finfo(np.float64).max)


def _step_trace(step, w, rho, rows, targets, eta, l2):
    """Weights and intercept after each step, as raw bytes, ending with the step
    that raised and its message."""
    w = np.array(w, dtype=np.float64)
    trace = []
    with np.errstate(all="ignore"):
        for k, (row, target) in enumerate(zip(rows, targets)):
            row = np.array([row], dtype=np.float64)
            try:
                rho = step(w, rho, row, target, eta, l2)
            except TrainingDiverged as exc:
                trace.append(("raised", k, str(exc)))
                break
            trace.append((w.tobytes(), np.float64(rho).tobytes()))
    return trace


def _scalar_checked_step(w, rho, row, target, eta, l2):
    return predictor.sgd_step(w, rho, row, float(np.abs(row).max(initial=0.0)), target, eta, l2)


def _assert_same_steps(w, rho, rows, targets, eta, l2):
    expected = _step_trace(array_checked_sgd_step, w, rho, rows, targets, eta, l2)
    assert _step_trace(_scalar_checked_step, w, rho, rows, targets, eta, l2) == expected
    return expected


@pytest.mark.parametrize("w, rho, rows, targets, l2, raises", [
    # inf * 0 is NaN
    pytest.param([0.0, 0.0], np.inf, [[0.0, 0.0]], [0.0], 0.0, True,
                 id="all-zero-row-infinite-residual"),
    # no features at all: only the residual can diverge
    pytest.param([], 0.5, [[], []], [1.0, np.inf], 0.0, True, id="no-features"),
    pytest.param([], np.nan, [[]], [0.0], 0.0, True, id="no-features-nan-intercept"),
    pytest.param([], 0.5, [[], []], [1.0, -2.0], 1e-3, False, id="no-features-l2"),
    # a non-finite feature, after a finite step
    pytest.param([1.0, 0.0], 0.0, [[1.0, 2.0], [np.nan, 1.0]], [3.0, 0.0], 0.0, True,
                 id="nan-feature"),
    pytest.param([0.0, 0.0], 0.0, [[1.0, 2.0], [np.inf, 0.0]], [3.0, 0.0], 0.0, True,
                 id="inf-feature-zero-weight"),
    pytest.param([1.0, 1.0], 0.0, [[1.0, 2.0], [0.0, -np.inf]], [3.0, 0.0], 0.0, True,
                 id="inf-feature"),
    pytest.param([0.0, 1e10], 0.0, [[1e300, 1.0]], [0.0], 0.0, True,
                 id="gradient-overflows-finite-residual"),
    # err * row_max exactly at the largest float, then with err one ulp above
    pytest.param([0.0, 0.0], BIG / 2, [[2.0, -1.0]], [0.0], 0.0, False,
                 id="gradient-at-largest-float"),
    pytest.param([0.0, 0.0], np.nextafter(BIG / 2, np.inf), [[2.0, -1.0]], [0.0], 0.0, True,
                 id="gradient-one-ulp-past-largest-float"),
    # with a penalty, the penalty term and the sum can overflow on their own
    pytest.param([BIG, 0.0], 0.0, [[0.0, 0.0]], [0.0], 10.0, True,
                 id="l2-term-overflows"),
    pytest.param([1e300, 0.0], 0.0, [[1.0, 0.0]], [-1e308], 1e8, True,
                 id="l2-sum-overflows"),
    pytest.param([1.0, -2.0], 0.5, [[0.5, 1.0], [1.0, 0.0]], [1.0, 2.0], 1e-3, False,
                 id="l2-finite"),
    pytest.param([1.0, 0.0], 0.0, [[1.0, 1.0]], [1.0], np.inf, True,
                 id="l2-inf-zero-weight"),
    pytest.param([1.0, -1.0], 0.0, [[1.0, 1.0]], [1.0], np.inf, True,
                 id="l2-inf"),
])
def test_scalar_divergence_test_raises_at_the_array_checks_step(
    w, rho, rows, targets, l2, raises
):
    trace = _assert_same_steps(w, rho, rows, targets, 0.1, l2)
    assert (trace[-1][0] == "raised") is raises
    if raises:
        assert trace[-1] == ("raised", len(rows) - 1, "non-finite gradient")


_EXTREMES = st.sampled_from(
    [0.0, -0.0, 1e-300, 0.5, -3.0, 1e154, -1e200, 1e300, BIG, -BIG, np.inf, -np.inf, np.nan]
)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(0, 3),
    data=st.data(),
    eta=st.sampled_from([0.0, 1e-3, 0.5, 1e6, 1e300]),
    l2=st.sampled_from([0.0, 1e-3, 1e8, np.inf]),
)
def test_scalar_divergence_test_matches_the_array_check_on_extreme_values(d, data, eta, l2):
    value = st.one_of(_EXTREMES, st.floats(allow_nan=True, allow_infinity=True))
    vector = st.lists(value, min_size=d, max_size=d)
    n = data.draw(st.integers(1, 4))
    _assert_same_steps(
        data.draw(vector),
        data.draw(value),
        data.draw(st.lists(vector, min_size=n, max_size=n)),
        data.draw(st.lists(value, min_size=n, max_size=n)),
        eta,
        l2,
    )


def test_train_calls_sgd_step_once_per_sample_and_epoch(monkeypatch):
    calls = []
    original = predictor.sgd_step

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(predictor, "sgd_step", counting)
    samples = random_samples(np.random.default_rng(4), n_edges=4, n_samples=9)
    for kind in PREDICTOR_KINDS:
        calls.clear()
        result = train(kind, samples, TrainConfig(learning_rate=1e-3, epochs=7, stop_tol=0.0))
        assert len(result.loss_curve) == 7
        assert len(calls) == 7 * 9


def _outcome(kind, samples, config, trainer):
    """Parameters and loss curve as raw bytes and the stop reason, or the epoch
    and check that stopped training."""
    try:
        result = trainer(kind, samples, config)
    except TrainingDiverged as exc:
        return ("diverged", exc.epoch, "gradient" in str(exc))
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


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(PREDICTOR_KINDS),
    d=st.sampled_from([0, 1, 2, 50]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    constant_column=st.booleans(),
    init=st.sampled_from(["zeros", "uniform"]),
    l2=st.sampled_from([0.0, 1e-3, 0.5]),
    shuffle=st.booleans(),
    eta=st.sampled_from([0.0, 1e-3, 0.05, 0.8, 30.0, 1e6, 1e150]),
    epochs=st.integers(1, 25),
    stop_tol=st.sampled_from([0.0, 1e-9, 1e-5, 1e-3]),
)
def test_train_matches_object_per_step_oracle_bit_for_bit(
    kind, d, n, seed, constant_column, init, l2, shuffle, eta, epochs, stop_tol
):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 1, (n, d)) * rng.uniform(0.1, 100)
    if constant_column and d:
        feats[:, 0] = 0.5
    targets = rng.uniform(-20, 200, n)
    edges = tuple((f"u{j}", f"v{j}") for j in range(d))
    samples = [sample(feats[i], targets[i], topic=f"t{i}", edges=edges) for i in range(n)]
    config = TrainConfig(
        learning_rate=eta, epochs=epochs, init=init, rng_seed=seed % 1000,
        shuffle=shuffle, l2=l2, stop_tol=stop_tol,
    )
    # diverging runs overflow on the way; both trainers report it the same way
    with np.errstate(all="ignore"):
        assert _outcome(kind, samples, config, train) == _outcome(
            kind, samples, config, object_per_step_train
        )


def _floor_samples(x, t):
    edges = tuple((f"u{j}", f"v{j}") for j in range(x.shape[1]))
    return [sample(x[i], t[i], topic=f"t{i}", edges=edges) for i in range(len(t))]


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
    result = train(kind, _floor_samples(x, t), TrainConfig())
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
    result = train("edge", _floor_samples(x, t), TrainConfig(learning_rate=0.001, epochs=2000))
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
