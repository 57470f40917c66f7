"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The headline numbers of the original study come from a proprietary corpus and
are not reproducible at desk scale, so acceptance is property-based plus
reconstruction of planted ground truth from the synthetic generator.
"""

import math
import time
from dataclasses import replace
import numpy as np
from scipy import integrate

from sentpop.cli import main as cli_main
from sentpop.corpus import load_lexicon, stream_corpus
from sentpop.energy import (
    EnergyFunction,
    binary_entropy,
    clique_energy_avglen,
    clique_energy_cosine,
    community_energy_entropy,
    community_energy_mrf,
    edge_probability,
)
from sentpop.graph import SocialGraph, build_graph, extract_community
from sentpop.predictor import (
    EdgeModel,
    LinearModel,
    TopicSample,
    TrainConfig,
    evaluate,
    make_samples,
    split_train_test,
    train,
)
from sentpop.sentiment import (
    catalog_vectors,
    tweet_sentiment,
    user_topic_vector,
)
from sentpop.stats import Strength, classify_strength, pearson, rse
from sentpop.synth import (
    SYNTH_WINDOW,
    PlantedEdgeWeights,
    PlantedLinear,
    SynthConfig,
    generate,
    load_expected,
)
from sentpop.topics import Topic, dedupe_equal_popularity, gap_filter

from conftest import make_tweet
from oracles import closed_form_linear_fit, gradient_edge_model, gradient_linear, loss


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- independent scalar oracles (kept deliberately loop-based) -----------


def _norm(v) -> float:
    return math.sqrt(sum(float(x) * float(x) for x in v))


def _oracle_pair_energy(va, vb, function, m):
    na, nb = _norm(va), _norm(vb)
    if function == EnergyFunction.COSINE:
        dot = sum(float(x) * float(y) for x, y in zip(va, vb))
        return abs(dot) / (na * nb) if na * nb > 0 else 0.0
    return (na + nb) / 2.0


def _oracle_community(community, vectors, function, m, entropy):
    total = 0.0
    for a, b in sorted(community.edges):
        va = vectors.get(a, np.zeros(m))
        vb = vectors.get(b, np.zeros(m))
        value = _oracle_pair_energy(va, vb, function, m)
        if entropy:
            p = value if function == EnergyFunction.COSINE else value / math.sqrt(m)
            p = min(max(p, 0.0), 1.0)
            if 0.0 < p < 1.0:
                value = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
            else:
                value = 0.0
        total += value
    return total


def _random_community(rng, max_nodes=50, max_edges=200):
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i:03d}" for i in range(n)]
    edges = {(names[i - 1], names[i]) for i in range(1, n)}
    target = int(rng.integers(n - 1, max_edges + 1))
    attempts = 0
    while len(edges) < target and attempts < 4 * target:
        i, j = rng.choice(n, size=2, replace=False)
        edges.add(tuple(sorted((names[i], names[j]))))
        attempts += 1
    g = SocialGraph()
    for a, b in edges:
        g.add_edge(a, b)
    return extract_community(g, names[0], n), names


def test_criterion_1_energy_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        community, names = _random_community(rng)
        m = int(rng.integers(1, 12))
        vectors = {
            name: rng.uniform(-1, 1, m) for name in names if rng.random() < 0.8
        }
        for function in EnergyFunction:
            got_mrf = community_energy_mrf(community, vectors, function).value
            ref_mrf = _oracle_community(community, vectors, function, m, entropy=False)
            got_ent = community_energy_entropy(community, vectors, function).value
            ref_ent = _oracle_community(community, vectors, function, m, entropy=True)
            worst = max(worst, abs(got_mrf - ref_mrf), abs(got_ent - ref_ent))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"100 communities, max |diff| {worst:.2e} (<1e-9), {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_energy_bounds_and_symmetry():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        a, b = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        cos = clique_energy_cosine(a, b)
        avg = clique_energy_avglen(a, b)
        c = float(rng.uniform(0.1, 4.0)) * (1 if rng.random() < 0.5 else -1)
        ok &= 0.0 <= cos <= 1.0
        ok &= clique_energy_cosine(b, a) == cos
        ok &= abs(clique_energy_cosine(-a, b) - cos) < 1e-12
        ok &= abs(clique_energy_cosine(c * a, b) - cos) < 1e-9
        ok &= clique_energy_avglen(b, a) == avg
        ok &= 0.0 <= avg <= math.sqrt(m) + 1e-12
        p = edge_probability(a, b, EnergyFunction.AVGLEN)
        ok &= 0.0 <= binary_entropy(p) <= 1.0
    ok &= binary_entropy(0.0) == 0.0
    ok &= binary_entropy(1.0) == 0.0
    _report(2, ok, "1000 random pairs: bounds, symmetry, sign-flip, scale, entropy edges")


def test_criterion_3_sentiment_arithmetic(lexicon):
    ok = tweet_sentiment(2, 1) == 1 / 3
    topic = Topic("k", 0, 1, key_phrases=("alpha", "bravo", "charlie"))
    rng = np.random.default_rng(103)
    worst = 0.0
    for u in range(500):
        tweets, flipped = [], []
        for i in range(int(rng.integers(1, 10))):
            body = " ".join(rng.choice(topic.key_phrases, size=rng.integers(0, 3)))
            pos, neg = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            tweets.append(
                make_tweet(lexicon, f"{body} " + "[smile]" * pos + "[cry]" * neg,
                           user=f"u{u}", tweet_id=f"{u}-{i}")
            )
            flipped.append(
                make_tweet(lexicon, f"{body} " + "[smile]" * neg + "[cry]" * pos,
                           user=f"u{u}", tweet_id=f"{u}-{i}f")
            )
        v = user_topic_vector(f"u{u}", topic, tweets).values
        w = user_topic_vector(f"u{u}", topic, flipped).values
        ok &= bool(np.all(np.abs(v) <= 1.0))
        worst = max(worst, float(np.max(np.abs(v + w))))
    _report(3, ok and worst < 1e-12,
            f"(2,1)->1/3 exact; 500-user antisymmetry max |v+w| {worst:.1e} (<1e-12)")


def _t_pdf(x, dof):
    ln = (
        math.lgamma((dof + 1) / 2)
        - math.lgamma(dof / 2)
        - 0.5 * math.log(dof * math.pi)
        - ((dof + 1) / 2) * math.log1p(x * x / dof)
    )
    return math.exp(ln)


def test_criterion_4_statistics_oracles():
    rng = np.random.default_rng(104)
    worst_r, worst_p = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.normal(size=n)
        y = 0.8 * x + rng.normal(size=n)
        r, p = pearson(x, y)
        mx, my = x.mean(), y.mean()
        cov = float(np.sum((x - mx) * (y - my)))
        ref_r = cov / math.sqrt(float(np.sum((x - mx) ** 2)) * float(np.sum((y - my) ** 2)))
        t_stat = ref_r * math.sqrt((n - 2) / (1 - ref_r * ref_r))
        tail, _ = integrate.quad(_t_pdf, abs(t_stat), np.inf, args=(n - 2,))
        worst_r = max(worst_r, abs(r - ref_r))
        worst_p = max(worst_p, abs(p - 2 * tail))
    actual = [1.0, 2.0, 3.0, 7.0]
    ok = rse(actual, actual) == 0.0
    ok &= rse([sum(actual) / 4] * 4, actual) == 1.0
    fixture = [
        (0.0, Strength.ZERO), (0.2, Strength.WEAK), (0.5, Strength.MODERATE),
        (0.8, Strength.STRONG), (1.0, Strength.PERFECT),
    ]
    ok &= all(classify_strength(r) is s for r, s in fixture)
    _report(
        4,
        ok and worst_r < 1e-12 and worst_p < 1e-6,
        f"50 instances: max |dr| {worst_r:.1e} (<1e-12), max |dp| {worst_p:.1e} (<1e-6); "
        "rse fixtures exact; strength table matches",
    )


def test_criterion_5_gradient_finite_differences():
    rng = np.random.default_rng(105)
    h = 1e-6

    def central(f):
        return (f(h) - f(-h)) / (2 * h)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-8)

    worst = 0.0
    for _ in range(20):
        n_edges = int(rng.integers(2, 31))
        n_samples = int(rng.integers(2, 21))
        edges = tuple((f"a{i}", f"b{i}") for i in range(n_edges))
        samples = []
        for i in range(n_samples):
            feats = rng.uniform(0, 1, n_edges)
            samples.append(TopicSample(f"t{i}", edges, feats, float(np.sum(feats)),
                                       float(rng.uniform(5, 40))))
        lin = LinearModel(float(rng.normal()), float(rng.normal()))
        d_alpha, d_beta = gradient_linear(lin, samples)
        worst = max(worst, rel(d_alpha, central(
            lambda e: loss(LinearModel(lin.alpha + e, lin.beta), samples))))
        worst = max(worst, rel(d_beta, central(
            lambda e: loss(LinearModel(lin.alpha, lin.beta + e), samples))))
        w = rng.normal(size=n_edges)
        edge = EdgeModel(edges, w, rho=float(rng.normal()))
        grad_w, d_rho = gradient_edge_model(edge, samples)
        for idx in rng.choice(n_edges, size=min(5, n_edges), replace=False):
            def at(e, idx=int(idx)):
                w2 = w.copy()
                w2[idx] += e
                return loss(EdgeModel(edges, w2, edge.rho), samples)

            worst = max(worst, rel(float(grad_w[idx]), central(at)))
        worst = max(worst, rel(d_rho, central(
            lambda e: loss(EdgeModel(edges, w, edge.rho + e), samples))))
    _report(5, worst < 1e-5, f"20 instances, worst gradient rel err {worst:.1e} (<1e-5)")


def _linear_sample(tag: str, energy: float, target: float) -> TopicSample:
    return TopicSample(tag, (), np.zeros(0), float(energy), float(target))


def test_criterion_6_linear_recovery(tmp_path):
    start = time.perf_counter()
    results = {}
    for sigma in (0.0, 0.05):
        config = SynthConfig(
            rng_seed=1234, n_users=50, edge_density=0.15, n_topics=60,
            tweets_per_user=40,
            planted=PlantedLinear(alpha=120.0, beta=400.0, noise_sigma=sigma),
        )
        gen = generate(config, tmp_path / f"lin{sigma}")
        exp = load_expected(gen.expected_path)
        topics = [Topic(t.hashtag, 0, t.popularity) for t in exp.topics]
        by_tag = {t.hashtag: t for t in exp.topics}
        train_topics, test_topics = split_train_test(topics, rng_seed=2)

        def samples(ts):
            return [
                _linear_sample(t.hashtag, by_tag[t.hashtag].energy, t.popularity)
                for t in ts
            ]

        result = train("linear", samples(train_topics), TrainConfig())
        results[sigma] = (
            evaluate(result.model, samples(test_topics)).rse,
            result.model,
            closed_form_linear_fit(
                [by_tag[t.hashtag].energy for t in train_topics],
                [float(t.popularity) for t in train_topics],
            ),
        )
    elapsed = time.perf_counter() - start
    rse0, model0, oracle0 = results[0.0]
    rse5 = results[0.05][0]
    rel_alpha = abs(model0.alpha - oracle0.alpha) / abs(oracle0.alpha)
    rel_beta = abs(model0.beta - oracle0.beta) / abs(oracle0.beta)
    ok = (
        rse0 < 1e-6
        and rel_alpha < 1e-3
        and rel_beta < 1e-3
        and rse5 <= 0.05
        and elapsed < 30.0
    )
    _report(
        6, ok,
        f"sigma=0: rse {rse0:.2e} (<1e-6), params rel ({rel_alpha:.1e},{rel_beta:.1e}) "
        f"(<1e-3); sigma=5%: rse {rse5:.3f} (<=0.05); {elapsed:.1f}s (<30s)",
    )


def _edge_recovery_samples(tmp_path, planted, name):
    """Feature path through the real pipeline; targets from the expected file."""
    config = SynthConfig(
        rng_seed=33, n_users=20, edge_density=0.27, n_topics=400,
        tweets_per_user=400, care_range=(0.1, 0.95), planted=planted,
    )
    gen = generate(config, tmp_path / name)
    exp = load_expected(gen.expected_path)
    lexicon = load_lexicon(gen.lexicon_path)
    train_tweets = list(stream_corpus(gen.corpus_path, lexicon, gen.window, "train"))
    community = extract_community(build_graph(train_tweets), gen.seed_user, gen.max_depth)
    m = int(exp.params["m"])
    topics, exact = [], {}
    for k, et in enumerate(exp.topics):
        topic = Topic(et.hashtag, 0, et.popularity,
                      key_phrases=tuple(f"k{k:03d}p{n:02d}" for n in range(m)))
        topics.append(topic)
        exact[et.hashtag] = et.exact_target
    vectors = catalog_vectors(community.members, topics, train_tweets)
    train_topics, test_topics = split_train_test(topics, rng_seed=9)

    def samples(ts):
        return [
            replace(s, target=exact[s.topic])
            for s in make_samples(community, vectors, ts, EnergyFunction.COSINE)
        ]

    n_edges = len(community.edges)
    return samples(train_topics), samples(test_topics), n_edges


def test_criterion_7_edge_recovery(tmp_path):
    cfg = TrainConfig(learning_rate=0.001, epochs=600)
    s_train, s_test, n_edges = _edge_recovery_samples(
        tmp_path, PlantedEdgeWeights(4.0, 28.0, rho=40.0, noise_sigma=0.02), "edge"
    )
    edge_rse = evaluate(train("edge", s_train, cfg).model, s_test).rse

    s_train, s_test, _ = _edge_recovery_samples(
        tmp_path, PlantedEdgeWeights(16.0, 16.0, rho=40.0, noise_sigma=0.02), "tied"
    )
    tied_edge = evaluate(train("edge", s_train, cfg).model, s_test).rse
    tied_linear = evaluate(train("linear", s_train, TrainConfig()).model, s_test).rse
    gap = abs(tied_edge - tied_linear)
    ok = edge_rse <= 0.1 and gap <= 0.02 and n_edges == 50
    _report(
        7, ok,
        f"{n_edges} edges, 200 train topics: rse {edge_rse:.4f} (<=0.1); "
        f"tied-weight rse gap {gap:.4f} (<=0.02)",
    )


def test_criterion_8_end_to_end_pipeline(tmp_path):
    out = tmp_path / "e2e"
    window = (
        f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
        f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}"
    )

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    def run_stages():
        run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
            "--lexicon", out / "lexicon.tsv", "--window", window)
        run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3")
        run("topics", "--out", out, "--stopwords", out / "stopwords.tsv")
        run("sentiment", "--out", out)
        run("energy", "--out", out)
        run("correlate", "--out", out, "--gaps", "1,5,10")
        run("train", "--out", out, "--gaps", "1", "--predictor", "linear", "--seed", "3")
        run("evaluate", "--out", out, "--predictor", "linear")

    start = time.perf_counter()
    run("synth", "--out", out, "--seed", "2024", "--n-users", "500",
        "--edge-density", "0.012", "--n-topics", "40", "--tweets-per-user", "18",
        "--emoticon-rate", "0.8", "--planted", "linear", "--alpha", "1.8",
        "--beta", "175", "--noise-sigma", "0.1")
    run_stages()
    elapsed = time.perf_counter() - start

    exp = load_expected(out / "expected.tsv")
    n_tweets = int(exp.params["n_train_tweets"]) + int(exp.params["n_test_tweets"])
    reports = ["correlation.tsv", "evaluation_linear.tsv", "energies.tsv"]
    first = {name: (out / name).read_bytes() for name in reports}
    run_stages()  # identical flags and seeds: outputs must reproduce exactly
    identical = all((out / name).read_bytes() == first[name] for name in reports)

    r_gap1 = None
    for row in (out / "correlation.tsv").read_text().splitlines():
        gap, method, r, p, strength = row.split("\t")
        if gap == "1" and method == "mrf+cosine":
            r_gap1 = float(r)
    ok = (
        n_tweets <= 20_000
        and elapsed < 60.0
        and r_gap1 is not None
        and r_gap1 >= 0.7
        and identical
    )
    _report(
        8, ok,
        f"{n_tweets} tweets, all stages {elapsed:.1f}s (<60s), mrf+cosine r {r_gap1:.3f} "
        f"(>=0.7), rerun byte-identical: {identical}",
    )


def test_criterion_9_topic_machinery():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        pops = rng.choice(10_000, size=int(rng.integers(2, 80)), replace=False)
        gap = int(rng.integers(1, 500))
        kept = [
            t.popularity
            for t in gap_filter(
                [Topic(f"h{p}", 0, int(p)) for p in pops], gap
            ).topics
        ]
        ok &= all(
            abs(a - b) >= gap for i, a in enumerate(kept) for b in kept[i + 1:]
        )
    for n in range(2, 22):
        topics = [Topic(f"h{i}", 0, i + 1) for i in range(n)]
        train_topics, test_topics = split_train_test(topics, rng_seed=n)
        ok &= len(train_topics) == (n + 1) // 2 and len(test_topics) == n // 2
    for _ in range(100):
        topics = [
            Topic(f"h{i}", 0, int(rng.integers(1, 40)))
            for i in range(int(rng.integers(1, 60)))
        ]
        pops = [t.popularity for t in dedupe_equal_popularity(topics)]
        ok &= len(pops) == len(set(pops))
    _report(9, ok, "gap_filter all-pairs, split sizes for n in 2..21, dedupe uniqueness")
