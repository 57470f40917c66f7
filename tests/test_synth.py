"""Synthetic corpus generator tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentpop.cli import main
from sentpop.corpus import load_lexicon, stream_corpus
from sentpop.graph import build_graph
from sentpop.manifest import read_rows
from sentpop.stats import pearson
from sentpop.synth import (
    FIRST_TEST_MONTH_END,
    InfeasibleConfigError,
    PlantedEdgeWeights,
    PlantedLinear,
    SynthConfig,
    _draw_edges,
    generate,
    load_expected,
)
from sentpop.topics import extract_topics

from oracles import closed_form_linear_fit, scalar_edge_draws

BASIC = SynthConfig(rng_seed=3, n_users=30, edge_density=0.15, n_topics=8,
                    planted=PlantedLinear(alpha=2.0, beta=150.0))


def test_same_seed_gives_byte_identical_outputs(tmp_path):
    a = generate(BASIC, tmp_path / "a")
    b = generate(BASIC, tmp_path / "b")
    for attr in ("corpus_path", "lexicon_path", "stopwords_path", "expected_path"):
        assert getattr(a, attr).read_bytes() == getattr(b, attr).read_bytes()


def test_different_seed_changes_corpus(tmp_path):
    a = generate(BASIC, tmp_path / "a")
    other = SynthConfig(rng_seed=4, n_users=30, edge_density=0.15, n_topics=8,
                        planted=PlantedLinear(alpha=2.0, beta=150.0))
    b = generate(other, tmp_path / "b")
    assert a.corpus_path.read_bytes() != b.corpus_path.read_bytes()


def test_generated_corpus_passes_ingest_invariants(tmp_path):
    gen = generate(BASIC, tmp_path)
    lexicon = load_lexicon(gen.lexicon_path)
    tweets = list(stream_corpus(gen.corpus_path, lexicon, gen.window, "all"))
    # stream parses every record; the line count must match exactly
    assert len(tweets) == gen.n_train_tweets + gen.n_test_tweets
    assert len({t.id for t in tweets}) == len(tweets)
    for t in tweets:
        occurrences = sum(
            t.text.count(token) for token, p in lexicon.entries.items() if p != "neutral"
        )
        assert sum(t.emoticon_counts) == occurrences


@pytest.mark.parametrize("n_users", [0, 1, 2, 50])
@pytest.mark.parametrize("density", [0.01, 0.27, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 5, 33])
def test_edge_draws_match_one_scalar_draw_per_pair(n_users, density, seed):
    """Same edges, and the generator left in the same state for the draws after."""
    users = [f"u{i:05d}" for i in range(n_users)]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _draw_edges(rng, users, density) == scalar_edge_draws(ref, users, density)
    assert rng.random() == ref.random()


def test_two_users_full_density_is_a_single_edge(tmp_path):
    config = SynthConfig(rng_seed=1, n_users=2, edge_density=1.0, n_topics=2,
                         popularity_range=(5, 20))
    gen = generate(config, tmp_path)
    lexicon = load_lexicon(gen.lexicon_path)
    tweets = stream_corpus(gen.corpus_path, lexicon, gen.window, "all")
    g = build_graph(tweets)
    assert g.edges == {("u00000", "u00001")}


def test_planted_linear_exact_targets_are_exactly_linear(tmp_path):
    config = SynthConfig(rng_seed=9, n_users=40, edge_density=0.12, n_topics=12,
                         planted=PlantedLinear(alpha=3.0, beta=120.0, noise_sigma=0.0))
    gen = generate(config, tmp_path)
    exp = load_expected(gen.expected_path)
    energies = [t.energy for t in exp.topics]
    r, _ = pearson(energies, [t.exact_target for t in exp.topics])
    assert r == pytest.approx(1.0, abs=1e-12)
    fit = closed_form_linear_fit(energies, [t.exact_target for t in exp.topics])
    assert fit.alpha == pytest.approx(3.0, rel=1e-6)
    assert fit.beta == pytest.approx(120.0, rel=1e-6)
    # realized counts only differ by rounding and uniqueness nudges
    r_counts, _ = pearson(energies, [float(t.popularity) for t in exp.topics])
    assert r_counts > 0.99


def test_realized_popularity_matches_hashtag_counting(tmp_path):
    gen = generate(BASIC, tmp_path)
    exp = load_expected(gen.expected_path)
    lexicon = load_lexicon(gen.lexicon_path)
    test_tweets = list(stream_corpus(gen.corpus_path, lexicon, gen.window, "test"))
    topics = extract_topics(test_tweets, FIRST_TEST_MONTH_END, min_popularity=1)
    got = {t.hashtag: t.popularity for t in topics}
    assert got == {t.hashtag: t.popularity for t in exp.topics}


def test_popularities_are_distinct(tmp_path):
    # several topics share energy 0, so planted targets collide before nudging
    config = SynthConfig(rng_seed=2, n_users=10, edge_density=0.05, n_topics=10,
                         planted=PlantedLinear(alpha=1.0, beta=50.0))
    gen = generate(config, tmp_path)
    pops = [t.popularity for t in load_expected(gen.expected_path).topics]
    assert len(set(pops)) == len(pops)


@pytest.mark.parametrize("argv, shift", [
    # the benchmark's train-edge corpus: 100 planted targets within about 24 integers
    (("--seed", "33", "--n-users", "20", "--edge-density", "0.27", "--n-topics", "100",
      "--tweets-per-user", "60", "--planted", "edge-weights", "--weight-range", "0.5,3",
      "--rho", "100", "--noise-sigma", "0.02"), 80.5),
    # the README quick start: 30 planted targets spread over about 90 integers
    (("--seed", "7", "--n-users", "200", "--edge-density", "0.03", "--n-topics", "30",
      "--tweets-per-user", "18", "--planted", "linear", "--alpha", "2.0", "--beta", "180",
      "--noise-sigma", "0.1"), 2.4),
], ids=["crowded", "spread"])
def test_synth_reports_the_largest_popularity_shift(tmp_path, capsys, argv, shift):
    assert main(["synth", "--out", str(tmp_path), *argv]) == 0
    exp = load_expected(tmp_path / "expected.tsv")
    largest = max(t.popularity - t.exact_target for t in exp.topics)
    assert exp.params["max_popularity_shift"] == repr(largest)
    assert round(largest, 1) == shift
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"synth: popularity - exact_target at most {largest:.4g}"
    )


def test_planted_edge_weights_recorded_and_consistent(tmp_path):
    config = SynthConfig(rng_seed=7, n_users=15, edge_density=0.3, n_topics=10,
                         planted=PlantedEdgeWeights(0.5, 2.0, rho=80.0))
    gen = generate(config, tmp_path)
    exp = load_expected(gen.expected_path)
    assert exp.params["planted"] == "edge_weights"
    assert int(exp.params["n_community_edges"]) == len(exp.edge_weights)
    assert all(0.5 <= w <= 2.0 for w in exp.edge_weights.values())


def test_infeasible_negative_popularity(tmp_path):
    config = SynthConfig(rng_seed=1, n_users=10, edge_density=0.2, n_topics=5,
                         planted=PlantedLinear(alpha=1.0, beta=-500.0))
    with pytest.raises(InfeasibleConfigError, match="below 1"):
        generate(config, tmp_path)


def test_infeasible_tweet_volume(tmp_path):
    config = SynthConfig(rng_seed=1, n_users=10, edge_density=0.2, n_topics=20,
                         planted=PlantedLinear(alpha=1.0, beta=50_000.0))
    with pytest.raises(InfeasibleConfigError, match="cap"):
        generate(config, tmp_path)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_users=1)
    with pytest.raises(ValueError):
        SynthConfig(edge_density=0.0)
    with pytest.raises(ValueError):
        SynthConfig(emoticon_rate=1.5)
    with pytest.raises(ValueError):
        PlantedEdgeWeights(2.0, 1.0, rho=0.0)


def test_emoticon_rate_controls_coverage(tmp_path):
    config = SynthConfig(rng_seed=5, n_users=80, edge_density=0.05, n_topics=6,
                         emoticon_rate=0.5, tweets_per_user=10,
                         popularity_range=(5, 30))
    gen = generate(config, tmp_path)
    lexicon = load_lexicon(gen.lexicon_path)
    train = [t for t in stream_corpus(gen.corpus_path, lexicon, gen.window, "train")
             if t.id.startswith("s")]
    with_emoticons = sum(1 for t in train if sum(t.emoticon_counts) > 0)
    rate = with_emoticons / len(train)
    assert 0.35 < rate < 0.65


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_users=st.integers(2, 30),
    # low enough that u00000 is often isolated and gets the fallback edge
    density=st.sampled_from([0.01, 0.03, 0.08, 0.2]),
    max_depth=st.integers(0, 4),
    n_topics=st.integers(1, 3),
)
def test_pipeline_energies_match_the_energies_synth_planted(
    seed, n_users, density, max_depth, n_topics
):
    """synth's community, drawn not parsed, is the one the pipeline extracts."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert main(["synth", "--out", tmp, "--seed", str(seed), "--n-users", str(n_users),
                     "--edge-density", str(density), "--n-topics", str(n_topics),
                     "--m", "3", "--tweets-per-user", "2", "--max-depth", str(max_depth),
                     "--planted", "none"]) == 0
        exp = load_expected(out / "expected.tsv")
        p = exp.params
        window = ",".join(p[k] for k in ("train_start", "train_end", "test_start", "test_end"))
        for argv in (
            ["ingest", "--corpus", out / "corpus.tsv", "--lexicon", out / "lexicon.tsv",
             "--window", window],
            ["graph", "--seed-user", p["seed_user"], "--max-depth", p["max_depth"]],
            ["topics", "--stopwords", out / "stopwords.tsv", "--m", "3"],
            ["sentiment"],
            ["energy"],
        ):
            assert main([*map(str, argv), "--out", tmp]) == 0, argv[0]
        planted = {t.hashtag: t.energy for t in exp.topics}
        energies = {
            row[0]: float(row[3])
            for _, row in read_rows(out / "energies.tsv", 4, "energy")
            if row[1:3] == ["mrf", "cosine"]
        }
        catalog = [row[0] for _, row in read_rows(out / "catalog.tsv", None, "catalog")]
        assert catalog and set(energies) == set(catalog)
        assert all(energies[tag] == planted[tag] for tag in catalog)
        rows = sum(1 for _ in read_rows(out / "community.tsv", 2, "edge"))
        assert rows == int(p["n_community_edges"])
