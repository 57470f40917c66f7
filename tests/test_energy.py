"""Clique energy and community energy tests against scalar-loop oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentpop.energy import (
    EnergyFunction,
    EnergyModel,
    binary_entropy,
    clique_energy_avglen,
    clique_energy_cosine,
    community_energy,
    community_energy_entropy,
    community_energy_mrf,
    edge_probability,
    load_energy_report,
    per_edge_energies,
    save_energy_report,
)
from sentpop.graph import CommunityGraph, SocialGraph, extract_community

from conftest import assert_raises


def _unit(m, i):
    v = np.zeros(m)
    v[i] = 1.0
    return v


class TestCliqueCosine:
    def test_identical_vectors(self):
        v = _unit(6, 0)
        assert clique_energy_cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert clique_energy_cosine(_unit(6, 0), _unit(6, 1)) == 0.0

    def test_opposite_vectors_bind_maximally(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, 8)
        assert clique_energy_cosine(v, -v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        v = np.zeros(4)
        assert clique_energy_cosine(v, _unit(4, 2)) == 0.0
        assert clique_energy_cosine(v, v) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            clique_energy_cosine(np.ones(3), np.ones(4))


class TestCliqueAvglen:
    def test_both_zero(self):
        z = np.zeros(5)
        assert clique_energy_avglen(z, z) == 0.0

    def test_unit_norms(self):
        assert clique_energy_avglen(_unit(5, 0), _unit(5, 1)) == 1.0

    def test_matches_scalar_norm_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            a, b = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            assert clique_energy_avglen(a, b) == pytest.approx((na + nb) / 2, abs=1e-12)


class TestEdgeProbability:
    def test_identical_cosine(self):
        v = np.full(7, 0.5)
        assert edge_probability(v, v, EnergyFunction.COSINE) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vectors(self):
        z = np.zeros(7)
        assert edge_probability(z, z, EnergyFunction.COSINE) == 0.0
        assert edge_probability(z, z, EnergyFunction.AVGLEN) == 0.0

    def test_maximal_length_saturates(self):
        v = np.ones(9)
        assert edge_probability(v, v, EnergyFunction.AVGLEN) == pytest.approx(1.0, abs=1e-12)

    def test_avglen_normalized_into_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 15))
            p = edge_probability(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
                                 EnergyFunction.AVGLEN)
            assert 0.0 <= p <= 1.0


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_probabilities(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


_VECTOR_FUNCTIONS = {
    "clique_energy_cosine": clique_energy_cosine,
    "clique_energy_avglen": clique_energy_avglen,
    "edge_probability_cosine": lambda a, b: edge_probability(a, b, EnergyFunction.COSINE),
    "edge_probability_avglen": lambda a, b: edge_probability(a, b, EnergyFunction.AVGLEN),
}


class TestScalarInputChecks:
    @pytest.mark.parametrize("name", _VECTOR_FUNCTIONS)
    def test_two_dimensional_vector_is_rejected(self, name):
        with pytest.raises(ValueError, match="one-dimensional"):
            _VECTOR_FUNCTIONS[name](np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="one-dimensional"):
            _VECTOR_FUNCTIONS[name](np.ones(3), np.ones((1, 3)))

    @pytest.mark.parametrize("function", list(EnergyFunction))
    def test_edge_probability_rejects_unequal_lengths(self, function):
        with pytest.raises(ValueError, match="mismatch: 3 vs 4"):
            edge_probability(np.ones(3), np.ones(4), function)

    @pytest.mark.parametrize("name", _VECTOR_FUNCTIONS)
    def test_empty_vectors_give_zero_without_a_warning(self, name):
        # pytest turns any numpy RuntimeWarning into an error here
        assert _VECTOR_FUNCTIONS[name](np.zeros(0), []) == 0.0

    def test_binary_entropy_rejects_nan(self):
        with pytest.raises(ValueError, match="out of range"):
            binary_entropy(float("nan"))


def _community(edges, extra_members=()):
    g = SocialGraph()
    for a, b in edges:
        g.add_edge(a, b)
    for node in extra_members:
        g.nodes.add(node)
    seed = sorted(g.nodes)[0]
    return extract_community(g, seed, max_depth=len(g.nodes))


def _random_community(rng, n_nodes, n_edges):
    names = [f"v{i:03d}" for i in range(n_nodes)]
    edges = set()
    # a spanning chain keeps everything reachable from the seed
    for i in range(1, n_nodes):
        edges.add((names[i - 1], names[i]))
    while len(edges) < n_edges:
        i, j = rng.choice(n_nodes, size=2, replace=False)
        a, b = sorted((names[i], names[j]))
        edges.add((a, b))
    return _community(edges), names


def _random_vectors(rng, names, m, coverage=0.8):
    return {
        name: rng.uniform(-1, 1, m) for name in names if rng.random() < coverage
    }


def _oracle_mrf(community, vectors, function, m):
    total = 0.0
    for a, b in sorted(community.edges):
        va = vectors.get(a, np.zeros(m))
        vb = vectors.get(b, np.zeros(m))
        na = math.sqrt(sum(float(x) * float(x) for x in va))
        nb = math.sqrt(sum(float(x) * float(x) for x in vb))
        if function == EnergyFunction.COSINE:
            dot = sum(float(x) * float(y) for x, y in zip(va, vb))
            total += abs(dot) / (na * nb) if na * nb > 0 else 0.0
        else:
            total += (na + nb) / 2.0
    return total


def _oracle_entropy(community, vectors, function, m):
    total = 0.0
    for a, b in sorted(community.edges):
        va = vectors.get(a, np.zeros(m))
        vb = vectors.get(b, np.zeros(m))
        na = math.sqrt(sum(float(x) * float(x) for x in va))
        nb = math.sqrt(sum(float(x) * float(x) for x in vb))
        if function == EnergyFunction.COSINE:
            dot = sum(float(x) * float(y) for x, y in zip(va, vb))
            p = abs(dot) / (na * nb) if na * nb > 0 else 0.0
        else:
            p = ((na + nb) / 2.0) / math.sqrt(m)
        p = min(max(p, 0.0), 1.0)
        if 0.0 < p < 1.0:
            total += -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    return total


class TestCommunityEnergy:
    def test_empty_edge_set(self):
        c = _community([], extra_members=["solo"])
        assert community_energy_mrf(c, {}, EnergyFunction.COSINE).value == 0.0
        assert community_energy_entropy(c, {}, EnergyFunction.COSINE).value == 0.0

    def test_triangle_identical_vectors(self):
        c = _community([("a", "b"), ("b", "c"), ("a", "c")])
        v = np.array([0.5, -0.25, 0.0])
        vectors = {"a": v, "b": v, "c": v}
        e = community_energy_mrf(c, vectors, EnergyFunction.COSINE)
        assert e.value == pytest.approx(3.0, abs=1e-12)
        assert e.model is EnergyModel.MRF

    def test_single_edge_half_probability_entropy(self):
        c = _community([("a", "b")])
        # orthogonal-ish vectors scaled so the avglen probability is exactly 1/2
        m = 4
        v = np.zeros(m)
        v[0] = 0.5 * math.sqrt(m)
        vectors = {"a": v, "b": v}
        e = community_energy_entropy(c, vectors, EnergyFunction.AVGLEN)
        assert e.value == pytest.approx(1.0, abs=1e-12)

    def test_entropy_zero_at_saturated_probability(self):
        c = _community([("a", "b")])
        v = np.ones(3)
        assert community_energy_entropy(c, {"a": v, "b": v}, EnergyFunction.COSINE).value == 0.0
        assert community_energy_entropy(c, {}, EnergyFunction.COSINE).value == 0.0

    @pytest.mark.parametrize("function", list(EnergyFunction))
    def test_mrf_matches_brute_force(self, function):
        rng = np.random.default_rng(77)
        m = 10
        c, names = _random_community(rng, 50, 160)
        vectors = _random_vectors(rng, names, m)
        got = community_energy_mrf(c, vectors, function).value
        assert got == pytest.approx(_oracle_mrf(c, vectors, function, m), abs=1e-9)

    @pytest.mark.parametrize("function", list(EnergyFunction))
    def test_entropy_matches_brute_force(self, function):
        rng = np.random.default_rng(78)
        m = 6
        c, names = _random_community(rng, 20, 30)
        vectors = _random_vectors(rng, names, m)
        got = community_energy_entropy(c, vectors, function).value
        assert got == pytest.approx(_oracle_entropy(c, vectors, function, m), abs=1e-9)

    def test_additive_over_disjoint_edge_sets(self):
        rng = np.random.default_rng(79)
        m = 5
        c, names = _random_community(rng, 12, 20)
        vectors = _random_vectors(rng, names, m, coverage=1.0)
        edges = c.edges
        half = len(edges) // 2
        from sentpop.graph import CommunityGraph

        part1 = CommunityGraph(c.members, set(edges[:half]))
        part2 = CommunityGraph(c.members, set(edges[half:]))
        total = community_energy_mrf(c, vectors, EnergyFunction.COSINE).value
        split = (
            community_energy_mrf(part1, vectors, EnergyFunction.COSINE).value
            + community_energy_mrf(part2, vectors, EnergyFunction.COSINE).value
        )
        assert total == pytest.approx(split, abs=1e-9)


@st.composite
def _communities_and_vectors(draw):
    """A community of 1 to 8 members, edgeless or not, and vectors for some or none."""
    m = draw(st.integers(1, 12))
    names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = list(itertools.combinations(names, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    vector = st.lists(st.floats(-1, 1), min_size=m, max_size=m).map(np.array)
    vectors = draw(st.dictionaries(st.sampled_from(names), vector))
    return _community(edges, extra_members=names), vectors


@settings(max_examples=80, deadline=None)
@given(_communities_and_vectors())
def test_community_energy_is_each_reduction_once_bit_for_bit(case):
    c, vectors = case
    got = community_energy(c, vectors, topic="t")
    pairs = [(e.model, e.function) for e in got]
    assert sorted(pairs) == sorted(itertools.product(EnergyModel, EnergyFunction))
    for e in got:
        reduce = community_energy_mrf if e.model is EnergyModel.MRF else community_energy_entropy
        assert e.topic == "t"
        assert e.value.hex() == reduce(c, vectors, e.function).value.hex()


@st.composite
def _vector_pairs(draw):
    """Two vectors of one length from 1 to 99; either may be zero, and the second a sign flip."""
    m = draw(st.integers(1, 99))
    vector = st.one_of(
        st.just(np.zeros(m)),
        st.lists(st.floats(-1, 1), min_size=m, max_size=m).map(np.array),
    )
    a = draw(vector)
    return a, draw(st.one_of(vector, st.just(-a)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_vector_pairs())
def test_scalar_functions_are_the_one_edge_case_bit_for_bit(pair):
    a, b = pair
    c = _community([("a", "b")])
    vectors = {"a": a, "b": b}
    for function, clique in (
        (EnergyFunction.COSINE, clique_energy_cosine),
        (EnergyFunction.AVGLEN, clique_energy_avglen),
    ):
        _, values = per_edge_energies(c, vectors, function)
        assert clique(a, b).hex() == float(values[0]).hex()
        entropy = community_energy_entropy(c, vectors, function).value
        assert binary_entropy(edge_probability(a, b, function)).hex() == entropy.hex()


class TestPairwiseProperties:
    """Symmetry, sign-flip and scale behavior on random vector pairs."""

    def test_properties_hold_on_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(1200):
            m = int(rng.integers(1, 12))
            a, b = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
            cos = clique_energy_cosine(a, b)
            avg = clique_energy_avglen(a, b)
            assert 0.0 <= cos <= 1.0
            assert 0.0 <= avg <= math.sqrt(m) + 1e-12
            assert clique_energy_cosine(b, a) == cos
            assert clique_energy_avglen(b, a) == avg
            assert clique_energy_cosine(-a, b) == pytest.approx(cos, abs=1e-12)
            assert clique_energy_avglen(-a, b) == pytest.approx(avg, abs=1e-12)
            c = float(rng.uniform(0.1, 5.0)) * (1 if rng.random() < 0.5 else -1)
            assert clique_energy_cosine(c * a, b) == pytest.approx(cos, abs=1e-9)
            # avglen is 1-homogeneous in each argument's norm, not scale free
            na = math.sqrt(float(np.dot(a, a)))
            nb = math.sqrt(float(np.dot(b, b)))
            assert clique_energy_avglen(c * a, b) == pytest.approx(
                (abs(c) * na + nb) / 2, abs=1e-9
            )
            p = edge_probability(a, b, EnergyFunction.AVGLEN)
            assert 0.0 <= p <= 1.0


def test_per_edge_energies_order_is_sorted_edges():
    c = _community([("b", "c"), ("a", "b")])
    vectors = {"a": np.ones(2), "b": np.ones(2), "c": np.ones(2)}
    edges, values = per_edge_energies(c, vectors, EnergyFunction.COSINE)
    assert edges is c.edges == (("a", "b"), ("b", "c"))
    assert values == pytest.approx([1.0, 1.0], abs=1e-12)


def test_energy_report_round_trip(tmp_path):
    from sentpop.energy import CommunityEnergy

    rows = [
        CommunityEnergy("z", EnergyModel.MRF, EnergyFunction.COSINE, 1.5),
        CommunityEnergy("a", EnergyModel.ENTROPY, EnergyFunction.AVGLEN, 0.25),
    ]
    path = tmp_path / "energies.tsv"
    assert save_energy_report(rows, path) == 2
    loaded = load_energy_report(path)
    assert loaded[0].topic == "a" and loaded[1].topic == "z"
    assert {e.value for e in loaded} == {1.5, 0.25}


_PAIR = CommunityGraph(("a", "b"), (("a", "b"),))
_UNEVEN = {"a": np.ones(2), "b": np.ones(3)}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: per_edge_energies(_PAIR, _UNEVEN, EnergyFunction.COSINE),
                 "inconsistent vector lengths", id="per-edge"),
    pytest.param(lambda: community_energy(_PAIR, _UNEVEN, "t"),
                 "inconsistent vector lengths", id="community"),
])
def test_rejected_input_raises_its_message(call, message):
    assert_raises(call, ValueError, message)
