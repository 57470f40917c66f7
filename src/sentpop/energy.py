"""Pairwise clique energies and community sentiment energy.

Two pairwise energy functions are supported: the absolute cosine similarity
of two sentiment vectors (opposite stances still bind strongly, since
disagreement drives discussion as much as agreement), and the average
Euclidean length of the two vectors. Community energy is either the plain
sum of pairwise energies over the edge set, or the total binary entropy of
per-edge communication probabilities derived from the same functions.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from ._lazy import np
from .graph import CommunityGraph, Edge
from .manifest import read_rows, write_lines


class EnergyFunction(str, enum.Enum):
    COSINE = "cosine"
    AVGLEN = "avglen"


class EnergyModel(str, enum.Enum):
    MRF = "mrf"
    ENTROPY = "entropy"


@dataclass(frozen=True)
class CommunityEnergy:
    topic: str
    model: EnergyModel
    function: EnergyFunction
    value: float


def _pair_matrix(v_i, v_j) -> np.ndarray:
    """The two vectors as the rows of a 2 x m matrix: one edge, from row 0 to row 1."""
    v_i, v_j = np.asarray(v_i, dtype=np.float64), np.asarray(v_j, dtype=np.float64)
    if v_i.ndim != 1 or v_j.ndim != 1:
        raise ValueError("sentiment vectors must be one-dimensional")
    if v_i.shape[0] != v_j.shape[0]:
        raise ValueError(f"vector length mismatch: {v_i.shape[0]} vs {v_j.shape[0]}")
    return np.stack((v_i, v_j))


def clique_energy_cosine(v_i, v_j) -> float:
    """|v_i . v_j| / (|v_i| |v_j|) in [0, 1]; 0 if either vector is all-zero."""
    return float(_edge_values(_pair_matrix(v_i, v_j), [0], [1], EnergyFunction.COSINE)[0])


def clique_energy_avglen(v_i, v_j) -> float:
    """(|v_i| + |v_j|) / 2; ranges over [0, sqrt(m)] for entries in [-1, 1]."""
    return float(_edge_values(_pair_matrix(v_i, v_j), [0], [1], EnergyFunction.AVGLEN)[0])


def edge_probability(v_i, v_j, function: EnergyFunction) -> float:
    """Probability that two users communicate about the topic, in [0, 1].

    The cosine energy is already a probability. The average-length energy
    ranges over [0, sqrt(m)] and is normalized by sqrt(m), then clamped.
    Vectors of length 0 give 0.
    """
    matrix = _pair_matrix(v_i, v_j)
    m = matrix.shape[1]
    if m == 0:
        return 0.0
    return float(_probabilities(_edge_values(matrix, [0], [1], function), function, m)[0])


def binary_entropy(p: float) -> float:
    """-(p log2 p + (1-p) log2(1-p)) in bits, with 0 log 0 = 0; peaks at 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return float(_entropy_terms(np.array([p], dtype=np.float64))[0])


def _vector_length(vectors: Mapping[str, np.ndarray]) -> int:
    """The length of the first vector, or 1 when there is none."""
    for vec in vectors.values():
        return int(np.asarray(vec).shape[0])
    return 1


def _member_matrix(
    community: CommunityGraph, vectors: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Stack member vectors in member row order; silent users get zero rows."""
    row = community.row
    m = _vector_length(vectors)
    matrix = np.zeros((len(row), m), dtype=np.float64)
    for user, vec in vectors.items():
        i = row.get(user)
        if i is not None:
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape[0] != m:
                raise ValueError("inconsistent vector lengths")
            matrix[i] = arr
    return matrix


def per_edge_energies(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
) -> tuple[tuple[Edge, ...], np.ndarray]:
    """Pairwise energies for every community edge, in the community's sorted edge order.

    The fixed order makes downstream sums reproducible run-to-run and is the
    feature layout shared with the per-edge popularity predictor. The edges
    returned are ``community.edges`` itself.
    """
    matrix = _member_matrix(community, vectors)
    return community.edges, _edge_values(matrix, community.i_idx, community.j_idx, function)


def _edge_values(matrix: np.ndarray, i_idx, j_idx, function: EnergyFunction) -> np.ndarray:
    """The energy of each edge from row ``i_idx[k]`` to row ``j_idx[k]`` of ``matrix``.

    The one definition of both clique energies: the energy stage runs it on
    the community's edges, and the scalar functions on one edge.
    """
    norms = np.linalg.norm(matrix, axis=1)
    if function == EnergyFunction.COSINE:
        dots = np.einsum("ij,ij->i", matrix[i_idx], matrix[j_idx])
        denom = norms[i_idx] * norms[j_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0.0, np.abs(dots) / denom, 0.0)
        return np.clip(values, 0.0, 1.0)
    return (norms[i_idx] + norms[j_idx]) / 2.0


def mrf_total(values: np.ndarray) -> float:
    """A topic's MRF energy; the energy stage, the edge predictor's samples and
    ``synth``'s planted targets all take it here, so their totals agree bit for bit."""
    return float(np.sum(values))


def _probabilities(values: np.ndarray, function: EnergyFunction, m: int) -> np.ndarray:
    """Edge energies as communication probabilities (see edge_probability)."""
    if function == EnergyFunction.AVGLEN:
        return np.clip(values / np.sqrt(m), 0.0, 1.0)
    return values


def _entropy_terms(p: np.ndarray) -> np.ndarray:
    """The binary entropy, in bits, of each probability; 0 at 0 and at 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -(p * np.log(p) + (1.0 - p) * np.log1p(-p)) / np.log(2.0)
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, terms)


def _entropy_value(values: np.ndarray, function: EnergyFunction, m: int) -> float:
    """Total binary entropy, in bits, of the energies as probabilities."""
    return float(np.sum(_entropy_terms(_probabilities(values, function, m))))


def _energies(community: CommunityGraph, vectors, function: EnergyFunction, topic: str):
    """The topic's MRF and entropy energies under ``function``, from one per-edge pass."""
    _, values = per_edge_energies(community, vectors, function)
    entropy = _entropy_value(values, function, _vector_length(vectors))
    return (CommunityEnergy(topic, EnergyModel.MRF, function, mrf_total(values)),
            CommunityEnergy(topic, EnergyModel.ENTROPY, function, entropy))


def community_energy_mrf(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
    topic: str = "",
) -> CommunityEnergy:
    """Sum of pairwise clique energies over the community edge set."""
    return _energies(community, vectors, function, topic)[0]


def community_energy_entropy(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
    topic: str = "",
) -> CommunityEnergy:
    """Total binary entropy, in bits, of per-edge communication probabilities."""
    return _energies(community, vectors, function, topic)[1]


def community_energy(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    topic: str = "",
) -> list[CommunityEnergy]:
    """The topic's energy under every model and function, from one per-edge pass per function."""
    return [e for f in EnergyFunction for e in _energies(community, vectors, f, topic)]


def save_energy_report(energies: Sequence[CommunityEnergy], path: str | Path) -> int:
    """Persist ``hashtag<TAB>model<TAB>function<TAB>energy`` rows, sorted."""
    rows = sorted(energies, key=lambda e: (e.topic, e.model.value, e.function.value))
    return write_lines(
        (f"{e.topic}\t{e.model.value}\t{e.function.value}\t{e.value!r}" for e in rows), path
    )


def load_energy_report(path: str | Path) -> list[CommunityEnergy]:
    return [
        CommunityEnergy(topic, EnergyModel(model), EnergyFunction(function), float(value))
        for _, (topic, model, function, value) in read_rows(path, 4, "energy")
    ]
