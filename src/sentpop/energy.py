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

import numpy as np

from .graph import CommunityGraph, Edge


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


def _as_vector(v: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("sentiment vectors must be one-dimensional")
    return arr


def _check_lengths(v_i: np.ndarray, v_j: np.ndarray) -> None:
    if v_i.shape[0] != v_j.shape[0]:
        raise ValueError(f"vector length mismatch: {v_i.shape[0]} vs {v_j.shape[0]}")


def clique_energy_cosine(v_i, v_j) -> float:
    """|v_i . v_j| / (|v_i| |v_j|) in [0, 1]; 0 if either vector is all-zero."""
    v_i, v_j = _as_vector(v_i), _as_vector(v_j)
    _check_lengths(v_i, v_j)
    denom = float(np.linalg.norm(v_i)) * float(np.linalg.norm(v_j))
    if denom == 0.0:
        return 0.0
    value = abs(float(np.dot(v_i, v_j))) / denom
    # rounding can push |cos| infinitesimally past 1
    return min(value, 1.0)


def clique_energy_avglen(v_i, v_j) -> float:
    """(|v_i| + |v_j|) / 2; ranges over [0, sqrt(m)] for entries in [-1, 1]."""
    v_i, v_j = _as_vector(v_i), _as_vector(v_j)
    _check_lengths(v_i, v_j)
    return (float(np.linalg.norm(v_i)) + float(np.linalg.norm(v_j))) / 2.0


def edge_probability(v_i, v_j, function: EnergyFunction) -> float:
    """Probability that two users communicate about the topic, in [0, 1].

    The cosine energy is already a probability. The average-length energy
    ranges over [0, sqrt(m)] and is normalized by sqrt(m), then clamped.
    """
    v_i, v_j = _as_vector(v_i), _as_vector(v_j)
    _check_lengths(v_i, v_j)
    if function == EnergyFunction.COSINE:
        return clique_energy_cosine(v_i, v_j)
    m = v_i.shape[0]
    if m == 0:
        return 0.0
    value = clique_energy_avglen(v_i, v_j) / float(np.sqrt(m))
    return min(max(value, 0.0), 1.0)


def binary_entropy(p: float, log_base: float = 2.0) -> float:
    """-(p log p + (1-p) log(1-p)) with 0 log 0 = 0; peaks at 1 in base 2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    scale = np.log(log_base)
    return float(-(p * np.log(p) + (1.0 - p) * np.log(1.0 - p)) / scale)


def _member_matrix(
    community: CommunityGraph, vectors: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Stack member vectors in index row order; silent users get zero rows."""
    row = community.index.row
    m = 1
    for vec in vectors.values():
        m = int(np.asarray(vec).shape[0])
        break
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
) -> tuple[list[Edge], np.ndarray]:
    """Pairwise energies for every community edge, in sorted edge order.

    The fixed order makes downstream sums reproducible run-to-run and is the
    feature layout shared with the per-edge popularity predictor.
    """
    index = community.index
    if not index.edges:
        return [], np.zeros(0, dtype=np.float64)
    matrix = _member_matrix(community, vectors)
    i_idx, j_idx = index.i_idx, index.j_idx
    norms = np.linalg.norm(matrix, axis=1)
    if function == EnergyFunction.COSINE:
        dots = np.einsum("ij,ij->i", matrix[i_idx], matrix[j_idx])
        denom = norms[i_idx] * norms[j_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0.0, np.abs(dots) / denom, 0.0)
        values = np.clip(values, 0.0, 1.0)
    else:
        values = (norms[i_idx] + norms[j_idx]) / 2.0
    return list(index.edges), values


def per_edge_probabilities(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
) -> tuple[list[Edge], np.ndarray]:
    edges, values = per_edge_energies(community, vectors, function)
    if function == EnergyFunction.AVGLEN and len(edges) > 0:
        m = 1
        for vec in vectors.values():
            m = int(np.asarray(vec).shape[0])
            break
        values = np.clip(values / np.sqrt(m), 0.0, 1.0)
    return edges, values


def community_energy_mrf(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
    topic: str = "",
) -> CommunityEnergy:
    """Sum of pairwise clique energies over the community edge set."""
    _, values = per_edge_energies(community, vectors, function)
    return CommunityEnergy(
        topic=topic,
        model=EnergyModel.MRF,
        function=function,
        value=float(np.sum(values)),
    )


def community_energy_entropy(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    function: EnergyFunction,
    topic: str = "",
    log_base: float = 2.0,
) -> CommunityEnergy:
    """Total binary entropy of per-edge communication probabilities."""
    _, p = per_edge_probabilities(community, vectors, function)
    scale = np.log(log_base)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -(p * np.log(p) + (1.0 - p) * np.log1p(-p)) / scale
    terms = np.where((p <= 0.0) | (p >= 1.0), 0.0, terms)
    return CommunityEnergy(
        topic=topic,
        model=EnergyModel.ENTROPY,
        function=function,
        value=float(np.sum(terms)),
    )


def community_energy(
    community: CommunityGraph,
    vectors: Mapping[str, np.ndarray],
    model: EnergyModel,
    function: EnergyFunction,
    topic: str = "",
) -> CommunityEnergy:
    if model == EnergyModel.MRF:
        return community_energy_mrf(community, vectors, function, topic)
    return community_energy_entropy(community, vectors, function, topic)


def save_energy_report(energies: Sequence[CommunityEnergy], path: str | Path) -> int:
    """Persist ``hashtag<TAB>model<TAB>function<TAB>energy`` rows, sorted."""
    rows = sorted(energies, key=lambda e: (e.topic, e.model.value, e.function.value))
    with open(path, "w", encoding="utf-8") as fh:
        for e in rows:
            fh.write(f"{e.topic}\t{e.model.value}\t{e.function.value}\t{e.value!r}\n")
    return len(rows)


def load_energy_report(path: str | Path) -> list[CommunityEnergy]:
    out: list[CommunityEnergy] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}: bad energy row at line {line_no}")
            topic, model, function, value = fields
            out.append(
                CommunityEnergy(
                    topic=topic,
                    model=EnergyModel(model),
                    function=EnergyFunction(function),
                    value=float(value),
                )
            )
    return out
