"""Communication topologies and the Laplacian spectra that bound consensus steps.

Agents exchange iterates over an undirected weighted graph.  The admissible
consensus step size for the swarm update is governed by two spectral
quantities of the graph Laplacian ``L``: its smallest positive eigenvalue
``rho2`` and the spectral radius of ``L^2``.  ``laplacian_spectrum`` packages
both together with the Laplacian itself and keeps the result on the
topology, so every run on one graph shares a single eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Topology",
    "SpectralProfile",
    "GraphSamplingError",
    "EigenSolveError",
    "erdos_renyi",
    "laplacian_spectrum",
    "is_connected",
]

# Eigenvalues below this magnitude are treated as members of the null space
# when locating the smallest positive eigenvalue.
ZERO_EIGENVALUE_TOL = 1e-9


class GraphSamplingError(RuntimeError):
    """No connected graph was found within the retry budget."""


class EigenSolveError(RuntimeError):
    """The symmetric eigenvalue solver failed to converge."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected weighted communication graph over agents ``0..n-1``.

    ``weights[i, j] > 0`` exactly when agents ``i`` and ``j`` can talk to
    each other; the matrix is symmetric with a zero diagonal (no self
    loops).  Weights are dimensionless mixing coefficients, not distances.
    The topology keeps a read-only copy of them, so the spectrum it
    memoizes can never go stale; the caller's array stays writeable.
    Equality and hashing go by identity, as the spectrum memo does.
    """

    n: int
    weights: np.ndarray
    # set once by laplacian_spectrum
    _spectrum: SpectralProfile | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("agent count must be positive")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("self weights must be zero")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def edges(self) -> list[tuple[int, int, float]]:
        """All edges as ``(i, j, weight)`` with ``i < j``."""
        rows, cols = np.nonzero(np.triu(self.weights, k=1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(rows, cols)]


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Laplacian of a topology plus the spectral bounds derived from it.

    ``alpha_max = rho2 / (2 * rho_l2)`` is the upper end of the open
    interval of admissible consensus step sizes; ``rho2`` is the smallest
    positive Laplacian eigenvalue and ``rho_l2`` the spectral radius of
    ``L^2``.  ``laplacian_spectrum`` hands out ``laplacian`` read-only.
    Equality goes by identity, like the topology's.
    """

    laplacian: np.ndarray
    rho2: float
    rho_l2: float
    alpha_max: float


def erdos_renyi(n: int, prob: float, seed: int = 0, max_attempts: int = 100) -> Topology:
    """Sample a connected Erdos-Renyi graph with unit edge weights.

    Every unordered pair of agents is linked independently with probability
    ``prob``.  The sampler is deterministic for a fixed ``seed``: one
    generator seeded with it serves the call, and each draw that comes out
    disconnected is retried with the generator's next block, up to
    ``max_attempts`` draws before giving up.

    Args:
        n: number of agents, at least 2.
        prob: edge probability in (0, 1].
        seed: seed of the generator behind the edge draws.
        max_attempts: connectivity retry budget.

    Returns:
        A connected :class:`Topology` with 0/1 weights.

    Raises:
        GraphSamplingError: if every attempt in the budget is disconnected.
    """
    if n < 2:
        raise ValueError("an Erdos-Renyi topology needs at least 2 agents")
    if not 0.0 < prob <= 1.0:
        raise ValueError("edge probability must lie in (0, 1]")
    upper = np.triu_indices(n, k=1)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        draws = rng.random(n * (n - 1) // 2)
        weights = np.zeros((n, n))
        weights[upper] = (draws < prob).astype(float)
        weights = weights + weights.T
        topo = Topology(n, weights)
        if is_connected(topo):
            return topo
    raise GraphSamplingError(
        f"no connected graph of {n} agents at edge probability {prob} "
        f"within {max_attempts} attempts from seed {seed}"
    )


def is_connected(topo: Topology) -> bool:
    """True iff a traversal from agent 0 over positive-weight edges reaches everyone.

    The traversal is a breadth-first search that expands a whole level at
    once: the next frontier is every unseen agent linked to the current one.
    """
    linked = topo.weights > 0.0
    seen = np.zeros(topo.n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def laplacian_spectrum(topo: Topology) -> SpectralProfile:
    """The Laplacian ``L = Deg - A`` and its step-bounding spectrum, memoized per topology.

    The first call on a topology runs a dense symmetric eigen-solve and
    stores the profile on it; later calls on the same object return that
    profile.  A topology's weights are read-only, so the stored profile
    cannot go stale.

    Raises:
        EigenSolveError: if the eigenvalue iteration does not converge.
        ValueError: if the graph has no positive Laplacian eigenvalue
            (i.e. no edges at all), in which case no consensus step bound
            exists.
    """
    if topo._spectrum is None:
        object.__setattr__(topo, "_spectrum", _solve_spectrum(topo))
    return topo._spectrum


def _solve_spectrum(topo: Topology) -> SpectralProfile:
    adjacency = topo.weights
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    laplacian.flags.writeable = False
    try:
        eigenvalues = np.linalg.eigvalsh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigenvalue solver failed on a {topo.n}-agent Laplacian") from exc
    positive = eigenvalues[eigenvalues > ZERO_EIGENVALUE_TOL]
    if positive.size == 0:
        raise ValueError("graph has no edges; the Laplacian spectrum is all zero")
    rho2 = float(positive.min())
    rho_l2 = float(np.abs(eigenvalues).max() ** 2)
    return SpectralProfile(
        laplacian=laplacian,
        rho2=rho2,
        rho_l2=rho_l2,
        alpha_max=rho2 / (2.0 * rho_l2),
    )
