"""Communication topologies and the Laplacian spectra that bound consensus steps.

Agents exchange iterates over an undirected weighted graph.  The admissible
consensus step size for the swarm update is governed by two spectral
quantities of the graph Laplacian ``L``: its smallest positive eigenvalue
``rho2`` and the spectral radius of ``L^2``.  A topology keeps the
Laplacian's rows as a padded neighbour table; ``laplacian_spectrum`` derives
both quantities and the step bound ``alpha_max`` from it and keeps them on
the topology, so every run on one graph shares a single eigen-solve.  The
dense Laplacian exists only inside that solve.
"""

from __future__ import annotations

import math
import numbers
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

# Disconnected Erdos-Renyi draws retried before giving up.
MAX_ATTEMPTS = 100

# alpha_max is rounded down to this many significant bits, so the last bits
# of a multithreaded eigen-solve do not reach the records.
ALPHA_MAX_BITS = 40


class GraphSamplingError(RuntimeError):
    """No connected graph was found within the retry budget."""


class EigenSolveError(RuntimeError):
    """The symmetric eigenvalue solver failed to converge."""


@dataclass(frozen=True, eq=False, init=False)
class Topology:
    """Undirected weighted communication graph over agents ``0..n-1``.

    ``Topology(n, weights)`` takes a dense matrix with ``weights[i, j] > 0``
    exactly when agents ``i`` and ``j`` can talk to each other; it must be
    finite, symmetric and nonnegative with a zero diagonal (no self loops).
    Weights are dimensionless mixing coefficients, not distances.

    The graph is kept as the rows of its Laplacian ``L = Deg - W``, in a
    padded neighbour table: ``neighbours[i]`` lists agent ``i`` itself, then
    its neighbours in ascending order, then ``i`` again as padding up to the
    largest degree plus one; ``coefficients[i]`` holds the weighted degree,
    then ``-w_ij`` for each neighbour, then ``0.0`` for the padding.  So
    ``(L @ X)[i] = coefficients[i] @ X[neighbours[i]]``.  No dense copy is
    kept: ``weights`` rebuilds the matrix on each access.  Both arrays are
    read-only, so the spectrum the topology memoizes can never go stale; the
    caller's matrix is only read.  Equality and hashing go by identity, as
    the spectrum memo does.
    """

    n: int
    neighbours: np.ndarray
    coefficients: np.ndarray
    # set once by laplacian_spectrum
    _spectrum: SpectralProfile | None = field(default=None, repr=False)

    def __init__(self, n: int, weights: np.ndarray) -> None:
        if not isinstance(n, numbers.Integral) or n < 1:  # numpy integers pass
            raise ValueError(f"agent count must be a positive integer, got {n!r}")
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weights must be {n}x{n}, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("self weights must be zero")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        rows, columns = np.nonzero(w)
        self._assign(n, rows, columns, w[rows, columns], w.sum(axis=1))

    @classmethod
    def _from_entries(cls, n, rows, columns, values, degrees) -> Topology:
        """A topology from stored entries sorted by row, then column, without a dense pass."""
        topo = cls.__new__(cls)
        topo._assign(n, rows, columns, values, degrees)
        return topo

    def _assign(self, n, rows, columns, values, degrees) -> None:
        starts = np.searchsorted(rows, np.arange(n + 1))
        # slot 0 is the agent itself; its stored entries follow in column order
        slots = np.arange(columns.size) - starts[rows] + 1
        width = int(np.diff(starts).max()) + 1
        neighbours = np.repeat(np.arange(n)[:, None], width, axis=1)
        neighbours[rows, slots] = columns
        coefficients = np.zeros((n, width))
        coefficients[:, 0] = degrees
        coefficients[rows, slots] = -values
        object.__setattr__(self, "n", n)
        for name, table in (("neighbours", neighbours), ("coefficients", coefficients)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def weights(self) -> np.ndarray:
        """The dense symmetric weight matrix, rebuilt read-only on each access.

        ``-(-w)`` is ``w`` exactly.  Slot 0 and the padding write the
        diagonal, which is zeroed last.
        """
        w = np.zeros((self.n, self.n))
        w[np.arange(self.n)[:, None], self.neighbours] = -self.coefficients
        np.fill_diagonal(w, 0.0)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class SpectralProfile:
    """The spectral bounds of a topology's Laplacian.

    ``alpha_max`` is the upper end of the open interval of admissible
    consensus step sizes, ``rho2 / (2 * rho_l2)`` rounded down to
    :data:`ALPHA_MAX_BITS` significant bits; ``rho2`` is the smallest
    positive Laplacian eigenvalue and ``rho_l2`` the spectral radius of
    ``L^2``.
    """

    rho2: float
    rho_l2: float
    alpha_max: float


def _snap_down(value: float) -> float:
    """``value`` rounded down onto the grid of :data:`ALPHA_MAX_BITS`-bit mantissas."""
    mantissa, exponent = math.frexp(value)
    return math.ldexp(math.floor(math.ldexp(mantissa, ALPHA_MAX_BITS)), exponent - ALPHA_MAX_BITS)


def erdos_renyi(n: int, prob: float, seed: int = 0) -> Topology:
    """Sample a connected Erdos-Renyi graph with unit edge weights.

    Every unordered pair of agents is linked independently with probability
    ``prob``.  The sampler is deterministic for a fixed ``seed``: one
    generator seeded with it serves the call, and each draw that comes out
    disconnected is retried with the generator's next block, up to
    :data:`MAX_ATTEMPTS` draws before giving up.

    Args:
        n: number of agents, at least 2.
        prob: edge probability in (0, 1].
        seed: seed of the generator behind the edge draws.

    Returns:
        A connected :class:`Topology` with 0/1 weights.

    Raises:
        GraphSamplingError: if every attempt in the budget is disconnected.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"agent count must be an integer of at least 2, got {n!r}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {prob}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # position in the draw block of the first pair (i, i + 1) of each row i
    row = np.arange(n - 1)
    offsets = row * (2 * n - 1 - row) // 2
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        topo = _draw_topology(n, (rng.random(n * (n - 1) // 2) < prob).nonzero()[0], offsets)
        if is_connected(topo):
            return topo
    raise GraphSamplingError(
        f"no connected graph of {n} agents at edge probability {prob} "
        f"within {MAX_ATTEMPTS} attempts from seed {seed}"
    )


def _draw_topology(n: int, hits: np.ndarray, offsets: np.ndarray) -> Topology:
    """The 0/1 topology whose upper-triangle pairs, row-major, are ``hits``."""
    i = np.searchsorted(offsets, hits, side="right") - 1
    j = hits - offsets[i] + i + 1
    rows, columns = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((columns, rows))
    rows, columns = rows[order], columns[order]
    # exact neighbour counts: the row sums of a 0/1 matrix, bit for bit
    degrees = np.bincount(rows, minlength=n).astype(float)
    return Topology._from_entries(n, rows, columns, np.ones(rows.size), degrees)


def is_connected(topo: Topology) -> bool:
    """True iff a traversal from agent 0 over positive-weight edges reaches everyone.

    The traversal is a breadth-first search that expands a whole level at
    once: the next frontier is every unseen agent at the end of an edge
    leaving the current one.
    """
    seen = np.zeros(topo.n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros(topo.n, dtype=bool)
        # slot 0 and the padding point at frontier agents, which are already seen
        reached[topo.neighbours[frontier]] = True
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen.all())


def laplacian_spectrum(topo: Topology) -> SpectralProfile:
    """The spectral bounds of ``L = Deg - A``, memoized per topology.

    The first call on a topology runs a dense symmetric eigen-solve on a
    transient n x n Laplacian, built from the topology's read-only table,
    and stores the profile on it; later calls on the same object return
    that profile.

    LAPACK may move the last bits of the eigenvalues with the BLAS thread
    count.  ``rho2`` and ``rho_l2`` are reported raw; ``alpha_max`` is
    rounded down onto a grid of :data:`ALPHA_MAX_BITS`-bit mantissas, which
    keeps every step below the raw bound admissible and makes the bound,
    and so every resolved ``alpha``, the same on any thread count unless
    the jitter happens to straddle a grid point.

    Raises:
        EigenSolveError: if the eigenvalue iteration does not converge.
        ValueError: if the graph has no positive Laplacian eigenvalue
            (i.e. no edges at all), in which case no consensus step bound
            exists, or if ``rho2``, ``rho_l2`` or ``alpha_max`` comes out
            non-finite (weights too large for the float eigen-solve).
    """
    if topo._spectrum is None:
        object.__setattr__(topo, "_spectrum", _solve_spectrum(topo))
    return topo._spectrum


def _solve_spectrum(topo: Topology) -> SpectralProfile:
    # the bits of np.diag(deg) - W: stored weights are positive, so -w is
    # 0.0 - w, and the padding slots point at the diagonal, written last
    lap = np.zeros((topo.n, topo.n))
    lap[np.arange(topo.n)[:, None], topo.neighbours] = topo.coefficients
    np.fill_diagonal(lap, topo.coefficients[:, 0])
    try:
        eigenvalues = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigenvalue solver failed on a {topo.n}-agent Laplacian") from exc
    positive = eigenvalues[eigenvalues > ZERO_EIGENVALUE_TOL]
    if positive.size == 0:
        raise ValueError("graph has no edges; the Laplacian spectrum is all zero")
    rho2 = float(positive.min())
    rho_l2 = float(np.abs(eigenvalues).max() ** 2)
    bounds = {"rho2": rho2, "rho_l2": rho_l2, "alpha_max": rho2 / (2.0 * rho_l2)}
    for name, value in bounds.items():
        if not np.isfinite(value):
            raise ValueError(
                f"Laplacian spectrum has {name} = {value}; the weights are too large "
                "for a float eigen-solve"
            )
    bounds["alpha_max"] = _snap_down(bounds["alpha_max"])
    return SpectralProfile(**bounds)
