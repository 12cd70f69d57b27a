"""Stochastic zeroth-order coordinate gradient estimators.

Given only function values ``F(x, xi)``, a gradient surrogate is built from
finite differences along a random subset of standard basis directions and
scaled by ``p / n_c`` to compensate the subsampling.  All evaluations inside
one estimate share the same realization ``xi``; the caller fixes it by
binding the oracle before calling in here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CoordinateSample",
    "SmoothingSchedule",
    "OracleEvaluationError",
    "sample_coordinates",
    "forward_estimate",
    "central_estimate",
]

Oracle = Callable[[np.ndarray], float]

SMOOTHING_MODES = ("theorem_decay", "fixed")


class OracleEvaluationError(RuntimeError):
    """The black-box oracle returned a non-finite value.

    ``coordinate`` is the basis direction being probed, or ``None`` when the
    failure happened at the unshifted base point.
    """

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


@dataclass(frozen=True)
class CoordinateSample:
    """A set of distinct coordinate indices to probe, stored sorted."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 1:
            raise ValueError("a coordinate sample cannot be empty")
        if len(set(idx)) != len(idx):
            raise ValueError(f"coordinate indices must be distinct, got {idx}")
        if min(idx) < 0:
            raise ValueError("coordinate indices must be nonnegative")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def _trusted(cls, indices: tuple[int, ...]) -> "CoordinateSample":
        """Wrap indices already known to be distinct, nonnegative and sorted."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "indices", indices)
        return sample

    @property
    def n_c(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SmoothingSchedule:
    """How the finite-difference radius evolves over iterations.

    ``theorem_decay`` follows the cap from the convergence analysis with
    equality: ``delta_k = kappa_delta / (p * n * (k + 1))**(1/4)``.
    ``fixed`` holds ``fixed_value`` for the whole run, which is what the
    classification benchmark uses.
    """

    kappa_delta: float = 1.0
    mode: str = "theorem_decay"
    fixed_value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in SMOOTHING_MODES:
            raise ValueError(f"mode must be one of {SMOOTHING_MODES}, got {self.mode!r}")
        if self.kappa_delta <= 0.0:
            raise ValueError("kappa_delta must be positive")
        if self.mode == "fixed" and (self.fixed_value is None or self.fixed_value <= 0.0):
            raise ValueError("fixed mode needs a positive fixed_value")

    def delta(self, p: int, n_agents: int, k: int) -> float:
        """Smoothing radius at iteration ``k`` (zero-based)."""
        if self.mode == "fixed":
            return float(self.fixed_value)
        return self.kappa_delta / float(p * n_agents * (k + 1)) ** 0.25


def sample_coordinates(p: int, n_c: int, rng: np.random.Generator) -> CoordinateSample:
    """Draw ``n_c`` distinct coordinates uniformly from ``0..p-1``."""
    if not 1 <= n_c <= p:
        raise ValueError(f"need 1 <= n_c <= p, got n_c={n_c}, p={p}")
    if n_c == 1:
        return CoordinateSample._trusted((int(rng.integers(p)),))
    # choice without replacement already guarantees distinct in-range indices
    draw = rng.choice(p, size=n_c, replace=False)
    return CoordinateSample._trusted(tuple(sorted(draw.tolist())))


def forward_estimate(
    oracle: Oracle, x: np.ndarray, sample: CoordinateSample, delta: float
) -> np.ndarray:
    """Forward-difference coordinate estimate of the gradient at ``x``.

    Returns ``(p / n_c) * sum_{j in S} (F(x + delta e_j) - F(x)) / delta * e_j``,
    zero outside the sampled coordinates.  Costs exactly ``n_c + 1`` oracle
    evaluations; the base value is shared across coordinates.  The shifted
    points are written into one probe buffer, restored exactly after each
    probe, so the oracle must not keep a reference to its argument.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    base = float(oracle(x))
    if not math.isfinite(base):
        raise OracleEvaluationError("oracle returned a non-finite value at the base point")
    scale = x.size / sample.n_c
    estimate = np.zeros(x.size)
    probe = x.copy()
    for j in sample.indices:
        xj = probe[j]
        probe[j] = xj + delta
        value = float(oracle(probe))
        probe[j] = xj
        if not math.isfinite(value):
            raise OracleEvaluationError(
                f"oracle returned a non-finite value probing coordinate {j}", coordinate=j
            )
        estimate[j] = scale * (value - base) / delta
    return estimate


def central_estimate(
    oracle: Oracle, x: np.ndarray, sample: CoordinateSample, delta: float
) -> np.ndarray:
    """Central-difference coordinate estimate of the gradient at ``x``.

    Returns ``(p / n_c) * sum_{j in S} (F(x + delta e_j) - F(x - delta e_j))
    / (2 delta) * e_j``.  Costs exactly ``2 n_c`` oracle evaluations and is
    exact on quadratics up to the ``p / n_c`` subsampling scale.  Like
    :func:`forward_estimate` it probes through one reused buffer, so the
    oracle must not keep a reference to its argument.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    scale = x.size / sample.n_c
    estimate = np.zeros(x.size)
    probe = x.copy()
    for j in sample.indices:
        xj = probe[j]
        probe[j] = xj + delta
        hi = float(oracle(probe))
        probe[j] = xj - delta
        lo = float(oracle(probe))
        probe[j] = xj
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise OracleEvaluationError(
                f"oracle returned a non-finite value probing coordinate {j}", coordinate=j
            )
        estimate[j] = scale * (hi - lo) / (2.0 * delta)
    return estimate
