"""Stochastic zeroth-order coordinate gradient estimators.

Given only function values ``F(x, xi)``, a gradient surrogate is built from
finite differences along a random subset of standard basis directions and
scaled by ``p / n_c`` to compensate the subsampling; the subset is a
:class:`CoordinateSample`, a sorted tuple of indices.  All evaluations inside
one estimate share the same realization ``xi``; the caller fixes it by
binding the oracle before calling in here.  Each estimate copies ``x`` once.

An estimator checks ``delta``, the point and the sample before its first
oracle call, and reads every oracle value by the number rule as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._checks import check_choice, check_integer, check_number, check_point, is_finite

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
    """The black-box oracle returned a value that is not a finite number.

    In a run it also stands for an exception the oracle raised, which is
    its ``__cause__``; that exception's type is not kept.  ``coordinate`` is
    the basis direction being probed, or ``None`` at the unshifted base
    point and for an exception the oracle raised.  ``agent`` and ``k`` name
    the agent and the round when :func:`zoswarm.dynamics.step` raised it,
    and are ``None`` from a bare estimator call.
    """

    def __init__(
        self,
        message: str,
        coordinate: int | None = None,
        agent: int | None = None,
        k: int | None = None,
    ):
        super().__init__(message)
        self.coordinate = coordinate
        self.agent = agent
        self.k = k


class CoordinateSample(tuple):
    """Distinct nonnegative coordinate indices to probe: a sorted tuple of ints."""

    __slots__ = ()

    def __new__(cls, indices: Iterable[int]) -> CoordinateSample:
        idx = []
        for i in indices:
            check_integer("coordinate index", i, 0)
            idx.append(int(i))
        if len(idx) < 1:
            raise ValueError("a coordinate sample cannot be empty")
        if len(set(idx)) != len(idx):
            raise ValueError(f"coordinate indices must be distinct, got {tuple(idx)}")
        return super().__new__(cls, sorted(idx))

    @property
    def n_c(self) -> int:
        """The sample's size, ``len(self)``."""
        return len(self)


@dataclass(frozen=True)
class SmoothingSchedule:
    """How the finite-difference radius evolves over iterations.

    The two fields mirror a config's ``<mode>[:<value>]`` smoothing spec.
    ``theorem_decay`` follows the cap from the convergence analysis with
    equality, ``delta_k = value / (p * n * (k + 1))**(1/4)``, where ``value``
    is kappa and 1.0 when unset.  ``fixed`` holds the radius ``value`` for
    the whole run, which is what the classification benchmark uses; there
    ``value`` must be given.
    """

    mode: str = "theorem_decay"
    value: float | None = None

    def __post_init__(self) -> None:
        check_choice("mode", self.mode, SMOOTHING_MODES)
        if self.value is None:
            if self.mode == "fixed":
                raise ValueError("fixed mode needs a radius value")
            object.__setattr__(self, "value", 1.0)
        check_number("value", self.value, "(0, inf)")

    def delta(self, p: int, n_agents: int, k: int) -> float:
        """Smoothing radius at iteration ``k`` (zero-based), a Python float."""
        if self.mode == "fixed":
            return float(self.value)
        return float(self.value) / float(p * n_agents * (k + 1)) ** 0.25


def sample_coordinates(
    n: int, p: int, n_c: int, rng: np.random.Generator
) -> list[CoordinateSample]:
    """Draw ``n`` uniform ``n_c``-subsets of ``0..p-1`` from one ``(n, p)`` block.

    Sample ``i`` is the sorted positions of the ``n_c`` smallest uniforms in row
    ``i``, which are equally likely to be any ``n_c`` of the ``p`` positions; it
    meets the checks of ``CoordinateSample`` by construction and skips them.
    """
    if not 1 <= n_c <= p:
        raise ValueError(f"need 1 <= n_c <= p, got n_c={n_c}, p={p}")
    block = np.argpartition(rng.random((n, p)), n_c - 1, axis=1)[:, :n_c]
    block.sort(axis=1)
    new = tuple.__new__
    return [new(CoordinateSample, row) for row in block.tolist()]


def _probe_buffer(x: np.ndarray, sample: CoordinateSample, delta: float) -> np.ndarray:
    """The one copy of ``x`` that an estimate shifts, after checking its inputs."""
    # a Python float in range passes at the cost of one comparison, not the rule's
    if not (type(delta) is float and 0.0 < delta < math.inf):
        check_number("delta", delta, "(0, inf)")
    probe = check_point(x).copy()
    if sample[-1] >= len(probe):  # the sample is sorted: its last index is its largest
        raise ValueError(
            f"coordinate index {sample[-1]} is out of range for dimension p = {len(probe)}"
        )
    return probe


def _value(value, coordinate: int | None) -> float:
    """An oracle value that is not a finite Python float, read by the number rule."""
    if is_finite(value):
        return float(value)
    where = "at the base point" if coordinate is None else f"probing coordinate {coordinate}"
    raise OracleEvaluationError(
        f"oracle returned {value!r}, not a finite number, {where}", coordinate=coordinate
    )


def forward_estimate(
    oracle: Oracle, x: np.ndarray, sample: CoordinateSample, delta: float
) -> np.ndarray:
    """Forward-difference coordinate estimate of the gradient at ``x``.

    Returns ``(p / n_c) * sum_{j in S} (F(x + delta e_j) - F(x)) / delta * e_j``,
    zero outside the sampled coordinates ``S``.  Costs exactly ``n_c + 1``
    oracle evaluations; the base value is shared across coordinates.  ``x`` is
    copied once, into a probe buffer that is shifted and restored exactly for
    each probe, so the oracle must not keep a reference to its argument.  A
    ``delta`` that is not a finite number in ``(0, inf)``, an index at or
    beyond ``p``, or an ``x`` that is not a finite real vector (a float64 one
    is not scanned) is a ``ValueError`` raised before any oracle call.  An
    oracle value that is not a finite number is an :class:`OracleEvaluationError`,
    and a number is read as its ``float()``; an exception the oracle raises
    itself passes through as it is.
    """
    probe = _probe_buffer(x, sample, delta)
    base = oracle(probe)
    if type(base) is not float or not math.isfinite(base):
        base = _value(base, None)
    scale = len(probe) / len(sample)
    estimate = np.zeros(len(probe))
    # the probe's memoryview gets and sets the same float64 bytes as numpy scalar
    # indexing, without boxing each entry in an np.float64; the estimate, written
    # once per coordinate, does not repay the cost of making a second view
    probe_entries = probe.data
    for j in sample:
        xj = probe_entries[j]
        probe_entries[j] = xj + delta
        value = oracle(probe)
        probe_entries[j] = xj
        if type(value) is not float or not math.isfinite(value):
            value = _value(value, j)
        estimate[j] = scale * (value - base) / delta
    return estimate


def central_estimate(
    oracle: Oracle, x: np.ndarray, sample: CoordinateSample, delta: float
) -> np.ndarray:
    """Central-difference coordinate estimate of the gradient at ``x``.

    Returns ``(p / n_c) * sum_{j in S} (F(x + delta e_j) - F(x - delta e_j))
    / (2 delta) * e_j``.  Costs exactly ``2 n_c`` oracle evaluations and is
    exact on quadratics up to the ``p / n_c`` subsampling scale.  Like
    :func:`forward_estimate` it probes through one copy of ``x``, so the
    oracle must not keep a reference to its argument, and it raises the
    same errors.
    """
    probe = _probe_buffer(x, sample, delta)
    scale = len(probe) / len(sample)
    estimate = np.zeros(len(probe))
    probe_entries = probe.data
    for j in sample:
        xj = probe_entries[j]
        probe_entries[j] = xj + delta
        hi = oracle(probe)
        probe_entries[j] = xj - delta
        lo = oracle(probe)
        probe_entries[j] = xj
        if type(hi) is not float or not math.isfinite(hi):
            hi = _value(hi, j)
        if type(lo) is not float or not math.isfinite(lo):
            lo = _value(lo, j)
        estimate[j] = scale * (hi - lo) / (2.0 * delta)
    return estimate
