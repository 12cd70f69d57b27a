"""Per-iteration metrics, run summaries and CSV emission.

The gradients reported here are the problems' analytic full-batch gradients,
a simulator privilege the algorithms never see: the convergence statements
are phrased in true gradients while the dynamics stay zeroth-order.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "IterationRecord",
    "RunSummary",
    "CSV_FIELDS",
    "holder_norm_sq",
    "consensus_error",
    "capture_record",
    "summarize",
    "write_csv",
    "write_table",
]


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of the swarm at iteration ``k``.

    ``grad_norm_1pg_sq`` is the squared ``(1+gamma)``-norm of the true
    gradient at the mean iterate; with ``gamma = 1`` it coincides exactly
    with ``grad_norm_sq``.  ``oracle_calls`` counts cumulative black-box
    evaluations made by the algorithm (never by the diagnostics).
    ``wall_ms`` is elapsed wall-clock time and is the one field ``==``
    leaves out, so equal records are the determinism comparison.
    """

    k: int
    mean_train_loss: float
    grad_norm_sq: float
    grad_norm_1pg_sq: float
    consensus_err: float
    oracle_calls: int
    wall_ms: float = field(compare=False)


CSV_FIELDS = tuple(f.name for f in fields(IterationRecord))


@dataclass(frozen=True)
class RunSummary:
    """Time averages over recorded iterations before the horizon, plus finals."""

    avg_grad_norm_sq: float
    avg_consensus_err: float
    final_loss: float
    final_accuracy: float | None = None


def holder_norm_sq(v: np.ndarray, q: float) -> float:
    """Squared q-norm ``(sum |v_j|^q)^(2/q)``."""
    if q <= 0.0:
        raise ValueError("norm order must be positive")
    v = np.asarray(v, dtype=float)
    if q == 2.0:
        return float(v @ v)  # keep the gamma = 1 case bit-identical to the plain squared norm
    return float(np.sum(np.abs(v) ** q) ** (2.0 / q))


def consensus_error(iterates: np.ndarray, mean_iterate: np.ndarray | None = None) -> float:
    """Mean squared deviation of agent rows from the swarm mean."""
    if mean_iterate is None:
        mean_iterate = iterates.mean(axis=0)
    return float(((iterates - mean_iterate) ** 2).sum(axis=1).mean())


def capture_record(
    problem,
    iterates: np.ndarray,
    k: int,
    gamma: float,
    oracle_calls: int,
    wall_ms: float,
) -> IterationRecord:
    """Evaluate all diagnostics at the current swarm mean."""
    mean_iterate = iterates.mean(axis=0)
    grad = problem.true_global_gradient(mean_iterate)
    return IterationRecord(
        k=int(k),
        mean_train_loss=float(problem.full_loss(mean_iterate)),
        grad_norm_sq=float(grad @ grad),
        grad_norm_1pg_sq=holder_norm_sq(grad, 1.0 + gamma),
        consensus_err=consensus_error(iterates, mean_iterate),
        oracle_calls=int(oracle_calls),
        wall_ms=float(wall_ms),
    )


def summarize(trajectory) -> RunSummary:
    """Time-averaged stationarity and consensus measures plus final values.

    Averages are plain means over recorded iterations strictly before the
    horizon; the final record supplies ``final_loss``.  Accuracy is carried
    through when the problem has a test set.
    """
    records = trajectory.records
    if not records:
        raise ValueError("cannot summarize an empty trajectory")
    horizon = trajectory.params.T
    window = [r for r in records if r.k < horizon] or list(records)
    return RunSummary(
        avg_grad_norm_sq=float(np.mean([r.grad_norm_sq for r in window])),
        avg_consensus_err=float(np.mean([r.consensus_err for r in window])),
        final_loss=records[-1].mean_train_loss,
        final_accuracy=trajectory.final_accuracy,
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)  # shortest string that reads back to the same float
    return str(value)


def write_table(path: str | Path, fields, rows, comments=()) -> None:
    """Write mapping ``rows`` as CSV columns ``fields`` below ``comments``, atomically."""
    path = Path(path)
    lines = [*comments, ",".join(fields)]
    lines.extend(",".join(_format_cell(row[f]) for f in fields) for row in rows)
    # temp file then rename, so readers never see a partial file; the temp
    # name stays short, so any name the file system accepts can be written
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(records, path: str | Path) -> None:
    """Write records to ``path`` as :data:`CSV_FIELDS` columns, atomically."""
    write_table(path, CSV_FIELDS, [vars(r) for r in records])

