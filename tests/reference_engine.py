"""A frozen per-probe engine that the zoswarm dynamics are checked against.

It is a plain copy of the per-agent round: one scalar ``problem.evaluate``
per probe, its own forward and central estimators and powerball transform,
a dense Laplacian product for the mixing, and the run's two streams from
``SeedSequence(seed).spawn(2)`` (data, then coordinates).  Its diagnostics
come from the ``StochasticProblem`` base-class per-agent methods.  Only the
tests import it, so an optimisation in ``src/`` that reorders floating
point sums can be told from one that changes the algorithm.
"""

import numpy as np

from zoswarm.problems import StochasticProblem


def coordinate_rows(rng, n, p, n_c):
    """Per agent, the sorted positions of the ``n_c`` smallest of ``p`` uniforms."""
    return [sorted(np.argsort(row)[:n_c].tolist()) for row in rng.random((n, p))]


def forward(oracle, x, coords, delta):
    base = oracle(x)
    estimate = np.zeros(x.size)
    for j in coords:
        shifted = x.copy()
        shifted[j] += delta
        estimate[j] = x.size / len(coords) * (oracle(shifted) - base) / delta
    return estimate


def central(oracle, x, coords, delta):
    estimate = np.zeros(x.size)
    for j in coords:
        ahead, behind = x.copy(), x.copy()
        ahead[j] += delta
        behind[j] -= delta
        estimate[j] = x.size / len(coords) * (oracle(ahead) - oracle(behind)) / (2.0 * delta)
    return estimate


def powerball(v, gamma):
    return np.sign(v) * np.abs(v) ** gamma


def smoothing_radius(schedule, p, n, k):
    if schedule.mode == "fixed":
        return schedule.fixed_value
    return schedule.kappa_delta / float(p * n * (k + 1)) ** 0.25


def record(problem, iterates, k, gamma, oracle_calls):
    """``(k, loss, |g|^2, |g|_{1+gamma}^2, consensus error, oracle calls)`` at the mean."""
    mean = iterates.mean(axis=0)
    grad = StochasticProblem.true_global_gradient(problem, mean)
    q = 1.0 + gamma
    return (
        k,
        StochasticProblem.full_loss(problem, mean),
        float(np.sum(grad**2)),
        float(np.sum(np.abs(grad) ** q) ** (2.0 / q)),
        float(np.mean(np.sum((iterates - mean) ** 2, axis=1))),
        oracle_calls,
    )


def run(weights, problem, params, seed, record_every):
    """The records of one run of ``params`` (a ``zoswarm.HyperParams``) from the origin."""
    laplacian = np.diag(weights.sum(axis=1)) - weights
    n, p = laplacian.shape[0], problem.dimension
    data, coords = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    estimate = forward if params.estimator == "forward" else central
    probes = params.n_c + 1 if params.estimator == "forward" else 2 * params.n_c
    iterates = np.zeros((n, p))
    records = [record(problem, iterates, 0, params.gamma, 0)]
    for k in range(params.T):
        rows = coordinate_rows(coords, n, p, params.n_c)
        draws = [problem.sample(i, data) for i in range(n)]
        delta = smoothing_radius(params.smoothing, p, n, k)
        steps = np.array(
            [
                estimate(
                    lambda z, i=i: problem.evaluate(i, z, draws[i]), iterates[i], rows[i], delta
                )
                for i in range(n)
            ]
        )
        if params.algorithm == "zoom_pb":
            steps = powerball(steps, params.gamma)
        iterates = iterates - params.alpha * (laplacian @ iterates) - params.eta * steps
        if (k + 1) % record_every == 0 or k + 1 == params.T:
            records.append(record(problem, iterates, k + 1, params.gamma, (k + 1) * n * probes))
    return records
