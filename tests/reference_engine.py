"""A frozen per-probe engine that the zoswarm dynamics are checked against.

It is a plain copy of the per-agent round: one scalar ``problem.evaluate``
per probe, its own forward and central estimators and powerball transform,
a dense Laplacian product for the mixing, and the run's two streams from
``SeedSequence(seed).spawn(2)`` (data, then coordinates).  Its diagnostics
are per-agent reductions: the mean over agents of each agent's full-batch
gradient and loss.  Only the tests import it, so an optimisation in
``src/`` that reorders floating point sums can be told from one that
changes the algorithm.

It is also the one home of the plain formulas that ``test_fast_paths.py``
holds the fast paths in ``src/`` to, bit for bit: ``nlls_evaluate`` for
``ClassificationProblem.evaluate``, ``toy_evaluate`` for
``QuadraticToyProblem.evaluate``, the two-branch ``sigmoid``, the one-pass
classification loss and gradient, the estimators, ``powerball``,
``holder_norm_sq``, ``consensus_error`` and ``coordinate_rows``.  ``weights``
gives a topology's dense matrix back from its neighbour table.
"""

import math

import numpy as np

from zoswarm.problems import QuadraticToyProblem


def sigmoid(t):
    """The logistic function by the two branches of ``nlls_evaluate``, on a masked array."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def nlls_evaluate(problem, agent, x, xi):
    """Squared logistic residual ``(y - phi(x; a))^2`` for one sampled pair."""
    t = float(problem.train_features[xi] @ x)
    if t >= 0.0:
        phi = 1.0 / (1.0 + math.exp(-t))
    else:
        e = math.exp(t)
        phi = e / (1.0 + e)
    return (float(problem.train_labels[xi]) - phi) ** 2


def toy_evaluate(problem, agent, x, z):
    """The toy's single-sample value ``0.5 ||x - c_i||^2 + z . (x - c_i)``."""
    diff = x - problem.centers[agent]
    return float((0.5 * diff) @ diff + z @ diff)


def local_gradient(problem, agent, x):
    """Full-batch gradient of ``f_agent``: ``x - c_i`` on the toy, else the shard mean."""
    if isinstance(problem, QuadraticToyProblem):
        return x - problem.centers[agent]
    start, stop = problem.shard_bounds[agent]
    features = problem.train_features[start:stop]
    labels = problem.train_labels[start:stop].astype(float)
    phi = sigmoid(features @ x)
    coef = -2.0 * (labels - phi) * phi * (1.0 - phi)
    return coef @ features / labels.size


def local_loss(problem, agent, x):
    """Full-batch value of ``f_agent``: ``0.5 ||x - c_i||^2`` on the toy, else the shard mean."""
    if isinstance(problem, QuadraticToyProblem):
        diff = x - problem.centers[agent]
        return float(0.5 * diff @ diff)
    start, stop = problem.shard_bounds[agent]
    labels = problem.train_labels[start:stop].astype(float)
    phi = sigmoid(problem.train_features[start:stop] @ x)
    return float(np.mean((labels - phi) ** 2))


def shard_weights(problem):
    """Per training row, ``1 / (shard size * agent count)``, its weight in the loss and gradient."""
    sizes = np.array([stop - start for start, stop in problem.shard_bounds])
    return np.repeat(1.0 / (sizes * problem.local_count), sizes)


def classification_rows(problem, x):
    """Per training row, the gradient factor ``-2 (y - phi) phi (1 - phi)`` and ``(y - phi)^2``."""
    labels = problem.train_labels.astype(float)
    phi = sigmoid(problem.train_features @ x)
    return -2.0 * (labels - phi) * phi * (1.0 - phi), (labels - phi) ** 2


def one_pass_gradient(problem, x):
    """The classification gradient as one weighted product over the whole training set."""
    coef, _ = classification_rows(problem, x)
    return (coef * shard_weights(problem)) @ problem.train_features


def one_pass_loss(problem, x):
    """The classification loss as shard sums at the shard starts over one residual pass."""
    _, residual_sq = classification_rows(problem, x)
    starts = [start for start, _ in problem.shard_bounds]
    sizes = np.array([stop - start for start, stop in problem.shard_bounds])
    return float(np.mean(np.add.reduceat(residual_sq, starts) / sizes))


def global_gradient(problem, x):
    """The mean over agents of their full-batch gradients."""
    return np.mean([local_gradient(problem, i, x) for i in range(problem.local_count)], axis=0)


def full_loss(problem, x):
    """The mean over agents of their full-batch losses."""
    return float(np.mean([local_loss(problem, i, x) for i in range(problem.local_count)]))


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


def holder_norm_sq(v, q):
    """Squared q-norm ``(sum |v_j|^q)^(2/q)``."""
    return float(np.sum(np.abs(v) ** q) ** (2.0 / q))


def consensus_error(iterates, mean):
    """Mean over agents of the squared distance of their row to ``mean``."""
    return float(np.mean(np.sum((iterates - mean) ** 2, axis=1)))


def smoothing_radius(schedule, p, n, k):
    if schedule.mode == "fixed":
        return schedule.value
    return schedule.value / float(p * n * (k + 1)) ** 0.25


def record(problem, iterates, k, gamma, oracle_calls):
    """``(k, loss, |g|^2, |g|_{1+gamma}^2, consensus error, oracle calls)`` at the mean."""
    mean = iterates.mean(axis=0)
    grad = global_gradient(problem, mean)
    return (
        k,
        full_loss(problem, mean),
        float(np.sum(grad**2)),
        holder_norm_sq(grad, 1.0 + gamma),
        consensus_error(iterates, mean),
        oracle_calls,
    )


def weights(topo):
    """The dense symmetric weight matrix of a topology, from its neighbour table.

    ``-(-w)`` is ``w`` exactly.  Slot 0 and the padding write the diagonal,
    which is zeroed last.
    """
    w = np.zeros((topo.n, topo.n))
    w[np.arange(topo.n)[:, None], topo.neighbours] = -topo.coefficients
    np.fill_diagonal(w, 0.0)
    return w


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
