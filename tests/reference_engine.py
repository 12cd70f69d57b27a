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
gives a topology's dense matrix back from its neighbour table.  A run also
gives its final test accuracy, and ``summary_row`` the medians over seeds
that a battery's ``summary.csv`` row holds.

``ExactSpectrum`` is the exact reference for ``laplacian_spectrum``: the
positive Laplacian eigenvalues as the roots of one rational polynomial,
bracketed by Sturm counts, with no floating point anywhere.
"""

import math
from fractions import Fraction

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


def test_accuracy(problem, x):
    """Share of test rows whose response at ``x``, positive from one half up, matches
    the label; ``None`` on the toy, which has no test set."""
    if isinstance(problem, QuadraticToyProblem):
        return None
    predicted = sigmoid(problem.test_features @ x) >= 0.5
    return float(np.mean(predicted == (problem.test_labels == 1)))


def summary_row(runs, horizon, gamma):
    """The ``summary.csv`` row of one label's ``(records, accuracy)`` runs at ``gamma``.

    The medians are over the runs; the two averages are means over the
    records before ``horizon``.  The guarantees cover ``gamma`` in [0.5, 1].
    """
    before = [[r for r in records if r[0] < horizon] for records, _ in runs]
    accuracies = [accuracy for _, accuracy in runs]
    return {
        "within_guarantee_range": 0.5 <= gamma <= 1.0,
        "seed_count": len(runs),
        "median_initial_loss": np.median([records[0][1] for records, _ in runs]),
        "median_final_loss": np.median([records[-1][1] for records, _ in runs]),
        "median_avg_grad_norm_sq": np.median([np.mean([r[2] for r in rs]) for rs in before]),
        "median_avg_consensus_err": np.median([np.mean([r[4] for r in rs]) for rs in before]),
        "median_accuracy": None if None in accuracies else np.median(accuracies),
    }


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
    """The records of one run of ``params`` (a ``zoswarm.HyperParams``) from the origin,
    and the test accuracy at its final mean iterate."""
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
    return records, test_accuracy(problem, iterates.mean(axis=0))


def _trimmed(poly):
    """``poly`` (coefficients highest first) without its leading zeros."""
    start = 0
    while start < len(poly) and poly[start] == 0:
        start += 1
    return poly[start:]


def _divmod(a, b):
    """Quotient and remainder of polynomial ``a`` by ``b``, exactly."""
    rem, quotient = list(a), []
    while len(rem) >= len(b):
        factor = rem[0] / b[0]
        quotient.append(factor)
        rem = [r - factor * c for r, c in zip(rem[1:], [*b[1:], *[0] * (len(rem) - len(b))])]
    return quotient, _trimmed(rem)


def _derivative(poly):
    degree = len(poly) - 1
    return [c * (degree - i) for i, c in enumerate(poly[:-1])]


def _integral(poly):
    """``poly`` times the positive common denominator of its coefficients: the same signs."""
    scale = math.lcm(*(Fraction(c).denominator for c in poly))
    return [int(Fraction(c) * scale) for c in poly]


def charpoly(matrix):
    """``det(t I - A)`` of a square matrix of Fractions, highest power first (Faddeev-LeVerrier).

    ``M_k = A M_{k-1} + c_{n-k+1} I`` from ``M_0 = 0``, and
    ``c_{n-k} = -tr(A M_k) / k``.
    """
    n = len(matrix)
    coefficients = [Fraction(1)]
    product = [[Fraction(0)] * n for _ in range(n)]  # A M_0
    for k in range(1, n + 1):
        m = [row[:] for row in product]
        for i in range(n):
            m[i][i] += coefficients[-1]
        product = [
            [sum(matrix[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)
        ]
        coefficients.append(-sum(product[i][i] for i in range(n)) / k)
    return coefficients


def _binade(value):
    """The ``e`` with ``2^(e - 1) <= value < 2^e`` for a positive Fraction, as ``math.frexp``."""
    e = value.numerator.bit_length() - value.denominator.bit_length()
    return e + 1 if value >= Fraction(2) ** e else e


def snap_down(value, bits=40):
    """A positive Fraction rounded down onto the grid of ``bits``-bit mantissas, exactly."""
    step = grid_step(value, bits)
    return math.floor(value / step) * step


def grid_step(value, bits=40):
    """The spacing of the ``bits``-bit mantissa grid around a positive Fraction ``value``."""
    return Fraction(2) ** (_binade(value) - bits)


class ExactSpectrum:
    """The positive eigenvalues of the Laplacian of dense ``weights``, exactly.

    The characteristic polynomial of ``L = Deg - W`` is taken over Fractions
    (every float is one) and its zero roots, one per connected component,
    are divided out.  So is ``gcd(q, q')``, so the chain is square free: a
    chain that is not miscounts when a point lands on a repeated
    eigenvalue.  ``at_most(x)`` counts the distinct positive eigenvalues up
    to ``x`` from the Sturm chain's sign changes, and the bisection of
    :meth:`alpha_max_snap` recognises a dyadic eigenvalue exactly when a
    midpoint lands on it, so no float rounding enters anywhere.
    """

    MAX_HALVINGS = 4000

    def __init__(self, weights):
        w = [[Fraction(float(v)) for v in row] for row in np.asarray(weights)]
        n = len(w)
        laplacian = [[(sum(w[i]) if i == j else -w[i][j]) for j in range(n)] for i in range(n)]
        q = charpoly(laplacian)
        while q[-1] == 0:  # the zero eigenvalues
            q.pop()
        assert len(q) > 1, "the graph has no edge"
        gcd = q
        rest = _derivative(q)
        while rest:
            gcd, rest = rest, _divmod(gcd, rest)[1]
        square_free, remainder = _divmod(q, gcd)
        assert remainder == []
        chain = [square_free, _derivative(square_free)]
        while len(chain[-1]) > 1:
            chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
        self.chain = [_integral(poly) for poly in chain]
        self.count = len(square_free) - 1  # distinct positive eigenvalues
        self._at_zero = self._changes(Fraction(0))
        # a power of two above twice the largest degree, which by Gershgorin
        # bounds every eigenvalue: a dyadic eigenvalue is a midpoint some time
        self.bound = Fraction(1)
        while self.bound <= 2 * max(laplacian[i][i] for i in range(n)):
            self.bound *= 2

    def _changes(self, x):
        """Sign changes along the chain at ``x``, zeros skipped."""
        a, b = x.numerator, x.denominator
        signs = []
        for poly in self.chain:
            acc, power = poly[0], 1
            for c in poly[1:]:
                power *= b
                acc = acc * a + c * power  # the value times b^degree
            if acc:
                signs.append(acc > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    def at_most(self, x):
        """How many distinct positive eigenvalues are at most ``x``."""
        return self._at_zero - self._changes(Fraction(x))

    def is_eigenvalue(self, x):
        x = Fraction(x)
        return sum(c * x ** (len(self.chain[0]) - 1 - i) for i, c in enumerate(self.chain[0])) == 0

    def _halve(self, bracket, j):
        """Halve ``(lo, hi]`` around the ``j``-th eigenvalue from 1; ``(e, e)`` once it is found."""
        lo, hi = bracket
        if lo == hi:
            return bracket
        mid = (lo + hi) / 2
        below = self.at_most(mid)
        if below < j:
            return mid, hi
        if below == j and self.is_eigenvalue(mid):
            return mid, mid
        return lo, mid

    def alpha_max_snap(self):
        """The exact 40-bit snap of ``rho2 / (2 lambda_max^2)`` and ``kappa = lambda_max / rho2``.

        Both brackets are halved until the ratio's two ends snap to one grid point.
        """
        low = top = (Fraction(0), self.bound)
        for _ in range(self.MAX_HALVINGS):
            if low[0] > 0 and top[0] > 0:
                least = snap_down(low[0] / (2 * top[1] ** 2))
                if least == snap_down(low[1] / (2 * top[0] ** 2)):
                    return least, float(top[1] / low[0])
            low, top = self._halve(low, 1), self._halve(top, self.count)
        raise AssertionError("the exact snap did not settle")
