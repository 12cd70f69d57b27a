"""Layer tracing for the benchmark's traced repetitions.

The tracer wraps zoswarm's public functions where their callers look them
up and aggregates, per name, the call count and the inclusive and self time
(self time is inclusive time minus the time of wrapped calls nested in it).
The oracle is called hundreds of thousands of times per repetition, so leaf
calls only bump counters; full spans, with their parent span, are kept only
for the few coarse names listed in ``SPAN_NAMES`` and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from unittest import mock

SPAN_NAMES = (
    "harness.run_battery",
    "dynamics.run",
    "metrics.capture_record",
    "metrics.write_csv",
)

PROBLEM_METHODS = {
    "evaluate": "problems.evaluate",
    "sample": "problems.sample",
    "full_loss": "problems.full_loss",
    "true_global_gradient": "problems.true_global_gradient",
}


class Tracer:
    """Counters and self time per name, spans for ``SPAN_NAMES``.

    ``stats[name]`` is ``[calls, inclusive_s, self_s]``.  ``er_connected``
    counts connected Erdos-Renyi draws; ``probe_mismatches`` counts
    estimates whose oracle-call count differs from the estimator's
    contract.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[dict] = []
        self.er_connected = 0
        self.probe_mismatches = 0
        self._frames = [[0.0]]  # child time of each open wrapped call; root sentinel
        self._open_spans: list[int] = []
        self._span_ids = itertools.count()

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        """``fn`` with its calls counted and timed under ``name``."""
        stat = self.stat(name)
        frames = self._frames
        open_spans = self._open_spans
        keep_span = name in SPAN_NAMES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_span:
                span_id = next(self._span_ids)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if keep_span:
                    open_spans.pop()
                    self.spans.append(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )

        return traced

    def _connected_draws(self, is_connected):
        def counted(topo):
            connected = is_connected(topo)
            self.er_connected += bool(connected)
            return connected

        return self.wrap("graph.er_draw", functools.wraps(is_connected)(counted))

    def _probe_checked(self, name: str, estimate, per_coordinate: int, extra: int):
        evaluate = self.stat("problems.evaluate")

        def checked(oracle, x, sample, delta):
            before = evaluate[0]
            result = estimate(oracle, x, sample, delta)
            if evaluate[0] - before != per_coordinate * sample.n_c + extra:
                self.probe_mismatches += 1
            return result

        return self.wrap(name, functools.wraps(estimate)(checked))

    def _instrumented_build(self, build_problem):
        def build(config):
            problem = build_problem(config)
            for method, name in PROBLEM_METHODS.items():
                setattr(problem, method, self.wrap(name, getattr(problem, method)))
            return problem

        return self.wrap("problems.build", functools.wraps(build_problem)(build))

    @contextlib.contextmanager
    def instrument(self):
        """Patch the traced zoswarm functions for the duration of the block.

        ``dynamics`` imports its graph, estimator and metrics helpers by
        name, so they are patched in its namespace; the harness reaches the
        other layers through their modules.
        """
        from zoswarm import dynamics, graph, harness, metrics

        patches = [
            (harness, "load_config", self.wrap("harness.load_config", harness.load_config)),
            (harness, "run_battery", self.wrap("harness.run_battery", harness.run_battery)),
            (harness, "build_problem", self._instrumented_build(harness.build_problem)),
            (graph, "erdos_renyi", self.wrap("graph.erdos_renyi", graph.erdos_renyi)),
            (graph, "is_connected", self._connected_draws(graph.is_connected)),
            (
                graph,
                "laplacian_spectrum",
                self.wrap("graph.laplacian_spectrum", graph.laplacian_spectrum),
            ),
            (
                dynamics,
                "laplacian_spectrum",
                self.wrap("graph.laplacian_spectrum", dynamics.laplacian_spectrum),
            ),
            (dynamics, "is_connected", self.wrap("graph.is_connected", dynamics.is_connected)),
            (dynamics, "run", self.wrap("dynamics.run", dynamics.run)),
            (
                dynamics,
                "sample_coordinates",
                self.wrap("estimator.sample_coordinates", dynamics.sample_coordinates),
            ),
            (
                dynamics,
                "forward_estimate",
                self._probe_checked("estimator.forward_estimate", dynamics.forward_estimate, 1, 1),
            ),
            (
                dynamics,
                "central_estimate",
                self._probe_checked("estimator.central_estimate", dynamics.central_estimate, 2, 0),
            ),
            (dynamics, "powerball", self.wrap("dynamics.powerball", dynamics.powerball)),
            (
                dynamics,
                "capture_record",
                self.wrap("metrics.capture_record", dynamics.capture_record),
            ),
            (metrics, "write_csv", self.wrap("metrics.write_csv", metrics.write_csv)),
            (metrics, "summarize", self.wrap("metrics.summarize", metrics.summarize)),
        ]
        with contextlib.ExitStack() as stack:
            for module, attr, replacement in patches:
                stack.enter_context(mock.patch.object(module, attr, replacement))
            yield self

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for one repetition (times in ms)."""

        def calls(name):
            return self.stat(name)[0]

        def total_ms(*names):
            return 1000.0 * sum(self.stat(n)[1] for n in names)

        def self_ms(*names):
            return 1000.0 * sum(self.stat(n)[2] for n in names)

        estimates = ("estimator.forward_estimate", "estimator.central_estimate")
        estimate_calls = sum(calls(n) for n in estimates)
        er_attempts = calls("graph.er_draw")
        return {
            "graph.erdos_renyi_ms": total_ms("graph.erdos_renyi"),
            "graph.er_attempts": er_attempts,
            "graph.er_connected_ratio": self.er_connected / er_attempts if er_attempts else 0.0,
            "graph.laplacian_spectrum_calls": calls("graph.laplacian_spectrum"),
            "graph.laplacian_spectrum_ms": total_ms("graph.laplacian_spectrum"),
            "problems.build_ms": total_ms("problems.build"),
            "problems.evaluate_calls": calls("problems.evaluate"),
            "problems.evaluate_ms": total_ms("problems.evaluate"),
            "problems.sample_calls": calls("problems.sample"),
            "problems.sample_ms": total_ms("problems.sample"),
            "problems.diagnostics_ms": total_ms(
                "problems.full_loss", "problems.true_global_gradient"
            ),
            "estimator.sample_coordinates_calls": calls("estimator.sample_coordinates"),
            "estimator.sample_coordinates_ms": total_ms("estimator.sample_coordinates"),
            "estimator.estimate_calls": estimate_calls,
            "estimator.estimate_self_ms": self_ms(*estimates),
            "estimator.probes_per_estimate": (
                calls("problems.evaluate") / estimate_calls if estimate_calls else 0.0
            ),
            "dynamics.run_calls": calls("dynamics.run"),
            "dynamics.run_ms": total_ms("dynamics.run"),
            "dynamics.self_ms": self_ms("dynamics.run"),
            "dynamics.powerball_calls": calls("dynamics.powerball"),
            "dynamics.powerball_ms": total_ms("dynamics.powerball"),
            "metrics.capture_record_calls": calls("metrics.capture_record"),
            "metrics.capture_record_ms": total_ms("metrics.capture_record"),
            "metrics.capture_record_self_ms": self_ms("metrics.capture_record"),
            "metrics.write_csv_ms": total_ms("metrics.write_csv"),
            "metrics.summarize_ms": total_ms("metrics.summarize"),
            "harness.load_config_ms": total_ms("harness.load_config"),
            "harness.run_battery_self_ms": self_ms("harness.run_battery"),
        }
