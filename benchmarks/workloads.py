"""The benchmark's workloads and the config files generated for them.

Each workload is a zoswarm experiment config.  The benchmark writes it out
as a config file and the worker hands that file to ``harness.load_config``,
so the program receives only generated inputs.  The workload seed offsets
the dataset, topology and master seeds; seed 0 keeps the seeds of the
bundled config the workload derives from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# Keys whose integer value the workload seed is added to.
SEEDED_KEYS = ("problem.seed", "topology.seed")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``BENCHMARK.json`` says why each exists.

    ``base`` names the bundled config the workload starts from (or ``None``
    for a config written from ``settings`` alone); ``settings`` override or
    add config keys.  The loss target is either ``target_loss`` or, for
    problems with a known optimum ``f*``, the loss that leaves
    ``target_share`` of the initial excess over ``f*``.
    """

    name: str
    base: str | None
    settings: dict[str, str] = field(default_factory=dict)
    target_loss: float | None = None
    target_share: float | None = None
    # correctness gates: median held-out accuracy, and final loss within
    # optimum_share of the initial excess over f* plus optimum_slack
    min_accuracy: float | None = None
    optimum_share: float | None = None
    optimum_slack: float = 0.0

    def target(self, initial_loss: float, optimum: float | None) -> float:
        if self.target_share is None:
            return self.target_loss
        return optimum + self.target_share * (initial_loss - optimum)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iv_a_battery",
            base="paper_iv_a.cfg",
            settings={"run.T": "100"},
            target_loss=0.22,
            min_accuracy=0.6,
        ),
        Workload(
            name="iv_a_dense_record",
            base="paper_iv_a.cfg",
            settings={
                "algorithms": "zoom_pb_fd",
                "run.T": "1000",
                "run.record_every": "1",
                "run.seeds": "1",
            },
            target_loss=0.17,
            min_accuracy=0.75,
        ),
        Workload(
            name="toy_swarm_1k",
            base=None,
            settings={
                "problem.name": "quadratic_toy",
                "problem.n_agents": "1000",
                "problem.p": "10",
                "problem.seed": "11",
                "problem.zeta": "0.5",
                "topology.n": "1000",
                "topology.prob": "0.0207",
                "topology.seed": "2",
                "run.T": "40",
                "run.record_every": "1",
                "run.seeds": "1",
                "defaults.estimator": "central",
                "defaults.n_c": "1",
                # explicit step: the theorem step sqrt(n / (p T)) diverges at this n and T
                "defaults.eta": "0.02",
                "algorithms": "zoom,zoom_pb",
                "algorithm.zoom_pb.gamma": "0.7",
            },
            target_share=0.75,
            optimum_share=0.6,
            optimum_slack=1e-3,
        ),
    )
}


def _pairs(text: str) -> dict[str, str]:
    """Flat ``key = value`` pairs of a config text, later keys winning."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def config_text(workload: Workload, seed: int, configs_dir: Path) -> str:
    """The config file of ``workload`` under workload seed ``seed``."""
    pairs = _pairs((configs_dir / workload.base).read_text()) if workload.base else {}
    pairs.update(workload.settings)
    labels = {label.strip() for label in pairs["algorithms"].split(",")}
    pairs = {
        key: value
        for key, value in pairs.items()
        if not key.startswith("algorithm.") or key.split(".")[1] in labels
    }
    for key in SEEDED_KEYS:
        pairs[key] = str(int(pairs[key]) + seed)
    pairs["run.seeds"] = ",".join(str(int(s) + seed) for s in pairs["run.seeds"].split(","))
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def runs_per_repetition(config: str) -> int:
    """(algorithm, seed) runs one repetition of a config makes."""
    pairs = _pairs(config)
    return len(pairs["algorithms"].split(",")) * len(pairs["run.seeds"].split(","))
