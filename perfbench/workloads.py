"""The three benchmark workloads: input shape and program settings.

Why each exists is written down in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    strategy: str
    cache: str  # "memory": empty per pass; "primed-file": filled by an untimed pass; "empty-file": new file per pass
    http: bool = False
    inverse_edges: bool = False
    concurrency: int = 1
    checkpoints: bool = False

    @property
    def probes_host(self) -> bool:
        """Whether question times are also taken at the host-speed probe's
        reference speed (probe.py). The probe runs in the question's thread,
        so with two workers it would also time the other one's hold on the GIL."""
        return self.concurrency == 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heuristic-cold",
            shape=Shape(entities=20_000, relations=400, max_out_degree=40, min_topic_degree=20, questions=48),
            strategy="heuristic",
            cache="memory",
        ),
        # Not listed in BENCHMARK.json: pure in-process CPU work with a small
        # working set, so its wall times follow the host's speed drift (quartile
        # spread 0.22-0.26 over ten seeds, above the 0.25 bound). Run by hand.
        Workload(
            name="beam-rerun",
            shape=Shape(entities=3_000, relations=400, max_out_degree=20, min_topic_degree=10, questions=240),
            strategy="beam",
            cache="primed-file",
        ),
        Workload(
            name="pathfind-http",
            shape=Shape(entities=2_000, relations=400, max_out_degree=19, min_topic_degree=10, questions=150,
                        two_topic_every=4),
            strategy="pathfind",
            cache="empty-file",
            http=True,
            inverse_edges=True,
            concurrency=2,
            checkpoints=True,
        ),
    )
}
