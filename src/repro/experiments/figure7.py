"""Figure 7 — %SA for similar, dissimilar, high-affinity and low-affinity groups.

The paper compares GRECA's pruning ability across group classes and finds
that "the effectiveness is higher for similar groups in both cases (item
based similarity and high affinity)": cohesive groups have a clearly
separated top-k, so the buffer condition fires early.

The reproduction forms several groups of each class with the greedy group
former (over different random candidate subsets so the classes contain more
than one group) and reports mean %SA per class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.scalability import (
    AccessStats,
    ScalabilityConfig,
    ScalabilityEnvironment,
    SweepPoint,
    owned_environment,
    summarize_percent_sa,
)
from repro.parallel import ExecutionPolicy, as_policy
from repro.groups.formation import GroupFormer

#: Group classes on the x-axis of Figure 7.
GROUP_CLASSES = ("Sim", "Diss", "High Aff", "Low Aff")

#: The paper's qualitative claim.
PAPER_REFERENCE = {
    "behaviour": "similar and high-affinity groups need fewer accesses than "
    "dissimilar and low-affinity groups"
}


@dataclass(frozen=True)
class Figure7Result:
    """%SA statistics per group class."""

    percent_sa: Mapping[str, AccessStats]

    def rows(self) -> list[dict[str, object]]:
        """One row per group class."""
        return [
            {
                "group_class": group_class,
                "mean_percent_sa": round(self.percent_sa[group_class].mean_percent_sa, 2),
                "std_error": round(self.percent_sa[group_class].std_error, 2),
                "saveup": round(self.percent_sa[group_class].mean_saveup, 2),
            }
            for group_class in GROUP_CLASSES
        ]

    def format_table(self) -> str:
        """Human-readable rendering."""
        lines = ["Figure 7 — average %SA per group class"]
        lines.append(f"{'class':<10} {'%SA':>8} {'+/-':>6} {'saveup':>8}")
        for row in self.rows():
            lines.append(
                f"{row['group_class']:<10} {row['mean_percent_sa']:>8.2f} "
                f"{row['std_error']:>6.2f} {row['saveup']:>8.2f}"
            )
        return "\n".join(lines)


def _class_groups(
    environment: ScalabilityEnvironment, n_groups: int, group_size: int, seed: int
) -> dict[str, list[list[int]]]:
    """Form ``n_groups`` groups of each class from varying candidate subsets."""
    rng = random.Random(seed)
    participants = list(environment.participants)
    affinity = environment.recommender.affinity_model("discrete")
    period = environment.timeline.current
    groups: dict[str, list[list[int]]] = {label: [] for label in GROUP_CLASSES}
    subset_size = max(group_size * 3, min(len(participants), 18))
    for _ in range(n_groups):
        subset = rng.sample(participants, min(subset_size, len(participants)))
        former = GroupFormer(environment.ratings, candidates=subset, seed=rng.randint(0, 10_000))
        groups["Sim"].append(former.similar_group(group_size))
        groups["Diss"].append(former.dissimilar_group(group_size))
        groups["High Aff"].append(former.high_affinity_group(group_size, affinity, period))
        groups["Low Aff"].append(former.low_affinity_group(group_size, affinity, period))
    return groups


def run(
    environment: ScalabilityEnvironment | None = None,
    config: ScalabilityConfig | None = None,
    n_groups_per_class: int = 4,
    group_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> Figure7Result:
    """Regenerate Figure 7 (a parallel ``policy=`` batches all classes into one dispatch).

    A driver-owned environment is closed on the way out, exception or not.
    """
    policy = as_policy(policy)
    with owned_environment(environment, config) as environment:
        group_size = group_size or environment.config.group_size
        per_class = _class_groups(
            environment, n_groups_per_class, group_size, seed=environment.config.seed
        )

        class_names = list(per_class)
        points = [SweepPoint(groups=per_class[name]) for name in class_names]
        results = environment.run_sweep(points, policy=policy)
        percent_sa = {
            name: summarize_percent_sa([record.percent_sa for record in records])
            for name, records in zip(class_names, results)
        }
        return Figure7Result(percent_sa=percent_sa)
