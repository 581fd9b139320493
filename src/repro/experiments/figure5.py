"""Figure 5 — GRECA's %SA when varying k, group size and number of items.

Three sweeps over random groups (the paper uses 20 groups of 6, AP consensus,
discrete time model):

* **A** — ``k`` from 5 to 30: %SA grows roughly linearly, savings stay >= 81%.
* **B** — group size from 3 to 12: savings stay >= 77%.
* **C** — number of candidate items from 900 to 3,900: %SA does not
  necessarily grow with the catalogue (it depends on the score
  distributions); savings stay >= 83%.

The reproduction sweeps the same knobs on the scaled-down substrate and
reports mean %SA with standard errors.
"""

from __future__ import annotations

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

#: Default sweeps (scaled versions of the paper's 5-30 / 3-12 / 900-3900 ranges).
DEFAULT_K_VALUES = (5, 10, 15, 20, 25, 30)
DEFAULT_GROUP_SIZES = (3, 6, 9, 12)
DEFAULT_ITEM_FRACTIONS = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)

#: The paper's qualitative claims for this figure.
PAPER_REFERENCE = {
    "k_saveup_at_least": 81.0,
    "group_size_saveup_at_least": 77.0,
    "items_saveup_at_least": 83.0,
}


@dataclass(frozen=True)
class Figure5Result:
    """%SA statistics for the three sweeps (charts A, B and C)."""

    varying_k: Mapping[int, AccessStats]
    varying_group_size: Mapping[int, AccessStats]
    varying_items: Mapping[int, AccessStats]

    def rows(self) -> list[dict[str, object]]:
        """Flat rows: chart, parameter value, mean %SA, std error, saveup."""
        rows: list[dict[str, object]] = []
        for chart, series in (
            ("A (varying k)", self.varying_k),
            ("B (varying group size)", self.varying_group_size),
            ("C (varying #items)", self.varying_items),
        ):
            for value, stats in series.items():
                rows.append(
                    {
                        "chart": chart,
                        "value": value,
                        "mean_percent_sa": round(stats.mean_percent_sa, 2),
                        "std_error": round(stats.std_error, 2),
                        "saveup": round(stats.mean_saveup, 2),
                    }
                )
        return rows

    def worst_saveup(self) -> float:
        """The smallest saveup observed across all sweeps."""
        all_stats = (
            list(self.varying_k.values())
            + list(self.varying_group_size.values())
            + list(self.varying_items.values())
        )
        return min(stats.mean_saveup for stats in all_stats)

    def format_table(self) -> str:
        """Human-readable rendering of the three charts."""
        lines = ["Figure 5 — average %SA varying k, group size and number of items"]
        lines.append(f"{'chart':<24} {'value':>7} {'%SA':>8} {'+/-':>6} {'saveup':>8}")
        for row in self.rows():
            lines.append(
                f"{row['chart']:<24} {row['value']:>7} {row['mean_percent_sa']:>8.2f} "
                f"{row['std_error']:>6.2f} {row['saveup']:>8.2f}"
            )
        return "\n".join(lines)


def run(
    environment: ScalabilityEnvironment | None = None,
    config: ScalabilityConfig | None = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    item_fractions: Sequence[float] = DEFAULT_ITEM_FRACTIONS,
    policy: ExecutionPolicy | None = None,
) -> Figure5Result:
    """Regenerate Figure 5 on the (possibly scaled-down) substrate.

    Index construction is shared through the environment's reuse layer: the
    ``k`` sweep reuses each group's index outright, and the item-count sweep
    column-slices the group's columnar substrate instead of rebuilding it.
    A parallel ``policy=`` (:class:`~repro.parallel.ExecutionPolicy`)
    batches all three charts' sweep points into one sharded dispatch
    (serial reference semantics by default); a driver-owned environment is
    closed on the way out, exception or not.
    """
    policy = as_policy(policy)
    with owned_environment(environment, config) as environment:
        base_groups = environment.random_groups()
        size_groups = {
            size: environment.random_groups(group_size=size) for size in group_sizes
        }
        n_catalogue = len(environment.ratings.items)
        item_counts = [
            max(environment.config.k + 1, int(round(fraction * n_catalogue)))
            for fraction in item_fractions
        ]

        points = [SweepPoint(groups=base_groups, k=k) for k in k_values]
        points += [SweepPoint(groups=size_groups[size]) for size in group_sizes]
        points += [SweepPoint(groups=base_groups, n_items=n) for n in item_counts]
        results = environment.run_sweep(points, policy=policy)
        stats = [
            summarize_percent_sa([record.percent_sa for record in records])
            for records in results
        ]

        varying_k = dict(zip(k_values, stats[: len(k_values)]))
        offset = len(k_values)
        varying_group_size = dict(zip(group_sizes, stats[offset : offset + len(group_sizes)]))
        offset += len(group_sizes)
        varying_items = dict(zip(item_counts, stats[offset:]))

        return Figure5Result(
            varying_k=varying_k,
            varying_group_size=varying_group_size,
            varying_items=varying_items,
        )
