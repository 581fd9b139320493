"""Figure 4 — choosing the time-period granularity.

The paper discretises one year of page-like history at five granularities and
reports, for each, the number of periods and the percentage of non-empty
periods (periods in which a user actually liked something).  Finer
granularities give more periods but leave many of them empty; the paper picks
two-month periods as the balance point (6 periods, ~67% non-empty).

The reproduction measures the same two quantities on the synthetic social
network's like history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.timeline import GRANULARITIES, discretize
from repro.data.social import SocialConfig, SocialNetwork, SocialNetworkGenerator
from repro.data.study_cohort import StudyConfig, build_study_cohort
from repro.data.movielens import MovieLensConfig, generate_movielens_like
from repro.parallel import ExecutionPolicy, as_policy

#: The paper's reported values (percentage of non-empty periods, number of periods).
PAPER_REFERENCE = {
    "week": {"non_empty_percent": 26.01, "n_periods": 53},
    "month": {"non_empty_percent": 54.35, "n_periods": 12},
    "two-month": {"non_empty_percent": 67.4, "n_periods": 6},
    "season": {"non_empty_percent": 77.18, "n_periods": 4},
    "half-year": {"non_empty_percent": 97.83, "n_periods": 2},
}


@dataclass(frozen=True)
class Figure4Result:
    """Measured period statistics per granularity."""

    measured: Mapping[str, Mapping[str, float]]
    reference: Mapping[str, Mapping[str, float]]

    def rows(self) -> list[dict[str, object]]:
        """One row per granularity with paper and measured values."""
        rows = []
        for granularity in GRANULARITIES:
            measured = self.measured[granularity]
            reference = self.reference.get(granularity, {})
            rows.append(
                {
                    "granularity": granularity,
                    "n_periods": int(measured["n_periods"]),
                    "non_empty_percent": round(measured["non_empty_percent"], 2),
                    "paper_n_periods": reference.get("n_periods"),
                    "paper_non_empty_percent": reference.get("non_empty_percent"),
                }
            )
        return rows

    def chosen_granularity(self) -> str:
        """The granularity the paper selects (two-month) for the rest of the study."""
        return "two-month"

    def format_table(self) -> str:
        """Human-readable rendering of the figure's data."""
        lines = ["Figure 4 — time-period granularities"]
        lines.append(
            f"{'granularity':<12} {'#periods':>9} {'non-empty %':>12} "
            f"{'paper #':>8} {'paper %':>8}"
        )
        for row in self.rows():
            lines.append(
                f"{row['granularity']:<12} {row['n_periods']:>9} "
                f"{row['non_empty_percent']:>12.2f} {row['paper_n_periods']:>8} "
                f"{row['paper_non_empty_percent']:>8.2f}"
            )
        return "\n".join(lines)


def run(
    social: SocialNetwork | None = None,
    start: int = 0,
    span_days: int = 365,
    seed: int = 29,
    policy: ExecutionPolicy | None = None,
) -> Figure4Result:
    """Regenerate Figure 4.

    Parameters
    ----------
    social:
        Social network whose like history is analysed; when omitted, the
        study cohort's network is generated (mirroring the paper, which uses
        the study participants' page likes).
    start / span_days:
        The observation window.
    seed:
        Seed for the generated cohort when ``social`` is omitted.
    policy:
        Accepted so the runner can pass the same
        :class:`~repro.parallel.ExecutionPolicy` to every figure 4-8 driver;
        this figure measures per-granularity period statistics (no group
        evaluation), so the policy has nothing to shard and the driver
        always runs serially.
    """
    as_policy(policy)
    end = start + span_days * 86_400 - 1
    if social is None:
        base = generate_movielens_like(
            MovieLensConfig(n_users=150, n_items=120, n_ratings=5000, seed=seed)
        )
        timeline = discretize(start, end, "two-month")
        cohort = build_study_cohort(
            base,
            timeline,
            StudyConfig(seed=seed, social=SocialConfig(likes_per_period=3.0, like_activity_drop=0.35)),
        )
        social = cohort.social

    measured: dict[str, dict[str, float]] = {}
    for granularity in GRANULARITIES:
        timeline = discretize(start, end, granularity)
        measured[granularity] = {
            "n_periods": float(len(timeline)),
            "non_empty_percent": 100.0 * social.non_empty_period_fraction(timeline),
        }
    return Figure4Result(measured=measured, reference=PAPER_REFERENCE)
