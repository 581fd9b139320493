"""Temporal affinity models (Section 2.1 of the paper).

Affinity describes the bonding between a pair of users and has two
components:

* **Static affinity** ``aff_S(u, u')`` — time-independent closeness.  In the
  paper's experiments it is the number of common Facebook friends, normalised
  by the maximum pairwise value within the considered user set.
* **Dynamic affinity** ``aff_V(u, u', p)`` — the aggregated *drift* that a
  pair's periodic affinity exhibits compared to the population average, over
  every period from the beginning of time to the end of ``p`` (Equation 1):

  ``aff_V(u, u', p) = sum_{p' <= p} (aff_P(u, u', p') - Avg_aff_P(p')) / Gamma``

  where ``aff_P`` is the periodic affinity (common page-category likes during
  ``p'``) and ``Gamma`` depends on the time model: the number of periods for
  the discrete model, the elapsed time ``f - s0`` for the continuous one.

Two dynamic models combine these components:

* **Discrete**:   ``aff_D(u, u', p) = aff_S(u, u') + aff_V(u, u', p)``
* **Continuous**: ``aff_C(u, u', p) = aff_S(u, u') * exp(lambda * (f - s0))``
  with ``lambda`` the per-second drift rate (i.e. ``aff_V`` with the
  continuous ``Gamma``), capturing exponential growth/decay of affinity.

Following Section 4.1.2, all affinity values handed to the recommendation
machinery are normalised to ``[0, 1]``; this also preserves the monotonicity
required by GRECA (Lemma 1).

The module also provides the ablation models used in the evaluation:
:class:`NoAffinityModel` (affinity-agnostic recommendations) and
:class:`TimeAgnosticAffinityModel` (affinity without the temporal dimension),
plus :class:`ExplicitAffinityModel` to plug in hand-specified values such as
the running example of Tables 2-4.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.timeline import Period, Timeline
from repro.data.social import SocialNetwork
from repro.exceptions import AffinityError


def pair_key(left: int, right: int) -> tuple[int, int]:
    """Canonical unordered key for a user pair (affinity is symmetric)."""
    if left == right:
        raise AffinityError(f"affinity of a user with themselves is undefined ({left})")
    return (left, right) if left < right else (right, left)


def clamp01(value: float) -> float:
    """Clamp a value into the normalised affinity range [0, 1]."""
    return min(1.0, max(0.0, value))


#: Clamp on the continuous-model exponent so exp() stays finite.
MAX_GROWTH_EXPONENT = 8.0


def combine_discrete(
    static: float,
    periodic: Sequence[float],
    averages: Sequence[float],
) -> float:
    """Discrete combination ``aff_D = clamp01(aff_S + aff_V)``.

    ``periodic`` holds the normalised periodic affinities ``aff_P`` of the
    pair for every period up to the query period, ``averages`` the matching
    population averages.  ``Gamma`` is the number of periods (Equation 1).
    The combination is monotone non-decreasing in ``static`` and in every
    ``periodic`` value, which is what GRECA's bound computations rely on.
    """
    if not periodic:
        return clamp01(static)
    drift = sum(value - average for value, average in zip(periodic, averages))
    return clamp01(static + drift / len(periodic))


def combine_continuous(
    static: float,
    periodic: Sequence[float],
    averages: Sequence[float],
) -> float:
    """Continuous combination ``aff_C = clamp01(aff_S * exp(lambda * (f - s0)))``.

    The exponent ``lambda * (f - s0)`` telescopes to the cumulative drift sum
    (the elapsed time cancels), clamped to avoid overflow.  Monotone
    non-decreasing in ``static`` and in every ``periodic`` value.
    """
    if not periodic:
        return clamp01(static)
    drift = sum(value - average for value, average in zip(periodic, averages))
    exponent = max(-MAX_GROWTH_EXPONENT, min(MAX_GROWTH_EXPONENT, drift))
    return clamp01(static * math.exp(exponent))


def _drift_sum(periodic: Sequence[np.ndarray], averages: Sequence[float]) -> np.ndarray:
    """Cumulative drift over many pairs at once, in scalar summation order.

    ``periodic`` holds one array per period (each covering the same pairs).
    The accumulation starts from zero and adds one period at a time — exactly
    the float operation order of ``sum(value - average for ...)`` in the
    scalar combiners — so batch and scalar paths agree bit-for-bit.
    """
    drift = np.zeros_like(periodic[0], dtype=float)
    for values, average in zip(periodic, averages):
        drift = drift + (np.asarray(values, dtype=float) - average)
    return drift


def combine_discrete_batch(
    static: np.ndarray,
    periodic: Sequence[np.ndarray],
    averages: Sequence[float],
) -> np.ndarray:
    """Vectorised :func:`combine_discrete` over arrays of pair components.

    ``static`` is an array of static components (one per pair); ``periodic``
    holds one same-shaped array per period.  Element ``i`` of the result
    equals ``combine_discrete(static[i], [p[i] for p in periodic], averages)``
    bit-for-bit.
    """
    static = np.asarray(static, dtype=float)
    if not len(periodic):
        return np.clip(static, 0.0, 1.0)
    drift = _drift_sum(periodic, averages)
    return np.clip(static + drift / len(periodic), 0.0, 1.0)


def combine_continuous_batch(
    static: np.ndarray,
    periodic: Sequence[np.ndarray],
    averages: Sequence[float],
) -> np.ndarray:
    """Vectorised :func:`combine_continuous` over arrays of pair components.

    The exponential goes through ``math.exp`` per element — ``np.exp``
    differs from libm in the last ulp on a few percent of inputs, which
    would break the bit-for-bit agreement with the scalar combiner that the
    golden grid relies on.  The arrays here hold at most ``n(n-1)/2`` dirty
    pairs, so the scalar loop is not a hot path.
    """
    static = np.asarray(static, dtype=float)
    if not len(periodic):
        return np.clip(static, 0.0, 1.0)
    drift = _drift_sum(periodic, averages)
    exponent = np.clip(drift, -MAX_GROWTH_EXPONENT, MAX_GROWTH_EXPONENT)
    growth = np.asarray([math.exp(value) for value in exponent.tolist()])
    return np.clip(static * growth, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class AffinityColumns:
    """Columnar form of one group's affinity components.

    The per-(group, period) affinity inputs of a GRECA index are three small
    dictionaries — ``{pair: aff_S}``, ``{period_index: {pair: aff_P}}`` and
    ``{period_index: Avg_aff_P}`` — which would otherwise pickle by value
    into every parallel task.  This class holds the same information
    densely: a ``(n_pairs,)`` static array, a ``(n_periods, n_pairs)``
    periodic matrix and a ``(n_periods,)`` averages vector, with ``pairs``
    mapping columns back to canonical user pairs.  The arrays can be placed
    in shared memory and shipped by descriptor
    (:class:`repro.parallel.shm.ShmAffinityHandle`).

    The dict API stays a façade: :meth:`to_components` reconstructs the
    dictionaries with the exact float values (no arithmetic is involved), so
    an index built from the reconstruction is bit-identical to one built
    from the original dicts.  ``pairs`` are canonicalised through
    :func:`pair_key` and every period covers every pair (missing entries
    materialise as the explicit ``0.0`` the index's own lookups would have
    defaulted to — the sorted affinity lists come out identical either way).

    ``periodic[i]`` covers period index ``i``; :meth:`prefix` slices the
    first ``n`` periods zero-copy, which is how one full-timeline column set
    per (group, affinity model) serves every query period of a sweep.
    """

    pairs: tuple[tuple[int, int], ...]
    static: np.ndarray
    periodic: np.ndarray
    averages: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "static", np.asarray(self.static, dtype=float))
        object.__setattr__(self, "periodic", np.asarray(self.periodic, dtype=float))
        object.__setattr__(self, "averages", np.asarray(self.averages, dtype=float))
        n_pairs = len(self.pairs)
        if self.static.shape != (n_pairs,):
            raise AffinityError(
                f"static column covers {self.static.shape} values for {n_pairs} pairs"
            )
        if self.periodic.shape != (len(self.averages), n_pairs):
            raise AffinityError(
                f"periodic matrix {self.periodic.shape} does not match "
                f"{len(self.averages)} averages x {n_pairs} pairs"
            )

    @property
    def n_pairs(self) -> int:
        """Number of user pairs covered (columns of the periodic matrix)."""
        return len(self.pairs)

    @property
    def n_periods(self) -> int:
        """Number of periods covered (rows of the periodic matrix)."""
        return len(self.averages)

    def pair_index(self) -> dict[tuple[int, int], int]:
        """The pair-index map: canonical pair -> column position."""
        return {pair: column for column, pair in enumerate(self.pairs)}

    def prefix(self, n_periods: int) -> "AffinityColumns":
        """The first ``n_periods`` periods of the same pairs (zero-copy slices).

        This is how a query at period index ``p`` derives its inputs from
        the full-timeline columns: periods ``0..p`` are exactly the first
        ``p + 1`` rows.
        """
        if n_periods < 0 or n_periods > self.n_periods:
            raise AffinityError(
                f"cannot take a {n_periods}-period prefix of {self.n_periods} periods"
            )
        if n_periods == self.n_periods:
            return self
        return AffinityColumns(
            pairs=self.pairs,
            static=self.static,
            periodic=self.periodic[:n_periods],
            averages=self.averages[:n_periods],
        )

    @classmethod
    def from_components(
        cls,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None = None,
        averages: Mapping[int, float] | None = None,
    ) -> "AffinityColumns":
        """Build columns from the dict components (the reverse of :meth:`to_components`).

        Period indices must be contiguous ``0..n-1`` (the shape produced by
        :meth:`repro.core.recommender.GroupRecommender.affinity_components`
        and the engine-test cases), and every ``averages`` key must have a
        matching periodic row — an orphan average cannot be represented and
        raises instead of being silently dropped.  A *missing* average
        materialises as the explicit ``0.0`` the index installs for it
        anyway.  Exotic sparse layouts should stay on the dict path.
        """
        period_indices = sorted(int(index) for index in (periodic or {}))
        if period_indices != list(range(len(period_indices))):
            raise AffinityError(
                "periodic affinities must cover contiguous period indices 0..n-1, "
                f"got {period_indices}"
            )
        orphans = sorted(int(index) for index in (averages or {}))
        orphans = [index for index in orphans if index not in set(period_indices)]
        if orphans:
            raise AffinityError(
                f"averages cover period indices {orphans} that have no periodic row"
            )
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        sources: list[Mapping[tuple[int, int], float]] = [static or {}]
        sources.extend((periodic or {})[index] for index in period_indices)
        for source in sources:
            for pair in source:
                key = pair_key(*pair)
                if key not in seen:
                    seen.add(key)
                    pairs.append(key)
        pair_col = {pair: column for column, pair in enumerate(pairs)}
        static_col = np.zeros(len(pairs))
        for pair, value in (static or {}).items():
            static_col[pair_col[pair_key(*pair)]] = float(value)
        periodic_mat = np.zeros((len(period_indices), len(pairs)))
        for row in period_indices:
            for pair, value in (periodic or {})[row].items():
                periodic_mat[row, pair_col[pair_key(*pair)]] = float(value)
        averages_col = np.asarray(
            [float((averages or {}).get(index, 0.0)) for index in period_indices]
        )
        return cls(
            pairs=tuple(pairs),
            static=static_col,
            periodic=periodic_mat,
            averages=averages_col,
        )

    def to_components(
        self,
    ) -> tuple[
        dict[tuple[int, int], float],
        dict[int, dict[tuple[int, int], float]],
        dict[int, float],
    ]:
        """The dict façade: ``(static, periodic, averages)`` with exact values.

        Reconstruction involves no arithmetic — every float comes back
        verbatim — so indexes built from the reconstruction are bit-identical
        to ones built from the original dictionaries.
        """
        static = dict(zip(self.pairs, self.static.tolist()))
        periodic = {
            index: dict(zip(self.pairs, row))
            for index, row in enumerate(self.periodic.tolist())
        }
        averages = dict(enumerate(self.averages.tolist()))
        return static, periodic, averages


class AffinityModel(abc.ABC):
    """Interface of every (temporal) affinity model.

    Implementations must be symmetric: ``affinity(u, v, p) == affinity(v, u, p)``.
    Returned values are normalised to ``[0, 1]``.
    """

    #: Human-readable name used by experiment drivers and reports.
    name: str = "affinity"

    @abc.abstractmethod
    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        """The affinity of the pair during ``period`` (or overall when ``None``)."""

    def pairwise(
        self, users: Sequence[int], period: Period | None = None
    ) -> dict[tuple[int, int], float]:
        """Affinity of every unordered pair within ``users``."""
        values: dict[tuple[int, int], float] = {}
        for index, left in enumerate(users):
            for right in users[index + 1 :]:
                values[pair_key(left, right)] = self.affinity(left, right, period)
        return values

    def mean_pairwise(self, users: Sequence[int], period: Period | None = None) -> float:
        """Average pairwise affinity within ``users`` (0 for singleton groups)."""
        values = self.pairwise(users, period)
        return sum(values.values()) / len(values) if values else 0.0


class NoAffinityModel(AffinityModel):
    """Affinity-agnostic model: every pair has affinity 0.

    With this model the relative preference vanishes and group
    recommendations reduce to aggregating individual ``apref`` values — the
    baseline the paper compares against in Figures 1B and 3A.
    """

    name = "affinity-agnostic"

    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        pair_key(left, right)  # validates the pair
        return 0.0


class ExplicitAffinityModel(AffinityModel):
    """Affinity values supplied explicitly, optionally per period.

    Parameters
    ----------
    static:
        Mapping of unordered pairs to static affinity values.
    periodic:
        Optional mapping ``period -> {pair: periodic value}`` used as the
        per-period drift contribution; when given, the discrete combination
        ``aff_S + mean of per-period values up to p`` is returned.
    timeline:
        Required when ``periodic`` is given, to know which periods precede
        the queried one.

    This model backs the paper's running example (Tables 2-4) and the unit
    tests for GRECA.
    """

    name = "explicit"

    def __init__(
        self,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[Period, Mapping[tuple[int, int], float]] | None = None,
        timeline: Timeline | None = None,
    ) -> None:
        self._static = {pair_key(*pair): float(value) for pair, value in static.items()}
        self._periodic: dict[Period, dict[tuple[int, int], float]] = {}
        if periodic:
            if timeline is None:
                raise AffinityError("a timeline is required when periodic values are given")
            for period, values in periodic.items():
                self._periodic[period] = {
                    pair_key(*pair): float(value) for pair, value in values.items()
                }
        self._timeline = timeline

    def static_affinity(self, left: int, right: int) -> float:
        """The supplied static affinity of the pair (0 when unknown)."""
        return self._static.get(pair_key(left, right), 0.0)

    def periodic_affinity(self, left: int, right: int, period: Period) -> float:
        """The supplied per-period value of the pair (0 when unknown)."""
        return self._periodic.get(period, {}).get(pair_key(left, right), 0.0)

    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        key = pair_key(left, right)
        value = self._static.get(key, 0.0)
        if period is not None and self._periodic and self._timeline is not None:
            preceding = self._timeline.periods_until(period)
            contributions = [
                self._periodic.get(past, {}).get(key, 0.0) for past in preceding
            ]
            if contributions:
                value += sum(contributions) / len(contributions)
        return clamp01(value)


class ComputedAffinities:
    """Pre-computed static and periodic affinities from a social network.

    This object performs the expensive population-level computations once —
    raw common-friend counts, per-period common-category-like counts and the
    population averages ``Avg_aff_P(p')`` of Equation 1 — and serves them to
    the concrete :class:`DiscreteAffinityModel` / :class:`ContinuousAffinityModel`
    and to GRECA's index builder.

    Parameters
    ----------
    network:
        The social network providing friendships and page likes.
    timeline:
        The period discretisation.
    users:
        The user universe over which population averages and normalisation
        constants are computed.  Defaults to every user of the network.
    """

    def __init__(
        self,
        network: SocialNetwork,
        timeline: Timeline,
        users: Iterable[int] | None = None,
    ) -> None:
        self.network = network
        self.timeline = timeline
        self.users: tuple[int, ...] = tuple(sorted(users if users is not None else network.users))
        if len(self.users) < 2:
            raise AffinityError("need at least two users to compute affinities")

        # Columnar storage: one column per unordered pair (enumerated in
        # sorted-user order), one periodic row per timeline period.  The dict
        # accessors below are a façade over these arrays.
        pairs: list[tuple[int, int]] = []
        for index, left in enumerate(self.users):
            for right in self.users[index + 1 :]:
                pairs.append(pair_key(left, right))
        periods = tuple(timeline)
        static = np.empty(len(pairs))
        periodic = np.empty((len(periods), len(pairs)))
        for column, (left, right) in enumerate(pairs):
            static[column] = float(network.common_friends(left, right))
            for row, period in enumerate(periods):
                periodic[row, column] = float(
                    network.common_category_likes(left, right, period)
                )
        self._install_columns(pairs, periods, static, periodic)

    def _install_columns(
        self,
        pairs: Sequence[tuple[int, int]],
        periods: Sequence[Period],
        static: np.ndarray,
        periodic: np.ndarray,
    ) -> None:
        """Install the raw columnar substrate and derive maxima and averages.

        The population averages are accumulated with the scalar ``sum`` over
        each periodic row in pair order — the exact float summation order of
        the historical dict implementation — so any construction path through
        here (the network scan or :meth:`from_columns`) yields bit-identical
        averages.
        """
        self.pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        self._pair_col: dict[tuple[int, int], int] = {
            pair: column for column, pair in enumerate(self.pairs)
        }
        self._periods: tuple[Period, ...] = tuple(periods)
        self._period_row: dict[Period, int] = {
            period: row for row, period in enumerate(self._periods)
        }
        self._static_col = np.asarray(static, dtype=float)
        self._periodic_mat = np.asarray(periodic, dtype=float)
        if self._static_col.shape != (len(self.pairs),):
            raise AffinityError(
                f"static column covers {self._static_col.shape} values for "
                f"{len(self.pairs)} pairs"
            )
        if self._periodic_mat.shape != (len(self._periods), len(self.pairs)):
            raise AffinityError(
                f"periodic matrix {self._periodic_mat.shape} does not match "
                f"{len(self._periods)} periods x {len(self.pairs)} pairs"
            )
        self._static_max = float(self._static_col.max()) if self._static_col.size else 0.0
        self._periodic_max = (
            float(self._periodic_mat.max()) if self._periodic_mat.size else 0.0
        )
        n_pairs = len(self.pairs)
        self._avg_col = np.asarray(
            [
                sum(self._periodic_mat[row].tolist()) / n_pairs if n_pairs else 0.0
                for row in range(len(self._periods))
            ]
        )
        self._population_average: dict[Period, float] = {
            period: float(self._avg_col[row]) for row, period in enumerate(self._periods)
        }

    @classmethod
    def from_columns(
        cls,
        timeline: Timeline,
        users: Sequence[int],
        static: np.ndarray,
        periodic: np.ndarray,
        network: SocialNetwork | None = None,
    ) -> "ComputedAffinities":
        """Reconstruct the object from raw columnar components.

        ``static`` holds the raw pairwise values in the canonical pair order
        (sorted users, lexicographic pairs — the order :attr:`pairs`
        reports), ``periodic`` one row per timeline period.  The maxima and
        population averages are recomputed from the arrays in the same float
        operation order as the network-scanning constructor, so the
        reconstruction is FP-identical to the original object.  ``network``
        is optional: it is only needed by consumers that go back to the raw
        like history (e.g. :class:`TimeAgnosticAffinityModel`).
        """
        instance = cls.__new__(cls)
        instance.network = network
        instance.timeline = timeline
        instance.users = tuple(sorted(users))
        if len(instance.users) < 2:
            raise AffinityError("need at least two users to compute affinities")
        pairs = [
            pair_key(left, right)
            for index, left in enumerate(instance.users)
            for right in instance.users[index + 1 :]
        ]
        instance._install_columns(pairs, tuple(timeline), static, periodic)
        return instance

    def extended(
        self,
        network: SocialNetwork,
        timeline: Timeline,
        touched_users: Iterable[int] = (),
    ) -> "ComputedAffinities":
        """A new instance reflecting appended like history and appended periods.

        ``network`` must cover the same users with the same friendships (the
        static column is carried over verbatim); ``timeline`` must extend
        ``self.timeline`` — existing periods unchanged, new ones appended;
        and only users in ``touched_users`` may have gained likes.  Periodic
        columns of pairs involving a touched user are recounted across the
        whole timeline (a new like can land in any period) and the rows of
        appended periods are counted for every pair; all other cells are
        copied.  Raw counts are integers-as-floats, so the copied cells are
        value-identical to a recount, and the maxima/averages derivation runs
        through the same ``_install_columns`` path as a fresh network scan —
        the result is bit-identical to ``ComputedAffinities(network,
        timeline, self.users)``.
        """
        periods = tuple(timeline)
        old_periods = self._periods
        if periods[: len(old_periods)] != old_periods:
            raise AffinityError(
                "an extended timeline must keep the existing periods unchanged"
            )
        touched = set(touched_users)
        unknown = touched - set(self.users)
        if unknown:
            raise AffinityError(
                f"touched users {sorted(unknown)} are outside the affinity universe"
            )
        periodic = np.zeros((len(periods), len(self.pairs)))
        periodic[: len(old_periods)] = self._periodic_mat
        for column, (left, right) in enumerate(self.pairs):
            if left in touched or right in touched:
                rows: range = range(len(periods))
            else:
                rows = range(len(old_periods), len(periods))
            for row in rows:
                periodic[row, column] = float(
                    network.common_category_likes(left, right, periods[row])
                )
        return ComputedAffinities.from_columns(
            timeline,
            self.users,
            self._static_col.copy(),
            periodic,
            network=network,
        )

    def raw_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(static, periodic)`` columnar substrate (shared, read-only use)."""
        return self._static_col, self._periodic_mat

    # -- raw and normalised components ---------------------------------------------

    def static_raw(self, left: int, right: int) -> float:
        """Raw static affinity (common friends count)."""
        column = self._pair_col.get(pair_key(left, right))
        return float(self._static_col[column]) if column is not None else 0.0

    def static_normalized(self, left: int, right: int) -> float:
        """Static affinity normalised by the maximum pairwise value (paper §4.1.2)."""
        if self._static_max == 0:
            return 0.0
        return clamp01(self.static_raw(left, right) / self._static_max)

    def periodic_raw(self, left: int, right: int, period: Period) -> float:
        """Raw periodic affinity ``aff_P`` (common category likes during ``period``)."""
        row = self._period_row.get(period)
        if row is None:
            raise AffinityError(f"period {period} is not part of the timeline")
        column = self._pair_col.get(pair_key(left, right))
        return float(self._periodic_mat[row, column]) if column is not None else 0.0

    def periodic_normalized(self, left: int, right: int, period: Period) -> float:
        """Periodic affinity normalised by the global per-period maximum."""
        if self._periodic_max == 0:
            return 0.0
        return clamp01(self.periodic_raw(left, right, period) / self._periodic_max)

    def population_average(self, period: Period) -> float:
        """``Avg_aff_P(p)``: mean raw periodic affinity over all user pairs."""
        if period not in self._population_average:
            raise AffinityError(f"period {period} is not part of the timeline")
        return self._population_average[period]

    def population_average_normalized(self, period: Period) -> float:
        """Population average on the same normalised scale as :meth:`periodic_normalized`."""
        if self._periodic_max == 0:
            return 0.0
        return self._population_average[period] / self._periodic_max

    def group_columns(self, pairs: Sequence[tuple[int, int]]) -> AffinityColumns:
        """Normalised full-timeline :class:`AffinityColumns` for selected pairs.

        Element ``i`` of the static column equals
        ``static_normalized(*pairs[i])`` and cell ``(p, i)`` of the periodic
        matrix equals ``periodic_normalized(*pairs[i], periods[p])``, bit for
        bit (one clamped IEEE division per element either way); the averages
        row matches :meth:`population_average_normalized` per period.  Pairs
        outside the universe contribute the same ``0.0`` the scalar
        accessors default to.  This is what the parallel layer ships instead
        of the per-task affinity dictionaries.
        """
        canonical = [pair_key(left, right) for left, right in pairs]
        columns = [self._pair_col.get(pair) for pair in canonical]
        known = [position for position, column in enumerate(columns) if column is not None]
        index = np.asarray([columns[position] for position in known], dtype=np.intp)
        n_periods = len(self._periods)
        static = np.zeros(len(canonical))
        periodic = np.zeros((n_periods, len(canonical)))
        if known and self._static_max:
            static[known] = np.clip(self._static_col[index] / self._static_max, 0.0, 1.0)
        if known and self._periodic_max:
            periodic[:, known] = np.clip(
                self._periodic_mat[:, index] / self._periodic_max, 0.0, 1.0
            )
        if self._periodic_max:
            averages = self._avg_col / self._periodic_max
        else:
            averages = np.zeros(n_periods)
        return AffinityColumns(
            pairs=tuple(canonical), static=static, periodic=periodic, averages=averages
        )

    # -- drift (Equation 1) ----------------------------------------------------------

    def drift_sum(self, left: int, right: int, period: Period) -> float:
        """Un-normalised numerator of Equation 1 on the normalised periodic scale.

        ``sum_{p' <= p} (aff_P(u, u', p') - Avg_aff_P(p'))`` computed on the
        [0, 1]-normalised periodic affinities so that drift magnitudes are
        comparable with the static component.
        """
        total = 0.0
        for past in self.timeline.periods_until(period):
            total += self.periodic_normalized(left, right, past) - self.population_average_normalized(past)
        return total

    def dynamic_discrete(self, left: int, right: int, period: Period) -> float:
        """``aff_V`` with the discrete ``Gamma`` = number of periods up to ``p``."""
        n_periods = len(self.timeline.periods_until(period))
        return self.drift_sum(left, right, period) / n_periods if n_periods else 0.0

    def dynamic_continuous_rate(self, left: int, right: int, period: Period) -> float:
        """``lambda``: the continuous-model drift rate (per second)."""
        elapsed = self.timeline.elapsed(period)
        return self.drift_sum(left, right, period) / elapsed if elapsed else 0.0


class DiscreteAffinityModel(AffinityModel):
    """The paper's discrete dynamic affinity model ``aff_D = aff_S + aff_V``."""

    name = "discrete"

    def __init__(self, computed: ComputedAffinities) -> None:
        self.computed = computed

    def static_affinity(self, left: int, right: int) -> float:
        """The normalised static component."""
        return self.computed.static_normalized(left, right)

    def dynamic_affinity(self, left: int, right: int, period: Period) -> float:
        """The (possibly negative) dynamic component ``aff_V``."""
        return self.computed.dynamic_discrete(left, right, period)

    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        static = self.computed.static_normalized(left, right)
        if period is None:
            return clamp01(static)
        preceding = self.computed.timeline.periods_until(period)
        periodic = [self.computed.periodic_normalized(left, right, past) for past in preceding]
        averages = [self.computed.population_average_normalized(past) for past in preceding]
        return combine_discrete(static, periodic, averages)


class ContinuousAffinityModel(AffinityModel):
    """The paper's continuous model ``aff_C = aff_S * exp(lambda * (f - s0))``.

    ``lambda * (f - s0)`` equals the cumulative drift sum, so increasing
    affinity pairs see exponential growth and decreasing ones exponential
    decay.  The exponent is clamped to avoid numerical overflow and the final
    value is normalised back into [0, 1].
    """

    name = "continuous"

    #: Clamp on the exponent so exp() stays finite even for extreme drifts.
    MAX_EXPONENT = 8.0

    def __init__(self, computed: ComputedAffinities) -> None:
        self.computed = computed

    def static_affinity(self, left: int, right: int) -> float:
        """The normalised static component."""
        return self.computed.static_normalized(left, right)

    def growth_exponent(self, left: int, right: int, period: Period) -> float:
        """``lambda * (f - s0)``: the cumulative (clamped) growth/decay exponent."""
        rate = self.computed.dynamic_continuous_rate(left, right, period)
        elapsed = self.computed.timeline.elapsed(period)
        exponent = rate * elapsed
        return max(-self.MAX_EXPONENT, min(self.MAX_EXPONENT, exponent))

    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        static = self.computed.static_normalized(left, right)
        if period is None:
            return clamp01(static)
        preceding = self.computed.timeline.periods_until(period)
        periodic = [self.computed.periodic_normalized(left, right, past) for past in preceding]
        averages = [self.computed.population_average_normalized(past) for past in preceding]
        return combine_continuous(static, periodic, averages)


class TimeAgnosticAffinityModel(AffinityModel):
    """Affinity-aware but time-agnostic model (the ablation of Figure 1C / 3B).

    The whole history is treated as a single period: affinity is the static
    component plus the overall (drift-free) normalised common-like affinity,
    with no notion of evolution over time.
    """

    name = "time-agnostic"

    def __init__(self, computed: ComputedAffinities) -> None:
        self.computed = computed
        whole = Period(computed.timeline.beginning, computed.timeline.end)
        self._whole_history = whole
        self._overall_raw: dict[tuple[int, int], float] = {}
        users = computed.users
        for index, left in enumerate(users):
            for right in users[index + 1 :]:
                self._overall_raw[pair_key(left, right)] = float(
                    computed.network.common_category_likes(left, right, whole)
                )
        self._overall_max = max(self._overall_raw.values(), default=0.0)

    def affinity(self, left: int, right: int, period: Period | None = None) -> float:
        static = self.computed.static_normalized(left, right)
        overall = 0.0
        if self._overall_max > 0:
            overall = self._overall_raw.get(pair_key(left, right), 0.0) / self._overall_max
        return clamp01(0.5 * (static + overall))


def build_affinity_model(
    model: str,
    network: SocialNetwork,
    timeline: Timeline,
    users: Iterable[int] | None = None,
) -> AffinityModel:
    """Factory building an affinity model by name.

    Parameters
    ----------
    model:
        ``"discrete"``, ``"continuous"``, ``"time-agnostic"`` or ``"none"``.
    network, timeline, users:
        Forwarded to :class:`ComputedAffinities` (ignored for ``"none"``).
    """
    if model == "none":
        return NoAffinityModel()
    computed = ComputedAffinities(network, timeline, users)
    if model == "discrete":
        return DiscreteAffinityModel(computed)
    if model == "continuous":
        return ContinuousAffinityModel(computed)
    if model == "time-agnostic":
        return TimeAgnosticAffinityModel(computed)
    raise AffinityError(
        f"unknown affinity model {model!r}; expected 'discrete', 'continuous', "
        f"'time-agnostic' or 'none'"
    )
