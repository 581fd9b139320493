"""GRECA — Group Recommendation with Temporal Affinities (Section 3 of the paper).

GRECA adapts the NRA flavour of Fagin-style threshold algorithms to compute
the top-k itemset for an ad-hoc group under a temporal-affinity-aware
consensus function, using *sequential accesses only* over:

* one preference list ``PL_u`` per group member (items sorted by ``apref``),
* ``n - 1`` static affinity lists (pairs sorted by ``aff_S``), and
* ``n - 1`` periodic affinity lists per time period (pairs sorted by
  ``aff_P``).

It maintains, for every encountered item, lower and upper bounds on its
consensus score and stops as soon as either

* the **threshold condition** holds — the best possible score of any unseen
  item (the global threshold) cannot beat the ``k``-th best lower bound and
  exactly ``k`` items are buffered — or
* the **buffer condition** holds — the ``k``-th best lower bound is no
  smaller than the upper bound of every other buffered item (Theorem 1 shows
  this implies the threshold condition).

Batched columnar engine
-----------------------

The implementation executes the paper's round-robin with *exactly* the
paper's access accounting, but runs it as a batched columnar engine rather
than a per-entry interpreter loop:

* Every sorted list is columnar (contiguous score array + integer key-index
  array, see :mod:`repro.core.lists`); the engine advances all lists by
  ``check_interval`` rounds per iteration through
  :meth:`SortedAccessList.sequential_block`, recording the sequential
  accesses in bulk.  Because the stopping conditions are only evaluated every
  ``check_interval`` rounds anyway (and at exhaustion), the batched cursor
  trajectory, access counts and check schedule are identical to the
  entry-at-a-time loop.
* Partial preference knowledge lives in two ``(members × items)`` arrays
  (``apref_low`` / ``apref_high``) updated *in place*: block reads scatter
  their scores with fancy indexing, and the not-yet-seen tail of each member
  row — which is exactly the suffix of that list's sort permutation — is
  refreshed to the list's cursor score at check time.
* Pairwise affinity bounds are maintained incrementally by
  :class:`repro.core.bounds.PairwiseAffinityBounds`, which recombines only
  the pairs whose lists moved since the previous check.
* The candidate buffer is the numpy-backed
  :class:`repro.core.buffer.ColumnarCandidateBuffer`; the stopping decision
  itself works directly on the bound arrays, and the final ranking uses the
  buffer's vectorised top-k with the deterministic ``repr`` tie-break.
* The terminal exact rescore touches only the returned top-k items
  (:meth:`GrecaIndex.exact_scores_for`) instead of re-scoring the full
  catalogue, which would otherwise cost the O(n·m) work GRECA just avoided.

The main entry points are :class:`GrecaIndex` (the pre-computed lists for a
group and a query period) and :class:`Greca` (the algorithm itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.affinity import (
    AffinityColumns,
    ComputedAffinities,
    combine_continuous,
    combine_continuous_batch,
    combine_discrete,
    combine_discrete_batch,
)
from repro.core.bounds import PairwiseAffinityBounds
from repro.core.buffer import ColumnarCandidateBuffer
from repro.core.consensus import ConsensusFunction
from repro.core.kernels import make_round_state, resolve_kernel
from repro.core.lists import (
    KIND_PERIODIC_AFFINITY,
    KIND_PREFERENCE,
    KIND_STATIC_AFFINITY,
    AccessCounter,
    SortedAccessList,
    build_affinity_lists,
    repr_tie_break_ranks,
    total_entries,
)
from repro.core.scoring import consensus_bounds, consensus_scores, default_scale, preference_matrix
from repro.core.timeline import Period
from repro.exceptions import AlgorithmError, GroupError

#: Time-model names accepted by :class:`GrecaIndex`.
TIME_MODEL_DISCRETE = "discrete"
TIME_MODEL_CONTINUOUS = "continuous"

#: Stopping reasons reported in :class:`GrecaResult`.
STOP_THRESHOLD = "threshold"
STOP_BUFFER = "buffer"
STOP_EXHAUSTED = "exhausted"


class GrecaIndex:
    """Pre-computed preference and affinity lists for one group and period.

    The index is the data structure described in Section 3.1: absolute
    preference lists for every member, static affinity values for every pair
    and periodic affinity values for every pair and period up to the query
    period, together with the per-period population averages needed by the
    drift computation (Equation 1).

    Absolute preferences are held columnar — one ``(members × items)``
    float64 matrix — which is what both the exact scorers and the batched
    engine consume; the sorted lists are materialised from matrix rows via a
    single vectorised argsort per member (sharing one ``repr`` tie-break
    ranking across members).

    Parameters
    ----------
    members:
        Group members, in a fixed order.
    aprefs:
        ``{user: {item: apref}}`` absolute preferences.  Every member must
        cover the same item universe (missing entries default to 0).
    static:
        ``{(u, v): aff_S}`` normalised static affinities.
    periodic:
        ``{period_index: {(u, v): aff_P}}`` normalised periodic affinities
        for each period up to (and including) the query period, indexed by
        their chronological position (0 = oldest).
    averages:
        ``{period_index: Avg_aff_P}`` population averages on the same
        normalised scale.
    time_model:
        ``"discrete"`` or ``"continuous"`` — selects how the components are
        combined into the pairwise affinity.
    max_apref:
        Upper bound on absolute preference values (used for the score
        normalisation constant); defaults to the observed maximum.
    """

    def __init__(
        self,
        members: Sequence[int],
        aprefs: Mapping[int, Mapping[int, float]],
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None = None,
        averages: Mapping[int, float] | None = None,
        time_model: str = TIME_MODEL_DISCRETE,
        max_apref: float | None = None,
    ) -> None:
        members = list(members)
        if len(members) < 2:
            raise GroupError("GRECA requires a group of at least two members")
        if len(set(members)) != len(members):
            raise GroupError("the group contains duplicate members")
        for member in members:
            if member not in aprefs:
                raise GroupError(f"no absolute preferences supplied for member {member}")
        if time_model not in (TIME_MODEL_DISCRETE, TIME_MODEL_CONTINUOUS):
            raise AlgorithmError(f"unknown time model {time_model!r}")

        self.members: tuple[int, ...] = tuple(members)
        self.time_model = time_model

        item_universe: set[int] = set()
        for member in members:
            item_universe.update(aprefs[member])
        self.items: tuple[int, ...] = tuple(sorted(item_universe))
        if not self.items:
            raise AlgorithmError("the preference lists contain no items")

        matrix = np.empty((len(members), len(self.items)))
        for row, member in enumerate(members):
            prefs = aprefs[member]
            matrix[row] = [float(prefs.get(item, 0.0)) for item in self.items]
            if matrix[row].min() < 0:
                col = int(matrix[row].argmin())
                raise AlgorithmError(
                    f"negative absolute preference for user {member}, item {self.items[col]}"
                )
        self._install_columns(self.members, self.items, matrix, time_model, max_apref)
        self._install_affinities(static, periodic, averages)

    def _install_columns(
        self,
        members: tuple[int, ...],
        items: tuple[int, ...],
        matrix: np.ndarray,
        time_model: str,
        max_apref: float | None,
        item_col: dict[int, int] | None = None,
        repr_rank: np.ndarray | None = None,
        item_objects: np.ndarray | None = None,
        buffer_pool: list[ColumnarCandidateBuffer] | None = None,
    ) -> None:
        """Install the columnar substrate (optionally shared with a sibling index)."""
        self.members = members
        self.items = items
        self.time_model = time_model
        self._apref_matrix = matrix
        self._item_col: dict[int, int] = (
            item_col if item_col is not None else {item: col for col, item in enumerate(items)}
        )
        self._repr_rank = repr_rank
        self._item_objects = item_objects
        # Candidate buffers are item-universe-scoped and fully overwritten by
        # replace_bounds, so siblings over the same substrate share one pool
        # instead of paying the O(items) slot registration per Greca.run.
        self._buffer_pool: list[ColumnarCandidateBuffer] = (
            buffer_pool if buffer_pool is not None else []
        )
        if max_apref is not None:
            self.max_apref = float(max_apref)
        else:
            self.max_apref = max(float(matrix.max()), 1e-9)
        self.scale = default_scale(self.max_apref, len(members))

    def _install_affinities(
        self,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None,
        averages: Mapping[int, float] | None,
    ) -> None:
        """Install (canonicalised) static/periodic affinity values and averages."""
        self._static = {self._pair(*pair): float(value) for pair, value in static.items()}
        self._periodic: dict[int, dict[tuple[int, int], float]] = {}
        for period_index, values in (periodic or {}).items():
            self._periodic[int(period_index)] = {
                self._pair(*pair): float(value) for pair, value in values.items()
            }
        self.period_indices: tuple[int, ...] = tuple(sorted(self._periodic))
        self._averages = {int(index): float(value) for index, value in (averages or {}).items()}
        for period_index in self.period_indices:
            self._averages.setdefault(period_index, 0.0)

    # -- constructors --------------------------------------------------------------------

    @classmethod
    def _from_columns(
        cls,
        members: tuple[int, ...],
        items: tuple[int, ...],
        matrix: np.ndarray,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None,
        averages: Mapping[int, float] | None,
        time_model: str,
        max_apref: float | None,
        item_col: dict[int, int] | None = None,
        repr_rank: np.ndarray | None = None,
        item_objects: np.ndarray | None = None,
        buffer_pool: list[ColumnarCandidateBuffer] | None = None,
    ) -> "GrecaIndex":
        """Build an index directly from an existing columnar substrate.

        The matrix (and the optional tie-break ranking / item-object /
        candidate-buffer caches) are *shared*, not copied: the index never
        mutates the read-only ones, and pooled buffers are wholesale
        overwritten before every use.
        """
        if time_model not in (TIME_MODEL_DISCRETE, TIME_MODEL_CONTINUOUS):
            raise AlgorithmError(f"unknown time model {time_model!r}")
        instance = cls.__new__(cls)
        instance._install_columns(
            members,
            items,
            matrix,
            time_model,
            max_apref,
            item_col,
            repr_rank,
            item_objects,
            buffer_pool,
        )
        instance._install_affinities(static, periodic, averages)
        return instance

    def with_affinities(
        self,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None = None,
        averages: Mapping[int, float] | None = None,
        time_model: str | None = None,
    ) -> "GrecaIndex":
        """A sibling index with different affinity data over the same preferences.

        The columnar substrate (preference matrix, item universe, tie-break
        ranking) is shared, so deriving a per-period index costs only the
        affinity dictionaries — this is what lets figure drivers sweep the
        query period without paying per-point index construction.
        """
        return GrecaIndex._from_columns(
            self.members,
            self.items,
            self._apref_matrix,
            static,
            periodic,
            averages,
            self.time_model if time_model is None else time_model,
            self.max_apref,
            item_col=self._item_col,
            repr_rank=self._tie_break_ranking(),
            item_objects=self._item_object_array(),
            buffer_pool=self._buffer_pool,
        )

    def restrict_items(self, items: Sequence[int]) -> "GrecaIndex":
        """A sibling index over a subset of the candidate items.

        The preference matrix is column-sliced and the global ``repr``
        tie-break ranking is sliced alongside it (a restriction of a ranking
        induces the same relative order, so list construction and the
        candidate buffer behave exactly as if the ranking had been recomputed
        for the subset).  The parent's ``max_apref``/``scale`` are kept:
        construct the parent with an explicit ``max_apref`` (as the
        recommender does) when bit-identical equivalence with fresh
        per-subset construction is required.
        """
        requested = sorted(set(items))
        if not requested:
            raise AlgorithmError("the restricted item universe is empty")
        try:
            cols = np.asarray([self._item_col[item] for item in requested], dtype=np.intp)
        except KeyError as error:
            raise AlgorithmError(f"unknown item in restriction: {error.args[0]!r}") from None
        return GrecaIndex._from_columns(
            self.members,
            tuple(requested),
            self._apref_matrix[:, cols],
            self._static,
            self._periodic,
            self._averages,
            self.time_model,
            self.max_apref,
            repr_rank=self._tie_break_ranking()[cols],
            item_objects=self._item_object_array()[cols],
        )

    @classmethod
    def from_computed(
        cls,
        members: Sequence[int],
        aprefs: Mapping[int, Mapping[int, float]],
        computed: ComputedAffinities,
        period: Period,
        time_model: str = TIME_MODEL_DISCRETE,
        max_apref: float | None = None,
    ) -> "GrecaIndex":
        """Build the index from pre-computed social-network affinities.

        The static component is normalised per Section 4.1.2 and the periodic
        components (and their population averages) cover every period of the
        timeline up to ``period``.
        """
        members = list(members)
        static = {}
        for index, left in enumerate(members):
            for right in members[index + 1 :]:
                static[(left, right)] = computed.static_normalized(left, right)
        periodic: dict[int, dict[tuple[int, int], float]] = {}
        averages: dict[int, float] = {}
        for period_index, past in enumerate(computed.timeline.periods_until(period)):
            values = {}
            for index, left in enumerate(members):
                for right in members[index + 1 :]:
                    values[(left, right)] = computed.periodic_normalized(left, right, past)
            periodic[period_index] = values
            averages[period_index] = computed.population_average_normalized(past)
        return cls(
            members=members,
            aprefs=aprefs,
            static=static,
            periodic=periodic,
            averages=averages,
            time_model=time_model,
            max_apref=max_apref,
        )

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _pair(left: int, right: int) -> tuple[int, int]:
        if left == right:
            raise AlgorithmError("affinity pairs must involve two distinct users")
        return (left, right) if left < right else (right, left)

    def pairs(self) -> list[tuple[int, int]]:
        """Every unordered member pair, in member order."""
        result = []
        for index, left in enumerate(self.members):
            for right in self.members[index + 1 :]:
                result.append(self._pair(left, right))
        return result

    def static_value(self, left: int, right: int) -> float:
        """Normalised static affinity of a pair (0 when absent)."""
        return self._static.get(self._pair(left, right), 0.0)

    def periodic_value(self, left: int, right: int, period_index: int) -> float:
        """Normalised periodic affinity of a pair during one period."""
        return self._periodic.get(period_index, {}).get(self._pair(left, right), 0.0)

    def average_value(self, period_index: int) -> float:
        """Population average for one period."""
        return self._averages.get(period_index, 0.0)

    def combine(self, static: float, periodic: Sequence[float]) -> float:
        """Combine component values into a pairwise affinity (model-dependent)."""
        averages = [self._averages.get(index, 0.0) for index in self.period_indices]
        if self.time_model == TIME_MODEL_DISCRETE:
            return combine_discrete(static, list(periodic), averages)
        return combine_continuous(static, list(periodic), averages)

    def combine_batch(
        self, static: np.ndarray, periodic: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Vectorised :meth:`combine` over arrays of pair components.

        ``static`` holds one static component per pair; ``periodic`` holds
        one same-shaped array per period (ordered like ``period_indices``).
        Elementwise bit-identical to calling :meth:`combine` per pair.
        """
        averages = [self._averages.get(index, 0.0) for index in self.period_indices]
        if self.time_model == TIME_MODEL_DISCRETE:
            return combine_discrete_batch(static, periodic, averages)
        return combine_continuous_batch(static, periodic, averages)

    def affinity(self, left: int, right: int) -> float:
        """The exact combined affinity of a pair at the query period."""
        periodic = [self.periodic_value(left, right, index) for index in self.period_indices]
        return self.combine(self.static_value(left, right), periodic)

    # -- dense views (used by the exact scorers and by GRECA's bound maintenance) ---------

    def apref_matrix(self) -> np.ndarray:
        """``(n_members, n_items)`` matrix of absolute preferences."""
        return self._apref_matrix.copy()

    def affinity_matrix(self) -> np.ndarray:
        """``(n_members, n_members)`` exact combined affinity matrix (zero diagonal)."""
        n = len(self.members)
        matrix = np.zeros((n, n))
        for row in range(n):
            for col in range(row + 1, n):
                value = self.affinity(self.members[row], self.members[col])
                matrix[row, col] = value
                matrix[col, row] = value
        return matrix

    def exact_scores(self, consensus: ConsensusFunction) -> dict[int, float]:
        """Exact consensus scores of every item (no access accounting)."""
        prefs = preference_matrix(self._apref_matrix, self.affinity_matrix())
        scores = consensus_scores(consensus, prefs, self.scale)
        return {item: float(scores[col]) for col, item in enumerate(self.items)}

    def exact_scores_for(
        self, items: Sequence[int], consensus: ConsensusFunction
    ) -> dict[int, float]:
        """Exact consensus scores of selected items only (no access accounting).

        All supported consensus functions score items independently, so
        restricting the matrices to the requested columns computes the same
        values as :meth:`exact_scores` at O(members × |items|) instead of a
        full-catalogue rescore.
        """
        if not items:
            return {}
        cols = np.asarray([self._item_col[item] for item in items], dtype=np.intp)
        prefs = preference_matrix(self._apref_matrix[:, cols], self.affinity_matrix())
        scores = consensus_scores(consensus, prefs, self.scale)
        return {item: float(scores[position]) for position, item in enumerate(items)}

    # -- list construction ------------------------------------------------------------------

    def _tie_break_ranking(self) -> np.ndarray:
        """Rank of every item column under the ``repr`` ordering (cached)."""
        if self._repr_rank is None:
            self._repr_rank = repr_tie_break_ranks(self.items)
        return self._repr_rank

    def _item_object_array(self) -> np.ndarray:
        if self._item_objects is None:
            objects = np.empty(len(self.items), dtype=object)
            objects[:] = self.items
            self._item_objects = objects
        return self._item_objects

    def _acquire_buffer(self) -> ColumnarCandidateBuffer:
        """A candidate buffer over this item universe, pooled across runs.

        ``list.pop``/``append`` are atomic under the GIL, so concurrent
        callers either share pooled buffers safely or fall back to a fresh
        allocation — never to a buffer another run is still ranking.
        """
        try:
            return self._buffer_pool.pop()
        except IndexError:
            return ColumnarCandidateBuffer(self.items, repr_rank=self._tie_break_ranking())

    def _release_buffer(self, buffer: ColumnarCandidateBuffer) -> None:
        """Return a buffer to the pool once its top-k has been materialised."""
        self._buffer_pool.append(buffer)

    def build_lists(
        self, counter: AccessCounter
    ) -> tuple[
        list[SortedAccessList[int]],
        list[SortedAccessList[tuple[int, int]]],
        dict[int, list[SortedAccessList[tuple[int, int]]]],
    ]:
        """Materialise the sorted lists GRECA scans (preference, static, periodic).

        Preference lists are built columnar: one ``np.lexsort`` per member
        over the shared preference matrix row (score-descending, ``repr``
        tie-break), with the sort permutation doubling as the list's
        ``key_index`` so block reads can be scattered straight into item
        columns.
        """
        repr_rank = self._tie_break_ranking()
        item_objects = self._item_object_array()
        preference_lists = []
        for row, member in enumerate(self.members):
            scores = self._apref_matrix[row]
            order = np.lexsort((repr_rank, -scores))
            preference_lists.append(
                SortedAccessList.from_columns(
                    name=f"PL(u{member})",
                    kind=KIND_PREFERENCE,
                    keys=item_objects[order].tolist(),
                    scores=scores[order],
                    counter=counter,
                    key_index=order,
                )
            )
        static_lists = build_affinity_lists(
            self.members, self._static, KIND_STATIC_AFFINITY, "affS", counter
        )
        periodic_lists = {
            period_index: build_affinity_lists(
                self.members,
                self._periodic.get(period_index, {}),
                KIND_PERIODIC_AFFINITY,
                f"affV[p{period_index}]",
                counter,
            )
            for period_index in self.period_indices
        }
        return preference_lists, static_lists, periodic_lists

    def total_index_entries(self) -> int:
        """Total number of entries across every list (the naive scan cost)."""
        n = len(self.members)
        n_pairs = n * (n - 1) // 2
        return n * len(self.items) + n_pairs * (1 + len(self.period_indices))


class GrecaIndexFactory:
    """Derives :class:`GrecaIndex` instances for one group from a shared substrate.

    Figure drivers sweep one knob — query period, item count, ``k``,
    consensus — over a fixed set of groups, and after the batched engine
    refactor the per-point ``{user: {item: apref}}``-to-matrix conversion
    rivals the engine runtime itself.  The factory pays that conversion once
    per group; :meth:`build` then derives each sweep point's index by sharing
    the columnar substrate (and memoising column-sliced substrates per item
    subset), so only the small per-period affinity dictionaries are rebuilt.

    Indexes derived this way are bit-identical — results *and* access
    accounting — to fresh ``GrecaIndex(members, aprefs, ...)`` construction
    at every point, provided ``max_apref`` is pinned (the recommender pins it
    to the rating-scale maximum).  ``tests/test_engine_properties.py`` and
    the golden-grid reuse test enforce this.

    Parameters
    ----------
    members / aprefs / max_apref:
        As for :class:`GrecaIndex`.  Supply ``max_apref`` explicitly so that
        restricted indexes keep the same normalisation constant as fresh
        per-subset construction (otherwise the observed maximum may differ
        between the full universe and a subset).
    """

    def __init__(
        self,
        members: Sequence[int],
        aprefs: Mapping[int, Mapping[int, float]],
        max_apref: float | None = None,
    ) -> None:
        self._base = GrecaIndex(
            members=members, aprefs=aprefs, static={}, max_apref=max_apref
        )
        # Materialise the shared caches once so every derived index reuses them.
        self._base._tie_break_ranking()
        self._base._item_object_array()
        self._restricted: dict[tuple[int, ...], GrecaIndex] = {}

    @classmethod
    def from_columns(
        cls,
        members: Sequence[int],
        items: Sequence[int],
        matrix: np.ndarray,
        max_apref: float,
        repr_rank: np.ndarray | None = None,
    ) -> "GrecaIndexFactory":
        """Rebuild a factory around an existing columnar substrate.

        This is the zero-copy receiving end of the shared-memory shipment
        path (:mod:`repro.parallel.shm`): ``matrix`` (and the optional
        tie-break ranking) are *shared*, never copied, and ``max_apref``
        must be the sending factory's resolved value so derived indexes keep
        the identical normalisation constant.  Bit-identical to pickling the
        original factory by construction: the matrix bytes, tie-break
        ranking and scale are exactly the sender's.
        """
        factory = cls.__new__(cls)
        factory._base = GrecaIndex._from_columns(
            tuple(members),
            tuple(items),
            matrix,
            {},
            None,
            None,
            TIME_MODEL_DISCRETE,
            float(max_apref),
            repr_rank=None if repr_rank is None else np.asarray(repr_rank),
        )
        factory._base._tie_break_ranking()
        factory._base._item_object_array()
        factory._restricted = {}
        return factory

    def columnar_substrate(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray, float]:
        """The shareable substrate: ``(members, items, matrix, repr_rank, max_apref)``.

        Everything :meth:`from_columns` needs to reconstruct an equivalent
        factory on the far side of a process boundary.
        """
        base = self._base
        return base.members, base.items, base._apref_matrix, base._tie_break_ranking(), base.max_apref

    @property
    def members(self) -> tuple[int, ...]:
        """The group members, in index order."""
        return self._base.members

    @property
    def items(self) -> tuple[int, ...]:
        """The full candidate item universe."""
        return self._base.items

    def build(
        self,
        static: Mapping[tuple[int, int], float],
        periodic: Mapping[int, Mapping[tuple[int, int], float]] | None = None,
        averages: Mapping[int, float] | None = None,
        time_model: str = TIME_MODEL_DISCRETE,
        items: Sequence[int] | None = None,
    ) -> GrecaIndex:
        """An index for the given affinity data (optionally item-restricted)."""
        base = self._base
        if items is not None:
            # Canonical key: restrict_items sorts and dedups, so equivalent
            # subsets must share one memoised substrate.
            key = tuple(sorted(set(items)))
            base = self._restricted.get(key)
            if base is None:
                base = self._base.restrict_items(items)
                self._restricted[key] = base
        return base.with_affinities(
            static, periodic=periodic, averages=averages, time_model=time_model
        )

    def build_columns(
        self,
        columns: AffinityColumns,
        time_model: str = TIME_MODEL_DISCRETE,
        items: Sequence[int] | None = None,
        n_periods: int | None = None,
    ) -> GrecaIndex:
        """An index from a columnar affinity representation.

        ``columns`` usually covers the full timeline; ``n_periods`` selects
        the prefix a query period needs.  The reconstruction goes through
        :meth:`AffinityColumns.to_components` — exact float values, no
        arithmetic — so the result is bit-identical to :meth:`build` with
        the equivalent dictionaries.  This is the worker-side entry point of
        the shared-memory affinity shipment.
        """
        if n_periods is not None:
            columns = columns.prefix(n_periods)
        static, periodic, averages = columns.to_components()
        return self.build(
            static, periodic=periodic, averages=averages, time_model=time_model, items=items
        )


@dataclass(frozen=True)
class GrecaResult:
    """Outcome of one GRECA execution."""

    items: tuple[int, ...]
    bounds: Mapping[int, tuple[float, float]]
    exact_scores: Mapping[int, float]
    sequential_accesses: int
    random_accesses: int
    total_entries: int
    rounds: int
    stopping: str
    consensus: str
    k: int

    @property
    def percent_sequential_accesses(self) -> float:
        """Percentage of list entries read sequentially (the paper's ``%SA``)."""
        if self.total_entries == 0:
            return 0.0
        return 100.0 * self.sequential_accesses / self.total_entries

    @property
    def saveup(self) -> float:
        """Percentage of accesses avoided compared to a full scan."""
        return 100.0 - self.percent_sequential_accesses


class Greca:
    """The GRECA top-k algorithm (batched columnar execution).

    Parameters
    ----------
    consensus:
        The (monotone) consensus function ``F``.
    k:
        Size of the itemset to recommend.
    check_interval:
        Number of round-robin cycles between two evaluations of the stopping
        conditions.  ``None`` selects an adaptive default that keeps the
        bookkeeping overhead negligible while bounding the overshoot to a
        small fraction of the lists.
    kernel:
        Round-kernel backend executing the advance/refresh steps —
        ``"reference"`` (the default) or ``"fused"``.  Every registered kernel is
        bit-identical to the reference tier (see :mod:`repro.core.kernels`);
        unknown names raise :class:`ValueError` at the single choice point
        (:func:`repro.core.kernels.validate_kernel_name`).
    """

    def __init__(
        self,
        consensus: ConsensusFunction,
        k: int = 10,
        check_interval: int | None = None,
        kernel: str | None = None,
    ) -> None:
        if k <= 0:
            raise AlgorithmError("k must be positive")
        if check_interval is not None and check_interval <= 0:
            raise AlgorithmError("check_interval must be positive")
        self.consensus = consensus
        self.k = k
        self.check_interval = check_interval
        self.kernel = kernel
        self._kernel = resolve_kernel(kernel)

    # -- public API ---------------------------------------------------------------------------

    def run(self, index: GrecaIndex) -> GrecaResult:
        """Execute GRECA over a pre-built index and return the top-k itemset."""
        counter = AccessCounter()
        preference_lists, static_lists, periodic_lists = index.build_lists(counter)
        affinity_bounds = PairwiseAffinityBounds(
            index.members,
            index.period_indices,
            index.combine,
            static_lists,
            periodic_lists,
            combine_batch=index.combine_batch,
        )
        # Partial knowledge, maintained in place by the round kernel.
        # apref_low holds 0 for unseen (member, item) cells and the exact
        # score once seen; apref_high additionally carries each member's
        # cursor score over the unseen suffix of their sort permutation,
        # refreshed at check time.
        state = make_round_state(
            preference_lists, affinity_bounds, len(index.members), len(index.items)
        )
        kernel = self._kernel
        all_lists: list[SortedAccessList] = state.all_lists
        total = total_entries(all_lists)

        n_items = state.n_items
        k = min(self.k, n_items)
        check_interval = self.check_interval or self._default_check_interval(n_items)

        stopping = STOP_EXHAUSTED
        finished = False
        lower = np.zeros(n_items)
        upper = np.zeros(n_items)

        while not finished:
            # Advance every list up to the next stopping-condition check (or
            # to exhaustion, whichever is closer).  This reaches exactly the
            # cursor state — and records exactly the accesses — of running
            # `block` one-entry round-robin cycles, because no check happens
            # in between either way.
            max_remaining = max(access_list.remaining for access_list in all_lists)
            block = self._round_block(max_remaining, state.rounds, check_interval)
            kernel.advance(state, block)
            exhausted = max_remaining <= block

            pref_low, pref_high = kernel.refresh_bounds(state)
            lower, upper = consensus_bounds(self.consensus, pref_low, pref_high, index.scale)

            # Global threshold: the best score a completely unseen item could
            # reach (the kernel filled the reusable virtual_* columns).
            _, threshold_arr = consensus_bounds(
                self.consensus, state.virtual_low, state.virtual_high, index.scale
            )
            threshold = float(threshold_arr[0])

            decision = self._check_stop(lower, upper, threshold, state.buffered, k, exhausted)
            if decision is not None:
                stopping = decision
                finished = True
            elif exhausted:
                stopping = STOP_EXHAUSTED
                finished = True

        buffer = index._acquire_buffer()
        try:
            buffer.replace_bounds(lower, upper, state.buffered)
            top = buffer.top_k(k) if state.buffered.any() else []
        finally:
            index._release_buffer(buffer)
        top_items = tuple(entry.item for entry in top)
        exact = index.exact_scores_for(top_items, self.consensus)
        return GrecaResult(
            items=top_items,
            bounds={entry.item: (entry.lower, entry.upper) for entry in top},
            exact_scores=exact,
            sequential_accesses=counter.sequential,
            random_accesses=counter.random,
            total_entries=total,
            rounds=state.rounds,
            stopping=stopping,
            consensus=self.consensus.name,
            k=k,
        )

    # -- internals ------------------------------------------------------------------------------

    @staticmethod
    def _round_block(max_remaining: int, rounds: int, check_interval: int) -> int:
        """Rounds to advance before the next stopping-condition check."""
        if max_remaining == 0:
            # Unreachable: preference lists always hold >= 1 entry (empty
            # catalogues raise in GrecaIndex) and exhaustion finishes the
            # loop.  Kept as a defensive guard so a broken invariant
            # degrades into one idle round instead of an infinite loop.
            return 1
        return min(check_interval - rounds % check_interval, max_remaining)

    @staticmethod
    def _default_check_interval(n_items: int) -> int:
        """Adaptive default spacing of stopping-condition checks.

        With the batched engine the stopping-condition check (bound refresh +
        consensus bounds + argsort) dominates runtime, so wider intervals are
        faster but overshoot the paper's %SA metric by up to one extra
        interval per list.  Measured on the default 3,900-item scalability
        substrate (8 groups of 6, AP consensus, k = 10, best of 3):

        ======== ========== ======= =========
        interval  wall time  SAs     mean %SA
        ======== ========== ======= =========
        n/100      0.109 s   43,428   23.10
        n/200      0.172 s   42,906   22.82
        n/400      0.354 s   42,636   22.67
        n/800      0.692 s   42,576   22.64
        ======== ========== ======= =========

        ``n_items // 200`` stays the default: halving the interval (n/400)
        doubles the runtime to recover only 0.15 pp of %SA, while doubling it
        (n/100) saves 37 % runtime but inflates the headline access metric by
        0.28 pp and changes every reported access count.  The floor of 1
        keeps tiny catalogues exact.
        """
        return max(1, n_items // 200)

    @staticmethod
    def _check_stop(
        lower: np.ndarray,
        upper: np.ndarray,
        threshold: float,
        buffered: np.ndarray,
        k: int,
        exhausted: bool,
        tolerance: float = 1e-9,
    ) -> str | None:
        """Evaluate GRECA's stopping conditions; return the reason or ``None``."""
        buffered_indices = np.flatnonzero(buffered)
        if buffered_indices.size < k:
            return None

        buffered_lower = lower[buffered_indices]
        order = np.argsort(-buffered_lower)
        kth_lower = float(buffered_lower[order[k - 1]])

        # Threshold condition: no unseen item can beat the k-th lower bound.
        any_unseen = bool((~buffered).any())
        threshold_ok = (not any_unseen) or threshold <= kth_lower + tolerance

        # Buffer condition: no other buffered item can beat the k-th lower bound.
        rest = buffered_indices[order[k:]]
        buffer_ok = rest.size == 0 or float(upper[rest].max()) <= kth_lower + tolerance

        if threshold_ok and buffer_ok:
            if exhausted:
                return STOP_EXHAUSTED
            return STOP_BUFFER if rest.size > 0 else STOP_THRESHOLD
        return None
