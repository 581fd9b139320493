"""Pluggable round kernels for the GRECA inner loop.

:meth:`Greca.run <repro.core.greca.Greca.run>` orchestrates the paper's
round-robin as *advance lists → scatter bounds → recombine affinities →
threshold → stop check*.  The stop check and the consensus-bound algebra are
consensus-function-specific Python shared by every execution tier; the two
hot steps in between — scattering block reads into the ``(members × items)``
bound arrays and refreshing the unseen suffix of every member row — are pure
array work.  This module extracts those two steps behind a ``RoundKernel``
seam so alternative implementations can plug in without forking the
algorithm, mirroring the executor/storage registries in
:mod:`repro.parallel.pool` and :mod:`repro.parallel.storage`:

* ``kernel="reference"`` — the original per-member loops, extracted verbatim
  from ``Greca.run``.  This is the reference semantics every other tier is
  measured against.
* ``kernel="fused"`` — always available: the per-member scatter loops are
  replaced by one batched gather/scatter over the packed
  ``(n_members, n_items)`` key-index matrix held in :class:`RoundState`.
  Every array write is an assignment (never a sum), so floating-point
  summation order is untouched and the fused tier stays bit-identical to
  the reference oracle.

Kernel names pass through :func:`validate_kernel_name`, the single
:class:`ValueError` choice point for ``kernel=`` strings (the analogue of
``resilience.validate_executor_name`` / ``storage.validate_storage_name``),
and the registry (:func:`register_kernel` / :func:`kernel_names`) is how new
backends join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.bounds import PairwiseAffinityBounds
from repro.core.lists import SortedAccessList

#: Kernel names accepted by :func:`validate_kernel_name`.
KERNEL_REFERENCE = "reference"
KERNEL_FUSED = "fused"


@dataclass
class RoundState:
    """Plain-ndarray working state of one GRECA execution.

    Everything a kernel touches per round lives here: the in-place bound
    arrays, the packed per-member sort permutations (``key_matrix``) and
    sorted score rows (``score_matrix``), the affinity recombiner, and the
    reusable threshold columns (hoisted out of the round loop so repeated
    checks allocate nothing).
    """

    preference_lists: list[SortedAccessList]
    affinity_bounds: PairwiseAffinityBounds
    n_members: int
    n_items: int
    #: Partial preference knowledge, maintained in place.
    apref_low: np.ndarray
    apref_high: np.ndarray
    buffered: np.ndarray
    cursor_values: np.ndarray
    #: ``key_matrix[row]`` is member ``row``'s sort permutation (item columns
    #: in list order); ``score_matrix[row]`` the matching sorted scores.
    key_matrix: np.ndarray
    score_matrix: np.ndarray
    #: Affinity bound matrices, refreshed by ``refresh_bounds``.
    aff_low: np.ndarray = field(default=None)  # type: ignore[assignment]
    aff_high: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Reusable ``(n_members, 1)`` columns for the global-threshold consensus
    #: evaluation — allocated once here instead of once per check.
    virtual_low: np.ndarray = field(default=None)  # type: ignore[assignment]
    virtual_high: np.ndarray = field(default=None)  # type: ignore[assignment]
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.virtual_low is None:
            self.virtual_low = np.zeros((self.n_members, 1))
        if self.virtual_high is None:
            self.virtual_high = np.empty((self.n_members, 1))

    @property
    def all_lists(self) -> list[SortedAccessList]:
        """Every list the round-robin scans (preference + affinity)."""
        return list(self.preference_lists) + self.affinity_bounds.lists


def make_round_state(
    preference_lists: list[SortedAccessList],
    affinity_bounds: PairwiseAffinityBounds,
    n_members: int,
    n_items: int,
) -> RoundState:
    """Build the round state for freshly constructed (unread) lists."""
    key_matrix = np.empty((n_members, n_items), dtype=np.intp)
    score_matrix = np.empty((n_members, n_items))
    for row, preference_list in enumerate(preference_lists):
        key_matrix[row] = preference_list.key_index
        score_matrix[row] = preference_list.scores
    return RoundState(
        preference_lists=preference_lists,
        affinity_bounds=affinity_bounds,
        n_members=n_members,
        n_items=n_items,
        apref_low=np.zeros((n_members, n_items)),
        apref_high=np.empty((n_members, n_items)),
        buffered=np.zeros(n_items, dtype=bool),
        cursor_values=np.empty(n_members),
        key_matrix=key_matrix,
        score_matrix=score_matrix,
    )


@runtime_checkable
class RoundKernel(Protocol):
    """One GRECA round step: advance the lists, then refresh the bounds.

    Implementations must be *bit-identical* to the reference kernel: same
    access accounting (``advance`` must read every list through
    ``sequential_block`` so SAs are recorded), same array contents after
    every step, and same floating-point summation order (assign, never
    accumulate, when scattering).
    """

    name: str

    def advance(self, state: RoundState, block: int) -> None:
        """Advance every list by ``block`` round-robin cycles, scattering
        the preference scores read into ``apref_low``/``apref_high`` and
        marking newly seen items in ``buffered``."""
        ...

    def refresh_bounds(self, state: RoundState) -> tuple[np.ndarray, np.ndarray]:
        """Recombine affinity bounds, refresh cursor values and the unseen
        suffix of ``apref_high``, fill the ``virtual_*`` threshold columns,
        and return the ``(pref_low, pref_high)`` group-preference bounds."""
        ...


class ReferenceRoundKernel:
    """The original ``Greca.run`` loops, extracted verbatim."""

    name = KERNEL_REFERENCE

    def advance(self, state: RoundState, block: int) -> None:
        apref_low = state.apref_low
        apref_high = state.apref_high
        buffered = state.buffered
        for row, preference_list in enumerate(state.preference_lists):
            start = preference_list.position
            _, scores = preference_list.sequential_block(block)
            if scores.size:
                cols = preference_list.key_index[start : start + scores.size]
                apref_low[row, cols] = scores
                apref_high[row, cols] = scores
                buffered[cols] = True
        state.affinity_bounds.advance(block)
        state.rounds += block

    def refresh_bounds(self, state: RoundState) -> tuple[np.ndarray, np.ndarray]:
        # Bound maintenance: only pairs whose lists moved are recombined,
        # and only the unseen suffix of each member row is rewritten.
        aff_low, aff_high = state.affinity_bounds.bounds()
        state.aff_low, state.aff_high = aff_low, aff_high
        apref_low = state.apref_low
        apref_high = state.apref_high
        cursor_values = state.cursor_values
        n_items = state.n_items
        for row, preference_list in enumerate(state.preference_lists):
            cursor = preference_list.cursor_score
            cursor_values[row] = cursor
            position = preference_list.position
            if position < n_items:
                apref_high[row, preference_list.key_index[position:]] = cursor
        pref_low = apref_low + aff_low @ apref_low
        pref_high = apref_high + aff_high @ apref_high
        # Global threshold column: the best score a completely unseen item
        # could reach (virtual_low stays all-zero by construction).
        state.virtual_high[:, 0] = cursor_values + aff_high @ cursor_values
        return pref_low, pref_high


def _scatter_block(
    apref_low: np.ndarray,
    apref_high: np.ndarray,
    buffered: np.ndarray,
    cols: np.ndarray,
    scores: np.ndarray,
) -> None:
    rows = np.arange(cols.shape[0])[:, None]
    apref_low[rows, cols] = scores
    apref_high[rows, cols] = scores
    buffered[cols.ravel()] = True


def _rewrite_suffix(
    apref_high: np.ndarray,
    cols: np.ndarray,
    cursor_values: np.ndarray,
) -> None:
    rows = np.arange(cols.shape[0])[:, None]
    apref_high[rows, cols] = cursor_values[:, None]


class FusedRoundKernel:
    """Batched gather/scatter over the packed key-index matrix.

    The per-member Python loops of the reference kernel collapse into one
    fancy-indexed scatter per step.  Lists still advance through
    ``sequential_block`` one by one (that is where sequential accesses are
    recorded), but their return values are ignored in favour of views into
    the precomputed ``score_matrix`` — the same bytes, gathered without
    per-member slicing.  All writes are assignments, so the results are
    bit-identical to the reference kernel.
    """

    name = KERNEL_FUSED

    def advance(self, state: RoundState, block: int) -> None:
        lists = state.preference_lists
        start = lists[0].position if lists else 0
        took = 0
        for preference_list in lists:
            _, scores = preference_list.sequential_block(block)
            took = scores.size
        if took:
            cols = state.key_matrix[:, start : start + took]
            scores = state.score_matrix[:, start : start + took]
            _scatter_block(state.apref_low, state.apref_high, state.buffered, cols, scores)
        state.affinity_bounds.advance(block)
        state.rounds += block

    def refresh_bounds(self, state: RoundState) -> tuple[np.ndarray, np.ndarray]:
        aff_low, aff_high = state.affinity_bounds.bounds()
        state.aff_low, state.aff_high = aff_low, aff_high
        cursor_values = state.cursor_values
        for row, preference_list in enumerate(state.preference_lists):
            cursor_values[row] = preference_list.cursor_score
        position = state.preference_lists[0].position if state.preference_lists else 0
        if position < state.n_items:
            _rewrite_suffix(state.apref_high, state.key_matrix[:, position:], cursor_values)
        apref_low = state.apref_low
        apref_high = state.apref_high
        pref_low = apref_low + aff_low @ apref_low
        pref_high = apref_high + aff_high @ apref_high
        state.virtual_high[:, 0] = cursor_values + aff_high @ cursor_values
        return pref_low, pref_high


_KERNEL_BUILDERS: dict[str, Callable[[], RoundKernel]] = {}


def register_kernel(name: str, builder: Callable[[], RoundKernel]) -> None:
    """Register a round-kernel backend under ``name``.

    Registering is what puts a backend into :func:`kernel_names` — and
    therefore into every ``kernel=`` validation message.
    """
    _KERNEL_BUILDERS[name] = builder


register_kernel(KERNEL_REFERENCE, ReferenceRoundKernel)
register_kernel(KERNEL_FUSED, FusedRoundKernel)


def kernel_names() -> tuple[str, ...]:
    """Every registered kernel name, in registration order."""
    return tuple(_KERNEL_BUILDERS)


def validate_kernel_name(kernel: str) -> str:
    """The single ``ValueError`` choice point for ``kernel=`` strings."""
    if kernel not in _KERNEL_BUILDERS:
        valid = ", ".join(repr(name) for name in sorted(_KERNEL_BUILDERS))
        raise ValueError(f"unknown kernel {kernel!r}: valid kernels are {valid}")
    return kernel


def resolve_kernel(kernel: str | RoundKernel | None) -> RoundKernel:
    """Materialise a kernel from a name (``None`` selects the reference tier)."""
    if kernel is None:
        kernel = KERNEL_REFERENCE
    if isinstance(kernel, str):
        return _KERNEL_BUILDERS[validate_kernel_name(kernel)]()
    return kernel
