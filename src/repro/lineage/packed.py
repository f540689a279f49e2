"""Dense numpy representation of a lineage DNF.

The scalar estimators walk ``Dict[TupleKey, float]`` weight maps and
frozenset clauses one literal at a time — fine for correctness, hopeless
for throughput.  :class:`PackedLineage` interns the tuple events of a
:class:`~repro.lineage.boolean.Lineage` to dense ``int32`` ids *once*
and materializes

* a weights vector aligned with the event ids,
* the clauses as a CSR structure (literal event ids + polarities with
  per-clause start offsets),
* per-clause log-weight products (and their linear-space counterparts),
  which give the Karp–Luby clause distribution without re-multiplying
  marginals per draw, and
* a *padded* literal matrix — every clause widened to the longest
  clause by repeating its own first literal (repetition cannot change
  a conjunction) — so clause evaluation needs no segmented reduction.

On top of it, whole sample batches become single numpy expressions: an
``(n_events, batch)`` world bit-matrix is one uniform draw + compare,
and the truth of *all* clauses of *all* samples is one contiguous row
gather + a fixed-width ``any`` reduction.  The event-major layout is
deliberate: gathering literal rows from a C-contiguous ``(E, B)``
matrix vectorizes across the batch, where the batch-major equivalent
(or ``ufunc.reduceat`` over ragged segments) is an order of magnitude
slower.

A :class:`SampleArena` holds the per-batch world and scratch matrices
so repeated :meth:`~PackedLineage.sample_worlds` /
:meth:`~PackedLineage.clause_satisfaction` calls (the Karp–Luby
``extend`` loop) reuse one allocation instead of mallocing
multi-megabyte intermediates per batch.  The arena variant also folds
clause satisfaction column-by-column (one ``(n_clauses, batch)``
gather per literal position) instead of materializing the full
``(n_literals, batch)`` gather, keeping the working set
cache-resident.  Both variants are bit-for-bit identical.

The packed form is built lazily and cached on the lineage, so repeated
estimator calls (the multisimulation top-k loop) pay the interning
cost once.  numpy is optional at import time; constructing a
:class:`PackedLineage` without it raises, and callers fall back to the
scalar backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised by whichever env runs the suite
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from ..db.database import TupleKey
from .boolean import Clause, Lineage

HAVE_NUMPY = np is not None


def clause_sort_key(clause: Clause) -> Tuple:
    """Deterministic clause order shared by every sampling backend.

    Karp–Luby's coverage indicator is "no *earlier* clause satisfied",
    so the scalar and vectorized estimators must enumerate clauses
    identically for their trials to be comparable draw-for-draw.
    """
    return tuple(sorted((str(key), polarity) for key, polarity in clause))


class SampleArena:
    """Preallocated sampling buffers, reused across batches.

    One arena serves one ``(packed shape, batch, dtype)`` combination at
    a time; :meth:`ensure` reallocates only when any of those change (a
    Karp–Luby run over one lineage sees at most two batch sizes: the
    cap and the final remainder).  Each sampler owns its arena rather
    than sharing one through the packed lineage, which keeps
    concurrent samplers over one lineage independent.
    """

    __slots__ = ("key", "uniforms", "worlds", "satisfied", "gather")

    def __init__(self) -> None:
        self.key = None
        self.uniforms = None
        self.worlds = None
        self.satisfied = None
        self.gather = None

    def ensure(self, packed: "PackedLineage", batch: int, dtype) -> None:
        key = (
            packed.n_events, packed.n_clauses, packed.padded_width,
            batch, dtype,
        )
        if self.key == key:
            return
        self.key = key
        self.uniforms = np.empty((packed.n_events, batch), dtype=dtype)
        self.worlds = np.empty((packed.n_events, batch), dtype=bool)
        self.satisfied = np.empty((packed.n_clauses, batch), dtype=bool)
        self.gather = np.empty(
            (packed.n_clauses * packed.padded_width, batch), dtype=bool
        )


class PackedLineage:
    """CSR + padded bit-matrix view of one lineage, cached on it.

    Build through :meth:`of` (which caches the packed form on the
    lineage) rather than the constructor.  All arrays are aligned with
    :attr:`events`, the dense id order shared with the scalar backends.

    Args:
        lineage: the DNF lineage to pack; its ``weights`` must cover
            every event its clauses mention.

    Raises:
        RuntimeError: when numpy is unavailable (callers fall back to
            the scalar backend; see ``HAVE_NUMPY``).
        KeyError: when a clause mentions an event absent from
            ``lineage.weights``.

    Example — pack a grounded lineage and draw a world batch::

        >>> from repro.core.parser import parse
        >>> from repro.db.database import ProbabilisticDatabase
        >>> from repro.lineage.grounding import ground_lineage
        >>> db = ProbabilisticDatabase.from_dict(
        ...     {"R": {(1,): 0.5}, "S": {(1, 2): 0.4, (1, 3): 0.9}})
        >>> packed = PackedLineage.of(ground_lineage(parse("R(x), S(x,y)"), db))
        >>> packed.n_clauses, len(packed.events)
        (2, 3)
        >>> import numpy as np
        >>> worlds = packed.sample_worlds(np.random.default_rng(0), batch=4)
        >>> worlds.shape, packed.clause_satisfaction(worlds).shape
        ((3, 4), (2, 4))
    """

    __slots__ = (
        "events",
        "event_index",
        "weights",
        "weights_f32",
        "clause_starts",
        "literal_events",
        "literal_polarities",
        "padded_events",
        "padded_polarities",
        "padded_width",
        "clause_log_probs",
        "clause_probs",
        "clause_distribution",
        "clause_cumulative",
        "total",
    )

    def __init__(self, lineage: Lineage) -> None:
        if np is None:
            raise RuntimeError(
                "PackedLineage requires numpy; use the scalar backend"
            )
        #: Dense id -> tuple event, in the canonical string order the
        #: scalar estimators already use.
        self.events: List[TupleKey] = sorted(lineage.events(), key=str)
        self.event_index: Dict[TupleKey, int] = {
            event: i for i, event in enumerate(self.events)
        }
        self.weights = np.array(
            [lineage.weights[event] for event in self.events], dtype=np.float64
        )
        clauses = sorted(lineage.clauses, key=clause_sort_key)
        starts = [0]
        event_ids: List[int] = []
        polarities: List[bool] = []
        for clause in clauses:
            literals = sorted(
                ((self.event_index[key], polarity) for key, polarity in clause)
            )
            for event_id, polarity in literals:
                event_ids.append(event_id)
                polarities.append(polarity)
            starts.append(len(event_ids))
        self.clause_starts = np.array(starts, dtype=np.int64)
        self.literal_events = np.array(event_ids, dtype=np.int32)
        self.literal_polarities = np.array(polarities, dtype=bool)
        self._build_padded()
        self._finalize()

    @classmethod
    def of(cls, lineage: Lineage) -> "PackedLineage":
        """The packed form of ``lineage``, built once and cached on it."""
        packed = getattr(lineage, "_packed", None)
        if packed is None:
            packed = cls(lineage)
            lineage._packed = packed
        return packed

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------

    def _build_padded(self) -> None:
        """Padded literal matrix from the CSR arrays, no python loops.

        Padding repeats each clause's *own first literal* (duplicating a
        conjunct never changes the clause's truth value), so the fixed
        ``any`` fold over ``padded_width`` columns equals the ragged
        evaluation.
        """
        starts = self.clause_starts
        n_clauses = len(starts) - 1
        lengths = starts[1:] - starts[:-1]
        width = int(lengths.max()) if n_clauses else 0
        self.padded_width = width
        if n_clauses == 0 or width == 0:
            self.padded_events = np.zeros(0, dtype=np.int32)
            self.padded_polarities = np.zeros(0, dtype=bool)
            return
        columns = np.arange(width, dtype=np.int64)[None, :]
        offsets = np.where(columns < lengths[:, None], columns, 0)
        flat = (starts[:-1, None] + offsets).reshape(-1)
        #: Flattened (n_clauses * width) padded literal columns.
        self.padded_events = self.literal_events[flat]
        self.padded_polarities = self.literal_polarities[flat]

    def _finalize(self) -> None:
        """Everything derived from (CSR, weights): per-clause products,
        the Karp–Luby clause distribution, and the float32 weights."""
        # float32 copy for the uniform-draw compare: halves the
        # bandwidth of world generation; the ~1e-7 relative rounding of
        # a marginal is far below any Monte Carlo resolution.
        self.weights_f32 = self.weights.astype(np.float32)
        # Per-clause Π weight(literal) in log space: one gather + one
        # reduceat instead of a python product per clause.
        literal_weights = np.where(
            self.literal_polarities,
            self.weights[self.literal_events],
            1.0 - self.weights[self.literal_events],
        )
        if self.n_clauses:
            with np.errstate(divide="ignore"):
                log_weights = np.log(literal_weights)
            self.clause_log_probs = np.add.reduceat(
                log_weights, self.clause_starts[:-1]
            )
            self.clause_probs = np.exp(self.clause_log_probs)
        else:
            self.clause_log_probs = np.empty(0, dtype=np.float64)
            self.clause_probs = np.empty(0, dtype=np.float64)
        self.total = float(self.clause_probs.sum())
        self.clause_distribution = (
            self.clause_probs / self.total if self.total > 0.0 else None
        )
        # Precomputed CDF: clause draws are one uniform batch + one
        # searchsorted, instead of Generator.choice re-deriving the
        # cumulative weights on every call.
        self.clause_cumulative = (
            np.cumsum(self.clause_distribution)
            if self.clause_distribution is not None
            else None
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.weights)

    @property
    def n_clauses(self) -> int:
        return len(self.clause_starts) - 1

    @property
    def n_literals(self) -> int:
        return len(self.literal_events)

    @property
    def batch_cost(self) -> int:
        """Elements touched per sample (batch sizing + cost heuristic)."""
        return max(1, self.n_events, self.n_clauses * self.padded_width)

    # ------------------------------------------------------------------
    # Batched sampling primitives (worlds are event-major: (E, batch))
    # ------------------------------------------------------------------

    def sample_worlds(
        self,
        rng,
        batch: int,
        arena: Optional[SampleArena] = None,
        dtype=None,
    ):
        """An ``(n_events, batch)`` boolean world matrix ~ the marginals.

        With an ``arena`` the uniforms and the world matrix land in the
        arena's preallocated buffers (identical values — ``out=`` draws
        consume the generator stream exactly like fresh allocations).
        ``dtype`` selects the uniform precision; the float32 default
        halves draw bandwidth (see ``benchmarks/bench_sampling.py`` for
        the float32-vs-float64 rows pinning this choice).
        """
        if dtype is None:
            dtype = np.float32
        threshold = (
            self.weights_f32 if dtype == np.float32 else self.weights
        )
        if arena is None:
            uniforms = rng.random((self.n_events, batch), dtype=dtype)
            return uniforms < threshold[:, None]
        arena.ensure(self, batch, dtype)
        rng.random(out=arena.uniforms, dtype=dtype)
        np.less(arena.uniforms, threshold[:, None], out=arena.worlds)
        return arena.worlds

    def clause_satisfaction(self, worlds, arena: Optional[SampleArena] = None):
        """``(n_clauses, batch)`` clause truth values, one matrix pass.

        Both paths gather the padded literal rows of the world matrix,
        compare against the polarities, and fold each clause's
        fixed-width window with one ``any`` reduction — no ragged
        segments.  With an arena every intermediate lands in the
        preallocated ``gather``/``satisfied`` buffers (``np.take`` with
        ``out=`` instead of fancy indexing): same truth table, zero
        per-batch allocations.
        """
        if arena is None:
            literal_rows = worlds[self.padded_events]
            violated = literal_rows != self.padded_polarities[:, None]
            batch = worlds.shape[1]
            return ~violated.reshape(
                self.n_clauses, self.padded_width, batch
            ).any(axis=1)
        if self.padded_width == 0:
            # Only empty clauses (certainly-true lineages): an empty
            # conjunction holds vacuously, matching the reshape-fold.
            arena.satisfied.fill(True)
            return arena.satisfied
        batch = worlds.shape[1]
        gather, satisfied = arena.gather, arena.satisfied
        # mode="clip" skips the bounds-checked buffering path (the ids
        # are dense event indices, always in range, so it never clips).
        np.take(worlds, self.padded_events, axis=0, out=gather, mode="clip")
        np.not_equal(gather, self.padded_polarities[:, None], out=gather)
        np.any(
            gather.reshape(self.n_clauses, self.padded_width, batch),
            axis=1, out=satisfied,
        )
        np.logical_not(satisfied, out=satisfied)
        return satisfied

    def force_clauses(self, worlds, chosen) -> None:
        """Overwrite each sample's events so its chosen clause holds.

        ``chosen`` holds one clause id per sample (column).  The
        write indices are built without a python loop: per-sample
        literal counts expand to flat CSR positions via repeat +
        cumulative offsets.
        """
        starts = self.clause_starts
        lengths = starts[chosen + 1] - starts[chosen]
        total = int(lengths.sum())
        if total == 0:
            return
        columns = np.repeat(np.arange(len(chosen)), lengths)
        segment_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        within = np.arange(total) - np.repeat(segment_starts, lengths)
        flat = np.repeat(starts[chosen], lengths) + within
        worlds[self.literal_events[flat], columns] = (
            self.literal_polarities[flat]
        )

    def sample_clauses(self, rng, batch: int):
        """``batch`` clause ids ~ the Karp–Luby clause distribution."""
        uniforms = rng.random(batch)
        return np.searchsorted(
            self.clause_cumulative, uniforms, side="right"
        ).clip(max=self.n_clauses - 1).astype(np.int64)

    def coverage_hits(
        self, worlds, chosen, arena: Optional[SampleArena] = None
    ) -> int:
        """Karp–Luby coverage count for a forced world batch.

        A trial is a hit when its chosen clause is the *first* satisfied
        clause of its world.  The chosen clause is forced true, so a
        first satisfied clause always exists and ``argmax`` (index of
        the first True per column) finds it in one pass; the indicator
        is simply ``first == chosen``.
        """
        satisfied = self.clause_satisfaction(worlds, arena)
        first_satisfied = satisfied.argmax(axis=0)
        return int((first_satisfied == chosen).sum())
