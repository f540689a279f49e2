"""Dense numpy representation of a lineage DNF.

A :class:`~repro.lineage.boolean.Lineage` keeps a
``Dict[TupleKey, float]`` weight map and frozenset clauses, which a
sampler could only walk one literal at a time.  :class:`PackedLineage`
interns its tuple events to dense ``int32`` ids *once* and
materializes

* a weights vector aligned with the event ids, and the ``uint32``
  draw threshold of each event,
* the clauses as a CSR structure (literal event ids + polarities with
  per-clause start offsets),
* per-clause log-weight products (and their linear-space counterparts),
  which give the Karp–Luby clause distribution without re-multiplying
  marginals per draw, and
* a *padded* literal matrix — every clause widened to the longest
  clause by repeating its own first literal (repetition cannot change
  a conjunction) — so clause evaluation needs no segmented reduction.

On top of it, whole sample batches become single numpy expressions.
An ``(n_events, batch)`` world matrix is one block of raw 64-bit
generator words, read as 32-bit halves and compared against one
integer threshold per event.  Clause truth is computed on bit-packed
worlds (``np.packbits``, eight samples per byte): one row gather of the
padded literals, an XOR against their polarities and an OR fold give
every clause's violated bits for the whole batch.  The event-major
layout is deliberate: gathering literal rows from a C-contiguous
``(E, batch / 8)`` matrix vectorizes across the batch, where the
batch-major equivalent (or ``ufunc.reduceat`` over ragged segments) is
an order of magnitude slower.

The packed form is built lazily and cached on the lineage, so repeated
estimator calls (the multisimulation top-k loop) pay the interning
cost once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..db.database import TupleKey
from .boolean import Clause, Lineage


def clause_sort_key(clause: Clause) -> Tuple:
    """Deterministic clause order of the packed clause rows.

    Karp–Luby's coverage indicator is "no *earlier* clause satisfied",
    so the estimate of a seeded run depends on the clause order; sorting
    by the literals' text makes it independent of set iteration order.
    """
    return tuple(sorted((str(key), polarity) for key, polarity in clause))


class PackedLineage:
    """CSR + padded bit-matrix view of one lineage, cached on it.

    Build through :meth:`of` (which caches the packed form on the
    lineage) rather than the constructor.  All arrays are aligned with
    :attr:`events`, the dense id order.

    Args:
        lineage: the DNF lineage to pack; its ``weights`` must cover
            every event its clauses mention.

    Raises:
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
        >>> worlds.shape, packed.satisfied_bits(worlds).shape
        ((3, 4), (2, 1))
    """

    __slots__ = (
        "events",
        "event_index",
        "weights",
        "thresholds",
        "certain_events",
        "clause_starts",
        "literal_events",
        "literal_polarities",
        "padded_events",
        "padded_masks",
        "padded_width",
        "clause_log_probs",
        "clause_probs",
        "clause_distribution",
        "clause_cumulative",
        "total",
    )

    def __init__(self, lineage: Lineage) -> None:
        #: Dense id -> tuple event, in canonical string order.
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
        fold over ``padded_width`` columns equals the ragged evaluation.
        """
        starts = self.clause_starts
        n_clauses = len(starts) - 1
        lengths = starts[1:] - starts[:-1]
        width = int(lengths.max()) if n_clauses else 0
        self.padded_width = width
        if n_clauses == 0 or width == 0:
            self.padded_events = np.zeros(0, dtype=np.int32)
            self.padded_masks = np.zeros(0, dtype=np.uint8)
            return
        columns = np.arange(width, dtype=np.int64)[None, :]
        offsets = np.where(columns < lengths[:, None], columns, 0)
        flat = (starts[:-1, None] + offsets).reshape(-1)
        #: Flattened (n_clauses * width) padded literal columns.
        self.padded_events = self.literal_events[flat]
        #: Per padded literal, the byte whose XOR with a packed world
        #: byte sets the bits of the samples violating the literal:
        #: all ones for a positive literal, zero for a negated one.
        self.padded_masks = np.where(
            self.literal_polarities[flat], 0xFF, 0
        ).astype(np.uint8)

    def _finalize(self) -> None:
        """Everything derived from (CSR, weights): per-clause products,
        the Karp–Luby clause distribution, and the draw thresholds."""
        # numpy's float32 uniform is (w >> 8) * 2^-24 for a 32-bit word
        # w, so "uniform < float32(p)" holds exactly when
        # w < ceil(float32(p) * 2^24) * 2^8.  Both products are exact in
        # float64 (a float32 has a 24-bit significand).
        words = np.ceil(
            self.weights.astype(np.float32).astype(np.float64) * 2.0**24
        ) * 2.0**8
        #: Events whose float32 marginal is 1.0: their threshold, 2^32,
        #: does not fit in uint32, so :meth:`sample_worlds` sets their
        #: rows outright.
        self.certain_events = np.flatnonzero(words >= 2.0**32)
        #: Per event, the smallest 32-bit word that draws it false (0
        #: for the certain events above).
        self.thresholds = np.where(words < 2.0**32, words, 0).astype(
            np.uint32
        )
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

    def sample_worlds(self, rng, batch: int):
        """An ``(n_events, batch)`` boolean world matrix ~ the marginals.

        Cell ``(e, s)`` is 32-bit word ``e * batch + s`` of ``rng``'s raw
        64-bit output, low half first (the order numpy's float32 draws
        consume it on a little-endian host), compared against
        ``thresholds[e]``: cell for cell the matrix
        ``rng.random((n_events, batch), dtype=float32) < float32(p)``,
        without building a float per cell.  When ``n_events * batch``
        is odd the high half of the last word is dropped, so later draws
        keep the distribution but not numpy's float32 digits.
        """
        cells = self.n_events * batch
        words = rng.bit_generator.random_raw((cells + 1) // 2).view(np.uint32)
        worlds = (
            words[:cells].reshape(self.n_events, batch)
            < self.thresholds[:, None]
        )
        worlds[self.certain_events] = True
        return worlds

    def satisfied_bits(self, worlds):
        """Clause truth values on bit-packed worlds.

        Returns a ``(n_clauses, ceil(batch / 8))`` uint8 matrix in
        ``np.packbits`` order: bit ``7 - s % 8`` of byte ``s // 8`` in
        row ``c`` is set when clause ``c`` holds in world ``s``; bits
        past ``batch`` are padding.  Each gathered padded-literal row
        is XORed with its polarity mask, which leaves a bit set where
        the sample violates the literal; an OR fold over each clause's
        ``padded_width`` rows gives its violated bits, and their
        complement the satisfied ones.
        """
        bits = np.packbits(worlds, axis=1)
        literal_bits = bits[self.padded_events]
        literal_bits ^= self.padded_masks[:, None]
        violated = np.bitwise_or.reduce(
            literal_bits.reshape(
                self.n_clauses, self.padded_width, bits.shape[1]
            ),
            axis=1,
        )
        return np.invert(violated, out=violated)

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

    def coverage_hits(self, worlds, chosen) -> int:
        """Karp–Luby coverage count for a forced world batch.

        A trial is a hit when no clause before its chosen one holds in
        its world.  A prefix OR down the rows of :meth:`satisfied_bits`
        sets bit ``s`` of row ``c`` when some clause ``<= c`` holds in
        world ``s``, so a trial hits when it chose clause 0 or its bit
        in row ``chosen - 1`` is clear.
        """
        earlier = np.bitwise_or.accumulate(self.satisfied_bits(worlds), axis=0)
        samples = np.arange(len(chosen))
        # A trial that chose clause 0 reads row -1; the mask below
        # counts it as a hit whatever that row holds.
        bit = (earlier[chosen - 1, samples >> 3] >> (7 - (samples & 7))) & 1
        return int(np.count_nonzero((chosen == 0) | (bit == 0)))
