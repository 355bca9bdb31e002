"""Batch (vectorised) twins of the compiled signature expanders.

The scalar kernels in :mod:`repro.kernels.signature` expand one signature
per Python call; at 10⁸ states the interpreter loop itself is the bottleneck.
This module re-expresses each kernel as **whole-frontier numpy column ops**
over a ``uint64`` array of packed signatures:

* the sink test ``((sig ^ tail_sel[i]) & inc[i]) == 0`` becomes one
  broadcast XOR/AND per frontier giving the full ``(states × candidates)``
  sink matrix;
* FR's step is a single XOR column; the PR/OneStepPR list kernels gather
  their flip/bookkeeping masks from per-node ``2^degree`` tables (built once
  through the scalar kernel's own ``_compile_step``, so the masks are equal
  by construction); NewPR's parity-selected flips and counter increments are
  ``where``/add columns;
* PR's subset actions group the frontier by sink-set word so each distinct
  subset is composed once per group instead of once per state;
* every emitted successor also carries its **acyclicity certificate bit**:
  whether each of its actors is a source after the step,
  ``((succ ^ tail_sel[i]) & inc[i]) == inc[i]``.  A new cycle must use a
  just-flipped edge, every flipped edge leaves an actor, and a source lies
  on no cycle — so a successor with the bit set is acyclic whenever its
  parent is.  Acting sinks are pairwise non-adjacent, so a subset's
  incident masks are disjoint and one OR-ed test covers the whole subset.

**Exactness contract.**  :meth:`VectorExpander.expand` returns successors in
*exactly* the scalar generation order: for each frontier state (in frontier
order) every ``(token, successor)`` pair appears in the order
``SignatureExpander.successors`` would emit it.  The model checker's
differential pins (counts, visited sets, predecessor choices, truncation
points, failure order) all lean on this.

**Fallback.**  :func:`compile_vector_expander` returns ``None`` whenever the
signature does not fit one 64-bit lane (``signature_bits > 64``), node ids do
not fit the action-token bitmask (``node_count > 64``) or a list kernel's
degree would need oversized step tables; the checker then stays on the exact
scalar path.  NewPR's ``E + 16·n`` layout only fits toy instances — that is
expected, the fallback is the documented behaviour, not an error.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.core.graph import LinkReversalInstance
from repro.kernels.signature import (
    _COUNT_BITS,
    _COUNT_MASK,
    FullReversalExpander,
    NewPRExpander,
    OneStepPRExpander,
    PartialReversalExpander,
    SignatureExpander,
)

__all__ = [
    "BatchExpansion",
    "VectorExpander",
    "compile_vector_expander",
    "decode_token",
    "mask_is_acyclic_batch",
    "mask_is_destination_oriented_batch",
    "shard_of_batch",
]

#: A list-kernel node needs a ``2^degree`` flip/bookkeeping table per node;
#: beyond this degree the tables stop being "tiny" and the scalar memo wins.
_MAX_TABLE_DEGREE = 12

#: ``hash(int)`` on CPython is reduction modulo the Mersenne prime ``2^61-1``
#: (for the non-negative ints signatures are), which vectorises to one
#: modulo — :func:`shard_of_batch` must agree with ``signature.shard_of``
#: because single-process resume ids and sharded runs share visited sets.
_HASH_MODULUS = (1 << 61) - 1


def decode_token(token: int) -> Tuple[int, ...]:
    """Unpack an actor-bitmask token into the scalar tuple form (ids ascending)."""
    ids = []
    i = 0
    while token:
        if token & 1:
            ids.append(i)
        token >>= 1
        i += 1
    return tuple(ids)


def shard_of_batch(sigs: "np.ndarray", shards: int) -> "np.ndarray":
    """Vectorised ``shard_of``: owner shard per signature, as ``int64``.

    Agrees with ``hash(sig) % shards`` for every unsigned 64-bit signature
    (pinned by tests, including the ``2^61-1`` wrap-around values).
    """
    reduced = sigs % np.uint64(_HASH_MODULUS)
    return (reduced % np.uint64(shards)).astype(np.int64)


# ----------------------------------------------------------------------
# batch structural checks (vectorised mask_is_acyclic / destination checks)
# ----------------------------------------------------------------------
def _oriented_slots(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Flattened per-lane ``(tail, head)`` node slots of every directed edge.

    Lane ``b``'s node ``i`` lives at slot ``b * n + i``, so one ``bincount``
    over the returned arrays accumulates per-node quantities for the whole
    batch at once.
    """
    edges = np.asarray(instance._edge_node_ids, dtype=np.int64).reshape(-1, 2)
    tails0 = edges[:, 0][None, :]
    heads0 = edges[:, 1][None, :]
    eshift = np.arange(edges.shape[0], dtype=np.uint64)[None, :]
    rev = ((masks[:, None] >> eshift) & np.uint64(1)).astype(bool)
    tails = np.where(rev, heads0, tails0)
    heads = np.where(rev, tails0, heads0)
    offsets = (np.arange(masks.shape[0], dtype=np.int64) * instance.node_count)[:, None]
    return (tails + offsets).ravel(), (heads + offsets).ravel()


def mask_is_acyclic_batch(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Batch twin of ``mask_is_acyclic``: one bool per mask, Kahn peel in bulk.

    Every peel round removes all current zero-indegree nodes of *every* lane
    and decrements their successors with a single ``bincount`` — at most
    ``n`` rounds regardless of batch width.
    """
    B = int(masks.shape[0])
    n = instance.node_count
    if B == 0:
        return np.zeros(0, dtype=bool)
    if instance.edge_count == 0:
        return np.ones(B, dtype=bool)
    tail_slot, head_slot = _oriented_slots(instance, masks)
    indegree = np.bincount(head_slot, minlength=B * n)
    removed = np.zeros(B * n, dtype=bool)
    for _ in range(n):
        newly = (indegree == 0) & ~removed
        if not newly.any():
            break
        removed |= newly
        out_edges = newly[tail_slot]
        if out_edges.any():
            indegree = indegree - np.bincount(head_slot[out_edges], minlength=B * n)
    return removed.reshape(B, n).all(axis=1)


def mask_is_destination_oriented_batch(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Batch twin of ``mask_is_destination_oriented``: reverse-reachability fixpoint."""
    B = int(masks.shape[0])
    n = instance.node_count
    if B == 0:
        return np.zeros(0, dtype=bool)
    reached = np.zeros(B * n, dtype=bool)
    reached[np.arange(B, dtype=np.int64) * n + instance._dest_id] = True
    if instance.edge_count:
        tail_slot, head_slot = _oriented_slots(instance, masks)
        for _ in range(n):
            grow = reached[head_slot] & ~reached[tail_slot]
            if not grow.any():
                break
            reached[tail_slot[grow]] = True
    return reached.reshape(B, n).all(axis=1)


# ----------------------------------------------------------------------
# batch expansion
# ----------------------------------------------------------------------
class BatchExpansion:
    """One whole-frontier expansion, in exact scalar generation order.

    ``successors[k]`` is the ``k``-th successor signature the scalar BFS
    would have generated from this frontier, ``parents[k]`` the frontier
    index it came from and ``tokens[k]`` its actor set as a node-id bitmask
    (:func:`decode_token` recovers the scalar tuple).  ``sources[k]`` is the
    certificate bit: every actor of ``tokens[k]`` is a source in
    ``successors[k]``.  ``quiescent`` holds the frontier indices with no
    enabled action, ascending.
    """

    __slots__ = ("successors", "parents", "tokens", "sources", "quiescent")

    def __init__(self, successors, parents, tokens, sources, quiescent):
        self.successors = successors
        self.parents = parents
        self.tokens = tokens
        self.sources = sources
        self.quiescent = quiescent

    def __len__(self) -> int:
        return int(self.successors.shape[0])


class VectorExpander:
    """Batch twin of one scalar :class:`SignatureExpander`.

    Holds the scalar kernel for everything that stays per-state (state
    re-materialisation, trace replay) and numpy columns for everything that
    runs per-frontier.
    """

    def __init__(self, scalar: SignatureExpander):
        self.scalar = scalar
        self.instance: LinkReversalInstance = scalar.instance
        cand = scalar._sink_candidates
        self._cand = cand
        self._inc_of = tuple(np.uint64(scalar._inc[i]) for i in cand)
        self._tail_of = tuple(np.uint64(scalar._tail[i]) for i in cand)
        self._inc_col = np.array(self._inc_of, dtype=np.uint64)[None, :]
        self._tail_col = np.array(self._tail_of, dtype=np.uint64)[None, :]
        self._token = tuple(np.uint64(1 << i) for i in cand)

    # -- per-candidate step columns (algorithm-specific) -----------------
    def _step_many(self, sigs: "np.ndarray", i: int) -> "np.ndarray":
        raise NotImplementedError

    def _sink_matrix(self, sigs: "np.ndarray") -> "np.ndarray":
        """``(frontier × candidates)`` bool matrix of the scalar sink test."""
        return ((sigs[:, None] ^ self._tail_col) & self._inc_col) == 0

    @staticmethod
    def _part(successors, lanes, token, inc, tail) -> Tuple:
        """One emitted column group: successors, parents, tokens, sources."""
        sources = ((successors ^ tail) & inc) == inc
        return successors, lanes, np.full(lanes.size, token), sources

    def _emit(self, sigs, smat, parts) -> None:
        """Append candidate-major successor columns (single-actor kernels)."""
        for ci, i in enumerate(self._cand):
            lanes = np.flatnonzero(smat[:, ci])
            if lanes.size == 0:
                continue
            parts.append(
                self._part(
                    self._step_many(sigs[lanes], i),
                    lanes,
                    self._token[ci],
                    self._inc_of[ci],
                    self._tail_of[ci],
                )
            )

    def expand(self, sigs: "np.ndarray") -> BatchExpansion:
        """Expand a whole frontier; see :class:`BatchExpansion` for the contract."""
        smat = self._sink_matrix(sigs)
        quiescent = np.flatnonzero(~smat.any(axis=1))
        parts: List[Tuple] = []
        self._emit(sigs, smat, parts)
        if not parts:
            empty = np.empty(0, dtype=np.uint64)
            return BatchExpansion(
                empty,
                np.empty(0, dtype=np.int64),
                empty.copy(),
                np.empty(0, dtype=bool),
                quiescent,
            )
        successors, parents, tokens, sources = (
            np.concatenate(column) for column in zip(*parts)
        )
        # candidate-major → frontier-major: a stable sort by parent recovers
        # the scalar per-state emission order (candidates were appended
        # ascending, matching sink_ids / combinations order)
        order = np.argsort(parents, kind="stable")
        return BatchExpansion(
            successors[order],
            parents[order],
            tokens[order],
            sources[order],
            quiescent,
        )


class _VectorFullReversal(VectorExpander):
    """FR: a sink's step XORs its incident-edge column."""

    def __init__(self, scalar: FullReversalExpander):
        super().__init__(scalar)
        self._inc_by_id = dict(zip(self._cand, self._inc_of))

    def _step_many(self, sigs, i):
        return sigs ^ self._inc_by_id[i]


class _VectorListKernel(VectorExpander):
    """PR/OneStepPR: flip/bookkeeping masks gathered from per-node row tables.

    Each candidate's table is filled by the *scalar* kernel's
    ``_compile_step`` over all ``2^degree`` rows, so vector and scalar steps
    are equal by construction, not by re-derivation.
    """

    def __init__(self, scalar):
        super().__init__(scalar)
        self._row_shift = {}
        self._row_mask = {}
        self._row_clear = {}
        self._flip_tab = {}
        self._or_tab = {}
        for i in self._cand:
            degree = scalar.instance._degree[i]
            rows = 1 << degree
            flips = np.empty(rows, dtype=np.uint64)
            partners = np.empty(rows, dtype=np.uint64)
            for row in range(rows):
                flip, partner = scalar._compile_step(i, row)
                flips[row] = flip
                partners[row] = partner
            self._row_shift[i] = np.uint64(scalar._row_shift[i])
            self._row_mask[i] = np.uint64(scalar._row_mask[i])
            # scalar _row_clear is a negative Python int; re-derive the
            # unsigned 64-bit complement instead of casting it
            keep = (~(scalar._row_mask[i] << scalar._row_shift[i])) & ((1 << 64) - 1)
            self._row_clear[i] = np.uint64(keep)
            self._flip_tab[i] = flips
            self._or_tab[i] = partners

    def _step_many(self, sigs, i):
        rows = (sigs >> self._row_shift[i]) & self._row_mask[i]
        return (
            (sigs ^ self._flip_tab[i][rows]) | self._or_tab[i][rows]
        ) & self._row_clear[i]


class _VectorOneStepPR(_VectorListKernel):
    """OneStepPR: single-node actions only — the base single-actor emit."""


class _VectorPartialReversal(_VectorListKernel):
    """PR: every non-empty sink subset acts; frontiers grouped by sink word.

    States sharing a sink set share every subset's step composition, so each
    distinct subset costs ``|subset|`` vector steps per *group* rather than
    per state.
    """

    def __init__(self, scalar: PartialReversalExpander):
        super().__init__(scalar)
        self.single_actions_only = scalar.single_actions_only
        self._bit = tuple(np.uint64(1 << ci) for ci in range(len(self._cand)))

    def _emit(self, sigs, smat, parts):
        if self.single_actions_only:
            super()._emit(sigs, smat, parts)
            return
        word = np.zeros(sigs.shape[0], dtype=np.uint64)
        for ci in range(len(self._cand)):
            word |= np.where(smat[:, ci], self._bit[ci], np.uint64(0))
        uniq, inverse = np.unique(word, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(uniq.size + 1))
        # acting sinks are pairwise non-adjacent, so their incident masks
        # are disjoint and summing them is OR-ing them
        inc = self.scalar._inc
        tail = self.scalar._tail
        for g in range(uniq.size):
            w = int(uniq[g])
            if w == 0:
                continue
            lanes = order[bounds[g]:bounds[g + 1]]
            sinks = [self._cand[ci] for ci in range(len(self._cand)) if (w >> ci) & 1]
            base = sigs[lanes]
            for size in range(1, len(sinks) + 1):
                for subset in combinations(sinks, size):
                    current = base
                    for i in subset:
                        current = self._step_many(current, i)
                    parts.append(
                        self._part(
                            current,
                            lanes,
                            np.uint64(sum(1 << i for i in subset)),
                            np.uint64(sum(inc[i] for i in subset)),
                            np.uint64(sum(tail[i] for i in subset)),
                        )
                    )


class _VectorNewPR(VectorExpander):
    """NewPR: parity-selected flip columns plus packed counter arithmetic."""

    def __init__(self, scalar: NewPRExpander):
        super().__init__(scalar)
        self._shift = {i: np.uint64(scalar._shift[i]) for i in self._cand}
        self._even = {i: np.uint64(scalar._even_flip[i]) for i in self._cand}
        self._odd = {i: np.uint64(scalar._odd_flip[i]) for i in self._cand}
        self._bump = {i: np.uint64(1 << scalar._shift[i]) for i in self._cand}

    def _step_many(self, sigs, i):
        counts = (sigs >> self._shift[i]) & np.uint64(_COUNT_MASK)
        if (counts == np.uint64(_COUNT_MASK)).any():
            raise OverflowError(
                f"NewPR step counter of node id {i} exceeded {_COUNT_MASK}"
            )
        flip = np.where((counts & np.uint64(1)) == 0, self._even[i], self._odd[i])
        return (sigs ^ flip) + self._bump[i]


def compile_vector_expander(
    scalar: Optional[SignatureExpander],
) -> Optional[VectorExpander]:
    """Batch twin of a compiled scalar kernel, or ``None`` when out of range.

    The gate is the documented word-width fallback: signatures must pack into
    one ``uint64`` lane, node ids into the 64-bit action-token mask, and list
    kernels must keep their per-node step tables small
    (``degree <= {deg}``).  NewPR's ``E + {cb}·n`` bit layout therefore only
    vectorises on toy instances, by design.
    """
    if scalar is None:
        return None
    if scalar.signature_bits > 64 or scalar.instance.node_count > 64:
        return None
    if isinstance(scalar, (PartialReversalExpander, OneStepPRExpander)):
        degrees = [scalar.instance._degree[i] for i in scalar._sink_candidates]
        if degrees and max(degrees) > _MAX_TABLE_DEGREE:
            return None
        if isinstance(scalar, PartialReversalExpander):
            return _VectorPartialReversal(scalar)
        return _VectorOneStepPR(scalar)
    if isinstance(scalar, NewPRExpander):
        return _VectorNewPR(scalar)
    if isinstance(scalar, FullReversalExpander):
        return _VectorFullReversal(scalar)
    return None


if compile_vector_expander.__doc__:  # keep the gate's docstring numbers honest
    compile_vector_expander.__doc__ = compile_vector_expander.__doc__.format(
        deg=_MAX_TABLE_DEGREE, cb=_COUNT_BITS
    )
