"""Frontier machinery for the exhaustive model checker.

The compiled signature kernels that used to live here moved to
:mod:`repro.kernels.signature` when the simulation engine started sharing
them (they are re-exported below, so every historical import path keeps
working).  What remains exploration-specific is the deduplication layer:

:class:`VisitedSet`
    The deduplication set over signatures, batch-first: a whole frontier is
    deduplicated per round with :meth:`add_many` (``np.unique`` + one
    ``searchsorted`` sweep per layer) instead of per-key probes.  Layers,
    cheapest first:

    * ``_memory`` — a plain Python set fed by the scalar :meth:`add`;
    * ``_segments`` — sorted ``uint64`` arrays fed by the batch API, merged
      when they pile up;
    * ``_runs`` — on-disk sorted runs written whenever the in-memory layers
      reach ``spill_threshold``.  Signatures that fit 8 bytes are written
      **delta-encoded with block fences** (absolute ``uint64`` fence per
      512-key block, per-block deltas in the narrowest unsigned dtype that
      fits) and probed through ``np.memmap`` — a batch probe gathers only
      the touched blocks, decodes them with one ``cumsum`` and answers the
      whole batch with a single ``searchsorted``.  Runs are compacted
      k-way into one whenever more than ``max_runs`` accumulate, keeping
      membership ``O(log runs · log n)`` worst case and ``O(1)`` amortised
      per batched key.  Wider signatures keep the legacy big-endian
      fixed-width format (scalar probes, no compaction).

    Layers are mutually disjoint by construction — a signature is only ever
    inserted after missing every layer — so :meth:`__len__` stays exact.

See the :mod:`repro.kernels.signature` docstring for the kernel encodings
and the twin-node symmetry-reduction soundness argument.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.kernels.signature import (  # noqa: F401 — historical import surface
    _COUNT_BITS,
    _COUNT_MASK,
    _TwinClass,
    FullReversalExpander,
    NewPRExpander,
    OneStepPRExpander,
    PartialReversalExpander,
    SignatureExpander,
    _ListKernelMixin,
    compile_expander,
    mask_directed_edges,
    mask_is_acyclic,
    mask_is_destination_oriented,
    shard_of,
    twin_node_classes,
)

__all__ = [
    "FullReversalExpander",
    "NewPRExpander",
    "OneStepPRExpander",
    "PartialReversalExpander",
    "SignatureExpander",
    "VisitedSet",
    "compile_expander",
    "mask_directed_edges",
    "mask_is_acyclic",
    "mask_is_destination_oriented",
    "shard_of",
    "twin_node_classes",
]

#: Batch-inserted segments are merged into one once this many accumulate, so
#: a membership probe never scans more than a handful of sorted arrays.
_MAX_SEGMENTS = 8


# ----------------------------------------------------------------------
# on-disk sorted runs
# ----------------------------------------------------------------------
class _DeltaRun:
    """One immutable sorted run of ``uint64`` keys, delta-encoded on disk.

    Layout (little-endian): a 24-byte header (magic, key count, block size,
    delta item size), one absolute ``uint64`` **fence** per block, then one
    delta per key in the narrowest unsigned dtype that fits the largest
    intra-block gap.  Each block's first delta is stored as 0 (the fence is
    the absolute value), so decoding a block is ``fence + cumsum(deltas)``.
    The file is mapped read-only; probes touch only the fence array and the
    blocks their keys land in.
    """

    MAGIC = b"VSD1"
    HEADER = 24
    BLOCK = 512

    __slots__ = ("path", "count", "block", "_fences", "_deltas")

    @classmethod
    def write(cls, path: Path, values: "np.ndarray") -> "_DeltaRun":
        """Write sorted unique ``uint64`` ``values`` as a new run file."""
        count = int(values.size)
        block = cls.BLOCK
        fences = values[::block].astype("<u8")
        deltas = np.zeros(count, dtype=np.uint64)
        if count > 1:
            deltas[1:] = values[1:] - values[:-1]
        deltas[::block] = 0
        largest = int(deltas.max()) if count else 0
        if largest < (1 << 8):
            delta_dtype = "<u1"
        elif largest < (1 << 16):
            delta_dtype = "<u2"
        elif largest < (1 << 32):
            delta_dtype = "<u4"
        else:
            delta_dtype = "<u8"
        item = np.dtype(delta_dtype).itemsize
        with path.open("wb") as handle:
            handle.write(
                (cls.MAGIC + struct.pack("<QIB", count, block, item)).ljust(
                    cls.HEADER, b"\0"
                )
            )
            handle.write(fences.tobytes())
            handle.write(deltas.astype(delta_dtype).tobytes())
        return cls(path)

    def __init__(self, path: Path):
        self.path = path
        with path.open("rb") as handle:
            header = handle.read(self.HEADER)
        if header[:4] != self.MAGIC:
            raise ValueError(f"{path} is not a visited-set delta run")
        count, block, item = struct.unpack_from("<QIB", header, 4)
        self.count = count
        self.block = block
        blocks = (count + block - 1) // block
        self._fences = np.memmap(
            path, dtype="<u8", mode="r", offset=self.HEADER, shape=(blocks,)
        )
        self._deltas = np.memmap(
            path,
            dtype=f"<u{item}",
            mode="r",
            offset=self.HEADER + 8 * blocks,
            shape=(count,),
        )

    def decode_range(self, first_block: int, last_block: int) -> "np.ndarray":
        """Absolute keys of blocks ``[first_block, last_block)``, in order."""
        start = first_block * self.block
        stop = min(last_block * self.block, self.count)
        packed = np.zeros((last_block - first_block) * self.block, dtype=np.uint64)
        packed[: stop - start] = self._deltas[start:stop]
        matrix = packed.reshape(last_block - first_block, self.block)
        fences = np.asarray(
            self._fences[first_block:last_block], dtype=np.uint64
        )
        values = fences[:, None] + np.cumsum(matrix, axis=1, dtype=np.uint64)
        return values.ravel()[: stop - start]

    def contains_many(self, queries: "np.ndarray") -> "np.ndarray":
        """Membership of sorted unique ``uint64`` ``queries``, vectorised.

        Gathers only the touched blocks; the zero-padding of a partial
        block replicates its last key (delta 0), so the flattened decode
        stays globally sorted and one ``searchsorted`` answers everything.
        """
        hit = np.zeros(queries.size, dtype=bool)
        fences = np.asarray(self._fences, dtype=np.uint64)
        position = np.searchsorted(fences, queries, side="right").astype(np.int64) - 1
        valid = position >= 0
        if not valid.any():
            return hit
        touched = np.unique(position[valid])
        width = self.block
        gather = touched[:, None] * width + np.arange(width, dtype=np.int64)[None, :]
        in_range = gather < self.count
        deltas = np.zeros(gather.shape, dtype=np.uint64)
        deltas[in_range] = self._deltas[gather[in_range]]
        values = fences[touched][:, None] + np.cumsum(deltas, axis=1, dtype=np.uint64)
        flat = values.ravel()
        wanted = queries[valid]
        slot = np.minimum(np.searchsorted(flat, wanted), flat.size - 1)
        hit[valid] = flat[slot] == wanted
        return hit

    def contains_scalar(self, sig: int) -> bool:
        return bool(self.contains_many(np.array([sig], dtype=np.uint64))[0])

    def iter_chunks(self, chunk_blocks: int = 256) -> Iterator["np.ndarray"]:
        """The run's keys as bounded decoded chunks (streaming iteration)."""
        blocks = int(self._fences.shape[0])
        for first in range(0, blocks, chunk_blocks):
            yield self.decode_range(first, min(first + chunk_blocks, blocks))

    def close(self) -> None:
        for attribute in ("_fences", "_deltas"):
            mapped = getattr(getattr(self, attribute), "_mmap", None)
            if mapped is not None:
                mapped.close()
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - best-effort scratch cleanup
            pass


class _ByteRun:
    """Legacy fixed-width big-endian run for signatures wider than 8 bytes.

    Byte order equals numeric order, so membership is a per-key binary
    search over the file.  Iteration streams bounded chunks rather than
    materialising the whole run.
    """

    _CHUNK_RECORDS = 4096

    __slots__ = ("path", "count", "width", "_handle")

    @classmethod
    def write(cls, path: Path, ordered: List[int], width: int) -> "_ByteRun":
        with path.open("wb") as handle:
            for sig in ordered:
                handle.write(sig.to_bytes(width, "big"))
        return cls(path, len(ordered), width)

    def __init__(self, path: Path, count: int, width: int):
        self.path = path
        self.count = count
        self.width = width
        self._handle = path.open("rb")

    def contains_scalar(self, sig: int) -> bool:
        key = sig.to_bytes(self.width, "big")
        low, high = 0, self.count - 1
        while low <= high:
            mid = (low + high) // 2
            self._handle.seek(mid * self.width)
            record = self._handle.read(self.width)
            if record == key:
                return True
            if record < key:
                low = mid + 1
            else:
                high = mid - 1
        return False

    def contains_many(self, queries) -> "np.ndarray":
        return np.fromiter(
            (self.contains_scalar(int(sig)) for sig in queries),
            dtype=bool,
            count=int(queries.size),
        )

    def iter_keys(self) -> Iterator[int]:
        position = 0
        while position < self.count:
            take = min(self._CHUNK_RECORDS, self.count - position)
            self._handle.seek(position * self.width)
            data = self._handle.read(take * self.width)
            for k in range(take):
                yield int.from_bytes(
                    data[k * self.width : (k + 1) * self.width], "big"
                )
            position += take

    def close(self) -> None:
        self._handle.close()
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - best-effort scratch cleanup
            pass


# ----------------------------------------------------------------------
# visited set with optional disk spill
# ----------------------------------------------------------------------
class VisitedSet:
    """Signature deduplication set, batch-first, with optional disk spill.

    Without a ``spill_threshold`` this is an in-memory set (plus sorted
    batch segments).  With one, the in-memory layers are flushed to a
    sorted run file every time they reach the threshold — delta-encoded
    and mmap-probed for 8-byte keys, legacy fixed-width otherwise — and
    runs are compacted into one once more than ``max_runs`` accumulate.
    See the module docstring for the layer/probe design.
    """

    def __init__(
        self,
        key_bytes: Optional[int] = None,
        spill_threshold: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_runs: Optional[int] = 8,
    ):
        if spill_threshold is not None:
            if spill_threshold < 1:
                raise ValueError("spill_threshold must be positive")
            if key_bytes is None:
                raise ValueError(
                    "disk spill needs a fixed signature width (key_bytes); "
                    "the generic exploration path cannot spill"
                )
        if max_runs is not None and max_runs < 1:
            raise ValueError("max_runs must be positive")
        self._memory: set = set()
        self._segments: List = []  # sorted unique uint64 arrays
        self._segment_total = 0
        self._key_bytes = key_bytes
        self._threshold = spill_threshold
        self._max_runs = max_runs
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._created_dir: Optional[Path] = None  # auto temp dir, removed on close
        self._runs: List = []  # _DeltaRun | _ByteRun
        self._spilled_total = 0
        self._run_seq = 0
        self.spill_count = 0
        self.compaction_count = 0
        self._delta_format = key_bytes is None or key_bytes <= 8

    # -- scalar membership ----------------------------------------------
    def add(self, sig) -> bool:
        """Insert ``sig``; returns ``True`` iff it was not present before."""
        if sig in self._memory:
            return False
        if self._segments and self._in_segments(sig):
            return False
        if self._runs and self._in_runs(sig):
            return False
        self._memory.add(sig)
        self._maybe_spill()
        return True

    def __contains__(self, sig) -> bool:
        return (
            sig in self._memory
            or (bool(self._segments) and self._in_segments(sig))
            or (bool(self._runs) and self._in_runs(sig))
        )

    def __len__(self) -> int:
        return len(self._memory) + self._segment_total + self._spilled_total

    def __iter__(self) -> Iterator:
        yield from self._memory
        for segment in self._segments:
            for value in segment:
                yield int(value)
        for run in self._runs:
            if isinstance(run, _ByteRun):
                yield from run.iter_keys()
            else:
                for chunk in run.iter_chunks():
                    for value in chunk:
                        yield int(value)

    def _in_segments(self, sig) -> bool:
        key = np.uint64(sig)
        for segment in self._segments:
            slot = int(np.searchsorted(segment, key))
            if slot < segment.size and segment[slot] == key:
                return True
        return False

    def _in_runs(self, sig) -> bool:
        return any(run.contains_scalar(sig) for run in self._runs)

    # -- batch membership -----------------------------------------------
    def contains_many(self, values: "np.ndarray") -> "np.ndarray":
        """Membership mask of **sorted unique** ``uint64`` ``values``."""
        hit = np.zeros(values.size, dtype=bool)
        if values.size == 0:
            return hit
        if self._memory:
            memory = np.fromiter(
                self._memory, dtype=np.uint64, count=len(self._memory)
            )
            memory.sort()
            slot = np.minimum(np.searchsorted(memory, values), memory.size - 1)
            hit |= memory[slot] == values
        for segment in self._segments:
            slot = np.minimum(np.searchsorted(segment, values), segment.size - 1)
            hit |= segment[slot] == values
        for run in self._runs:
            unresolved = ~hit
            if not unresolved.any():
                break
            hit[unresolved] = run.contains_many(values[unresolved])
        return hit

    def update_sorted(self, values: "np.ndarray") -> None:
        """Insert sorted unique ``uint64`` ``values`` known to be absent."""
        if values.size == 0:
            return
        self._segments.append(values)
        self._segment_total += int(values.size)
        if len(self._segments) >= _MAX_SEGMENTS:
            merged = np.sort(np.concatenate(self._segments))
            self._segments = [merged]
        self._maybe_spill()

    def add_many(self, values: "np.ndarray") -> "np.ndarray":
        """Deduplicate and insert a batch; mask of first-time-new positions.

        The returned bool array is aligned with ``values``: ``True`` exactly
        where the scalar ``add`` would have returned ``True`` (the *first*
        occurrence of a signature not previously present).
        """
        values = np.ascontiguousarray(values, dtype=np.uint64)
        unique, first_index, inverse = np.unique(
            values, return_index=True, return_inverse=True
        )
        known = self.contains_many(unique)
        self.update_sorted(unique[~known])
        first = np.zeros(values.size, dtype=bool)
        first[first_index] = True
        return (~known)[inverse] & first

    # -- spill plumbing -------------------------------------------------
    @property
    def spilled_runs(self) -> int:
        """Number of on-disk runs currently live."""
        return len(self._runs)

    @property
    def stats(self) -> dict:
        """Lifetime spill/compaction counters (telemetry surface)."""
        return {
            "spills": self.spill_count,
            "compactions": self.compaction_count,
            "runs": len(self._runs),
            "spilled_signatures": self._spilled_total,
        }

    def _maybe_spill(self) -> None:
        if self._threshold is None:
            return
        if len(self._memory) + self._segment_total < self._threshold:
            return
        self._spill()

    def _next_run_path(self) -> Path:
        if self._spill_dir is None:
            import tempfile

            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-visited-"))
            self._created_dir = self._spill_dir
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"run-{self._run_seq:05d}.bin"
        self._run_seq += 1
        return path

    def _spill(self) -> None:
        path = self._next_run_path()
        if self._delta_format:
            parts = list(self._segments)
            if self._memory:
                parts.append(
                    np.fromiter(
                        self._memory, dtype=np.uint64, count=len(self._memory)
                    )
                )
            values = np.sort(
                np.concatenate(parts) if len(parts) > 1 else parts[0]
            )
            run = _DeltaRun.write(path, values)
            count = int(values.size)
        else:
            ordered = sorted(
                set(self._memory).union(
                    int(value) for segment in self._segments for value in segment
                )
            )
            run = _ByteRun.write(path, ordered, self._key_bytes)
            count = len(ordered)
        self._runs.append(run)
        self._spilled_total += count
        self.spill_count += 1
        self._memory.clear()
        self._segments.clear()
        self._segment_total = 0
        if self._max_runs is not None and len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self) -> None:
        """Merge every delta run into one (runs are disjoint, so concat+sort)."""
        if any(isinstance(run, _ByteRun) for run in self._runs):
            return  # legacy wide keys: no vectorised merge, keep runs as-is
        chunks = [chunk for run in self._runs for chunk in run.iter_chunks()]
        values = np.sort(np.concatenate(chunks))
        path = self._next_run_path()
        merged = _DeltaRun.write(path, values)
        for run in self._runs:
            run.close()
        self._runs = [merged]
        self.compaction_count += 1

    def close(self) -> None:
        """Drop every layer and delete the scratch run files.

        The runs are useless without the live maps/handles, so they are
        removed; an auto-created temp directory is removed with them (a
        caller-chosen ``spill_dir`` itself is left in place).  After
        ``close()`` the set is empty — ``len()`` is 0 and iteration yields
        nothing — rather than reporting a stale in-memory residue.
        """
        for run in self._runs:
            run.close()
        self._runs.clear()
        self._spilled_total = 0
        self._memory.clear()
        self._segments.clear()
        self._segment_total = 0
        if self._created_dir is not None:
            import shutil

            shutil.rmtree(self._created_dir, ignore_errors=True)
            self._created_dir = None
