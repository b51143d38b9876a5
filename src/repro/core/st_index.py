"""The Spatio-Temporal Index (§3.2.1).

Three components, exactly as Fig. 3.2 draws them:

* **Temporal index** — a B+-tree over Δt-granular time slots of the day;
* **Spatial index** — one R-tree over the (static) re-segmented road
  network, shared by every temporal leaf;
* **Time lists** — for each (road segment, time slot), a disk-resident list
  of per-date ``(trajectory ID, visit second)`` pairs for the trajectories
  that traversed the segment in that slot.  The two levels of temporal
  information (time-of-day slot and *date*) are what make Prob-reachable
  computation cheap: one record read yields every day's trajectory IDs for
  a segment-slot, and Eq. 3.1 only needs set intersections from there.
  The per-visit seconds additionally give windows sub-slot precision, so a
  query window that starts or ends mid-slot filters the boundary slots
  exactly instead of rounding out to whole slots.

Time-list payloads live on the :class:`~repro.storage.disk.SimulatedDisk`;
every access is charged through a buffer pool, which is the cost the query
algorithms compete on.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.network.model import RoadNetwork
from repro.spatial.btree import BPlusTree
from repro.spatial.geometry import Point
from repro.spatial.rtree import RTree
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import SerializationError, encode_append_delta
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase


def encode_time_list(per_date: dict[int, list[tuple[int, int]]]) -> bytes:
    """Serialize ``date -> [(trajectory id, visit second)]`` for one entry.

    Flat uint32 layout: ``[num_dates, (date, count, (id, second)*count)*]``.
    Visit seconds (whole seconds since midnight) give the time lists
    sub-slot precision, so query windows that start or end mid-slot can be
    filtered exactly instead of rounding out to whole slots.
    """
    values: list[int] = [len(per_date)]
    for date in sorted(per_date):
        visits = sorted(per_date[date])
        values.append(date)
        values.append(len(visits))
        for trajectory_id, second in visits:
            values.append(trajectory_id)
            values.append(second)
    return struct.pack(f"<{len(values)}I", *values)


def decode_time_list(payload: bytes) -> dict[int, list[tuple[int, int]]]:
    """Inverse of :func:`encode_time_list`.

    Decoded on every (charged) time-list read in the TBS/ES hot path, so
    the payload is converted in one C pass (``frombuffer`` + ``tolist``)
    and each date's visit pairs are built by zipping list slices instead
    of indexing element-by-element.
    """
    if len(payload) % 4 != 0:
        raise SerializationError("time list payload not uint32-aligned")
    values = np.frombuffer(payload, dtype="<u4").tolist()
    total = len(values)
    if total == 0:
        raise SerializationError("truncated time list header")
    num_dates = values[0]
    per_date: dict[int, list[tuple[int, int]]] = {}
    offset = 1
    for _ in range(num_dates):
        if offset + 2 > total:
            raise SerializationError("truncated time list header")
        date, count = values[offset], values[offset + 1]
        offset += 2
        end = offset + 2 * count
        if end > total:
            raise SerializationError("truncated time list ids")
        per_date[date] = list(
            zip(values[offset:end:2], values[offset + 1:end:2])
        )
        offset = end
    if offset != total:
        raise SerializationError("trailing values in time list payload")
    return per_date


#: Bit position of the date in a packed visit key: ``(date << 32) | id``.
#: Trajectory ids are stored as uint32 so they fit the low half exactly;
#: dates are day indices (a dataset spans tens to hundreds of days), far
#: below the 2**31 bound that keeps packed keys inside int64.
KEY_DATE_SHIFT = 32
KEY_ID_MASK = (1 << KEY_DATE_SHIFT) - 1

_EMPTY_KEYS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class ColumnarTimeList:
    """One decoded time-list record as flat visit columns.

    The columnar twin of :func:`decode_time_list`: instead of a
    ``date -> [(id, second)]`` dict of tuple lists, the record's visits
    become two slice-aligned arrays — the layout the Eq. 3.1 probability
    kernel consumes without any per-tuple Python work.

    Attributes:
        keys: ``int64`` packed ``(date << 32) | trajectory_id`` per visit,
            in stored (date-major, then id/second) order.
        seconds: ``int32`` visit seconds, aligned with ``keys``.

    Both arrays are read-only cached views shared between queries — never
    mutate them.
    """

    keys: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)
    seconds: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )

    @property
    def num_visits(self) -> int:
        return int(self.keys.size)


def decode_time_list_columns(payload: bytes) -> ColumnarTimeList:
    """Decode a time-list payload straight into visit columns.

    Shares the wire format (and the error conditions) of
    :func:`decode_time_list` but never materializes per-date tuple lists:
    each date's ``(id, second)`` block is strided out of one
    ``frombuffer`` view and packed into int64 keys in a handful of numpy
    ops, independent of the visit count.
    """
    if len(payload) % 4 != 0:
        raise SerializationError("time list payload not uint32-aligned")
    values = np.frombuffer(payload, dtype="<u4")
    total = int(values.size)
    if total == 0:
        raise SerializationError("truncated time list header")
    num_dates = int(values[0])
    key_parts: list[np.ndarray] = []
    second_parts: list[np.ndarray] = []
    offset = 1
    for _ in range(num_dates):
        if offset + 2 > total:
            raise SerializationError("truncated time list header")
        date, count = int(values[offset]), int(values[offset + 1])
        offset += 2
        end = offset + 2 * count
        if end > total:
            raise SerializationError("truncated time list ids")
        ids = values[offset:end:2].astype(np.int64)
        key_parts.append(ids + (date << KEY_DATE_SHIFT))
        second_parts.append(values[offset + 1:end:2].astype(np.int32))
        offset = end
    if offset != total:
        raise SerializationError("trailing values in time list payload")
    if not key_parts:
        return ColumnarTimeList()
    return ColumnarTimeList(
        keys=np.concatenate(key_parts),
        seconds=np.concatenate(second_parts),
    )


@dataclass
class STIndexStats:
    """Construction statistics, for documentation and sanity tests."""

    num_slots: int = 0
    num_entries: int = 0
    disk_pages: int = 0


class STIndex:
    """The ST-Index over a road network and a matched-trajectory database.

    Args:
        network: re-segmented road network.
        delta_t_s: slot width Δt in seconds (the index granularity of
            Table 4.2, there 1/5/10/20 minutes).
        disk: simulated disk to hold time-list payloads (a fresh private
            disk is created when omitted).
        buffer_pool_pages: LRU page cache capacity for reads.
        record_cache_size: decoded-record LRU capacity (0 disables).  The
            page store is append-only, so a decoded record can never go
            stale; the cache skips only the *decode* work — every access
            is still charged through the buffer pool, keeping the I/O
            accounting identical.
    """

    def __init__(
        self,
        network: RoadNetwork,
        delta_t_s: int,
        disk: SimulatedDisk | None = None,
        buffer_pool_pages: int = 512,
        record_cache_size: int = 4096,
    ) -> None:
        if delta_t_s <= 0 or delta_t_s > SECONDS_PER_DAY:
            raise ValueError(f"bad slot width {delta_t_s}")
        self.network = network
        self.delta_t_s = delta_t_s
        self.num_slots = -(-SECONDS_PER_DAY // delta_t_s)  # ceil division
        self.disk = disk if disk is not None else SimulatedDisk()
        self._store = PageStore(self.disk)
        self.pool = BufferPool(self.disk, capacity=buffer_pool_pages)
        # Temporal index: slot start seconds -> slot id, as a B+-tree.
        self._temporal = BPlusTree(order=64)
        for slot in range(self.num_slots):
            self._temporal.insert(slot * delta_t_s, slot)
        # Spatial index: one shared R-tree over segment MBRs.
        self._rtree = RTree.bulk_load(
            [(seg.bbox, seg.segment_id) for seg in network.segments()]
        )
        # Time-list directory: (segment, slot) -> chain of record
        # pointers.  The bulk build writes one record per entry; appending
        # later days adds records to the chain (merged at read time), so
        # new data never forces an index rebuild.
        self._directory: dict[tuple[int, int], list[RecordPointer]] = {}
        self._built = False
        self.record_cache_size = record_cache_size
        self._decoded_records: OrderedDict[  # guarded_by: _record_lock
            RecordPointer, dict[int, list[tuple[int, int]]]
        ] = OrderedDict()
        self._columnar_records: OrderedDict[  # guarded_by: _record_lock
            RecordPointer, ColumnarTimeList
        ] = OrderedDict()
        # Window-gather memo: (segment, plan) -> the filtered key array
        # plus the record pointers whose pages the gather touched.  A hit
        # *replays the charges* (every page access goes back through the
        # buffer pool) and only skips the decode/filter/concat work, so
        # the I/O accounting is identical to recomputing — the same
        # contract as the decoded-record LRUs.  Cleared when appends
        # extend a directory chain.
        self._window_gathers: OrderedDict[  # guarded_by: _record_lock
            tuple[int, tuple],
            tuple[np.ndarray, tuple[RecordPointer, ...], tuple[int, ...]],
        ] = OrderedDict()
        # Bumped (under _record_lock) whenever appends grow a directory
        # chain; a gather that started before the bump must not insert
        # its pre-append entry into the memo after the clear.
        self._data_epoch = 0  # guarded_by: _record_lock
        self._window_plans: OrderedDict[  # guarded_by: _record_lock
            tuple[float, float], tuple[tuple[int, bool, float, float], ...]
        ] = OrderedDict()
        self._record_lock = threading.Lock()
        self.stats = STIndexStats(num_slots=self.num_slots)

    # -- construction ----------------------------------------------------------

    @classmethod
    def restore(
        cls,
        network: RoadNetwork,
        delta_t_s: int,
        disk: SimulatedDisk,
        directory: dict[tuple[int, int], list[RecordPointer]],
        buffer_pool_pages: int = 512,
        record_cache_size: int = 4096,
    ) -> "STIndex":
        """Rebuild a built index from persisted state (no re-indexing).

        ``disk`` carries the time-list pages (e.g. a reopened
        :class:`~repro.storage.backends.FileBackedDisk`) and
        ``directory`` the extent pointers into them — the layout
        :func:`repro.io.persist.save_store` round-trips.  Appends keep
        working: the restored store opens a fresh tail page after the
        persisted extents.
        """
        index = cls(
            network,
            delta_t_s,
            disk=disk,
            buffer_pool_pages=buffer_pool_pages,
            record_cache_size=record_cache_size,
        )
        index._directory = {
            key: list(chain) for key, chain in directory.items()
        }
        index._built = True
        index.stats.num_entries = len(index._directory)
        index.stats.disk_pages = disk.num_pages
        return index

    def export_directory(
        self, segment_ids: "set[int] | None" = None
    ) -> dict[tuple[int, int], list[RecordPointer]]:
        """Copy the time-list directory, optionally restricted to segments.

        Flushes the store's tail first, so every returned pointer refers
        to committed pages; the copy is :meth:`restore`-compatible.  This
        is the shard-slice export (:mod:`repro.serving`): a shard keeps
        the chains of its owned + halo segments, with the original extent
        pointers intact.
        """
        self._store.flush()
        if segment_ids is None:
            return {key: list(chain) for key, chain in self._directory.items()}
        keep = set(segment_ids)
        return {
            key: list(chain)
            for key, chain in self._directory.items()
            if key[0] in keep
        }

    def build(self, database: TrajectoryDatabase) -> None:
        """Bulk-build the time lists from a matched-trajectory database.

        One vectorised pass: every (segment, slot, date, trajectory) visit
        tuple is concatenated, lexicographically sorted, grouped by
        (segment, slot), and each group is serialized as one disk record.
        """
        if self._built:
            raise RuntimeError("ST-Index already built")
        seg_parts, slot_parts, date_parts = [], [], []
        tid_parts, time_parts = [], []
        for trajectory_id, date, segments, times in database.iter_compact():
            n = len(segments)
            if n == 0:
                continue
            seconds = np.minimum(times, SECONDS_PER_DAY - 1).astype(np.int64)
            seg_parts.append(segments.astype(np.int64))
            slot_parts.append(seconds // self.delta_t_s)
            date_parts.append(np.full(n, date, dtype=np.int64))
            tid_parts.append(np.full(n, trajectory_id, dtype=np.int64))
            time_parts.append(seconds)
        if seg_parts:
            segments = np.concatenate(seg_parts)
            slots = np.concatenate(slot_parts)
            dates = np.concatenate(date_parts)
            tids = np.concatenate(tid_parts)
            seconds = np.concatenate(time_parts)
            order = np.lexsort((seconds, tids, dates, slots, segments))
            segments, slots = segments[order], slots[order]
            dates, tids = dates[order], tids[order]
            seconds = seconds[order]
            group_keys = segments * self.num_slots + slots
            _, starts = np.unique(group_keys, return_index=True)
            boundaries = np.append(starts, len(group_keys))
            for i in range(len(starts)):
                lo, hi = boundaries[i], boundaries[i + 1]
                segment_id = int(segments[lo])
                slot = int(slots[lo])
                per_date: dict[int, list[tuple[int, int]]] = {}
                group_dates = dates[lo:hi]
                group_tids = tids[lo:hi]
                group_seconds = seconds[lo:hi]
                date_starts = np.unique(group_dates, return_index=True)[1]
                date_bounds = np.append(date_starts, hi - lo)
                for j in range(len(date_starts)):
                    a, b = date_bounds[j], date_bounds[j + 1]
                    visits = sorted(
                        set(
                            zip(
                                group_tids[a:b].tolist(),
                                group_seconds[a:b].tolist(),
                            )
                        )
                    )
                    per_date[int(group_dates[a])] = visits
                payload = encode_time_list(per_date)
                self._directory[(segment_id, slot)] = [
                    self._store.append(payload)
                ]
            # Group commit: the tail page flushes once here instead of on
            # every record append, so building charges ~one page_write per
            # page instead of one per record.
            self._store.flush()
        self._built = True
        self.stats.num_entries = len(self._directory)
        self.stats.disk_pages = self.disk.num_pages

    def append_trajectories(self, trajectories) -> int:
        """Incrementally index additional matched trajectories.

        New days of data arrive continuously in a deployed system; instead
        of rebuilding, each affected (segment, slot) entry gains one more
        record in its chain, merged with the existing ones at read time.
        Returns the number of entries touched.

        Args:
            trajectories: iterable of
                :class:`~repro.trajectory.model.MatchedTrajectory`.
        """
        if not self._built:
            raise RuntimeError("build the ST-Index before appending")
        pending: dict[tuple[int, int], dict[int, set[tuple[int, int]]]] = {}
        for trajectory in trajectories:
            date = trajectory.date
            trajectory_id = trajectory.trajectory_id
            for visit in trajectory.visits:
                slot = self.slot_of(visit.time_s)
                second = int(min(max(0.0, visit.time_s), SECONDS_PER_DAY - 1))
                per_date = pending.setdefault((visit.segment_id, slot), {})
                per_date.setdefault(date, set()).add((trajectory_id, second))
        delta: list[tuple[int, int, int, int, int, int]] = []
        for key in sorted(pending):
            per_date = {d: sorted(visits) for d, visits in pending[key].items()}
            pointer = self._store.append(encode_time_list(per_date))
            self._directory.setdefault(key, []).append(pointer)
            delta.append(
                (
                    key[0],
                    key[1],
                    pointer.first_page,
                    pointer.num_pages,
                    pointer.offset,
                    pointer.length,
                )
            )
        self._store.flush()
        # Durability barrier: on a durable backend this journals every
        # page the append touched plus the directory delta, so the new
        # visits survive a crash without a snapshot rewrite.  On the
        # in-RAM backend it is a no-op.
        self.disk.commit(meta=encode_append_delta(self.delta_t_s, delta))
        # (Tail-page cache coherence is handled by the disk's write-through
        # invalidation of attached pools.)  The window-gather memo is keyed
        # by segment, not pointer, so grown chains must invalidate it; the
        # pointer-keyed decoded-record LRUs stay valid (records are
        # append-only and never mutate).
        with self._record_lock:
            self._window_gathers.clear()
            self._data_epoch += 1
        self.stats.num_entries = len(self._directory)
        self.stats.disk_pages = self.disk.num_pages
        return len(pending)

    # -- temporal lookups ---------------------------------------------------------

    def slot_of(self, time_s: float) -> int:
        """The slot containing ``time_s`` (clamped into the day)."""
        t = min(max(0.0, time_s), SECONDS_PER_DAY - 1)
        found = self._temporal.floor(t)
        assert found is not None, "temporal index must cover the whole day"
        return found[1]

    def _window_parts(
        self, start_s: float, end_s: float
    ) -> list[tuple[float, float]]:
        """``[start_s, end_s)`` as within-day parts, split at midnight.

        Time-of-day is cyclic: a window that runs past midnight continues
        in the early slots of the day (the same wrap-around the Con-Index
        slot hops use) instead of silently truncating at
        ``SECONDS_PER_DAY``.  A window spanning a full day or more covers
        every slot.
        """
        span = end_s - start_s
        if span <= 0:
            return []
        if span >= SECONDS_PER_DAY:
            return [(0.0, float(SECONDS_PER_DAY))]
        start = start_s % SECONDS_PER_DAY
        end = start + span
        if end <= SECONDS_PER_DAY:
            return [(start, end)]
        return [(start, float(SECONDS_PER_DAY)), (0.0, end - SECONDS_PER_DAY)]

    def _slots_in_part(self, start_s: float, end_s: float) -> list[int]:
        first_start = self.slot_of(start_s) * self.delta_t_s
        return [
            slot
            for _, slot in self._temporal.range(first_start, end_s - 1e-9)
        ]

    def slots_in_window(self, start_s: float, end_s: float) -> list[int]:
        """Slots overlapping ``[start_s, end_s)`` via B+-tree range scans.

        Windows crossing midnight are split at the day boundary and the
        wrapped part's slots follow the pre-midnight ones, so a late-night
        query window yields e.g. ``[287, 0, 1]`` instead of clamping.
        Each overlapped slot appears once even when the wrapped part
        re-enters the slot containing the window start.
        """
        slots: list[int] = []
        seen: set[int] = set()
        for lo, hi in self._window_parts(start_s, end_s):
            for slot in self._slots_in_part(lo, hi):
                if slot not in seen:
                    seen.add(slot)
                    slots.append(slot)
        return slots

    # -- spatial lookups -------------------------------------------------------------

    def find_start_segment(self, location: Point) -> int:
        """Map a query location ``s`` to its road segment ``r0`` (Fig. 3.4).

        Best-first R-tree nearest-neighbour with exact point-to-polyline
        distances.  Exact ties (the twin of a two-way road shares its
        polyline; a location on an intersection touches every incident
        segment) resolve to the smallest segment id, so the answer is a
        pure function of the geometry — independent of R-tree structure,
        which is what keeps a shard's sub-network lookup (see
        :mod:`repro.serving`) consistent with the full network's.
        """

        def exact(p: Point, sid: int) -> float:
            return self.network.segment(sid).distance_to_point(p)

        k = 2
        while True:
            matches = self._rtree.nearest(location, k=k, distance=exact)
            if not matches:
                raise ValueError("empty spatial index")
            distances = [exact(location, sid) for sid in matches]
            best = min(distances)
            # All ties with `best` are inside this result set when either
            # the tree is exhausted or the worst match is strictly farther.
            if len(matches) < k or distances[-1] > best:
                return min(
                    sid for sid, d in zip(matches, distances) if d == best
                )
            k *= 2

    @property
    def rtree(self) -> RTree:
        return self._rtree

    # -- time-list reads ----------------------------------------------------------------

    def time_entries(
        self, segment_id: int, slot: int, copy: bool = True
    ) -> dict[int, list[tuple[int, int]]]:
        """Read a (segment, slot) time list: ``date -> (id, second) visits``.

        Charged through the buffer pool; an absent entry (no trajectory ever
        hit the segment in the slot) is free, as the in-memory directory
        already proves absence.

        Mutability contract: with ``copy=True`` (the default) the caller
        owns the returned dict and its lists.  With ``copy=False`` a
        single-record entry is served as the memoized decoded record
        itself — a shared read-only view that internal read paths (the
        probability estimators, window filters) use to skip a fresh
        dict+list copy per access; callers taking a view must never
        mutate it.  Multi-record chains are merged fresh either way.
        """
        chain = self._directory.get((segment_id, slot))
        if chain is None:
            return {}
        if len(chain) == 1:
            # Bulk-built and per-append records are internally duplicate
            # free; only cross-record merges need the dedup below.
            decoded = self._read_record(chain[0])
            if not copy:
                return decoded
            return {date: list(visits) for date, visits in decoded.items()}
        merged: dict[int, set[tuple[int, int]]] = {}
        for pointer in chain:
            for date, visits in self._read_record(pointer).items():
                # Set-merge: a visit present in both the bulk record and an
                # appended record (same id, same second) must count once.
                merged.setdefault(date, set()).update(visits)
        return {date: sorted(visits) for date, visits in merged.items()}

    def _read_record(
        self, pointer: RecordPointer
    ) -> dict[int, list[tuple[int, int]]]:
        """One charged record read, with the decode memoized.

        The read always goes through the buffer pool (the paper's I/O
        accounting), but records are append-only and never mutate, so the
        decoded form is cached by pointer and served read-only — TBS/ES
        probability checks re-read the same handful of time lists for
        every candidate segment.  The LRU is shared by batch worker
        threads, so lookups and insert/evict run under a lock (the decode
        itself does not).
        """
        payload = self._store.read(pointer, pool=self.pool)
        if self.record_cache_size <= 0:
            return decode_time_list(payload)
        with self._record_lock:
            decoded = self._decoded_records.get(pointer)
            if decoded is not None:
                self._decoded_records.move_to_end(pointer)
                return decoded
        decoded = decode_time_list(payload)
        with self._record_lock:
            self._decoded_records[pointer] = decoded
            while len(self._decoded_records) > self.record_cache_size:
                self._decoded_records.popitem(last=False)
        return decoded

    def _read_record_columns(self, pointer: RecordPointer) -> ColumnarTimeList:
        """One charged record read decoded into visit columns (memoized).

        The charging is byte-for-byte identical to :meth:`_read_record`
        (the same ``PageStore.read`` through the same pool); only the
        decoded representation differs — flat packed-key/second arrays
        instead of a per-date dict — and gets its own pointer-keyed LRU.
        Served read-only: callers never mutate the cached arrays.
        """
        payload = self._store.read(pointer, pool=self.pool)
        if self.record_cache_size <= 0:
            return decode_time_list_columns(payload)
        with self._record_lock:
            decoded = self._columnar_records.get(pointer)
            if decoded is not None:
                self._columnar_records.move_to_end(pointer)
                return decoded
        decoded = decode_time_list_columns(payload)
        with self._record_lock:
            self._columnar_records[pointer] = decoded
            while len(self._columnar_records) > self.record_cache_size:
                self._columnar_records.popitem(last=False)
        return decoded

    def window_plan(
        self, start_s: float, end_s: float
    ) -> tuple[tuple[int, bool, float, float], ...]:
        """A window resolved to ``(slot, whole_slot, lo, hi)`` steps.

        Resolving ``[start_s, end_s)`` against the temporal B+-tree (the
        midnight split, the per-part slot range scans, the whole-vs-
        boundary classification) depends only on the window and Δt — not
        on any segment — so one query's estimator resolves it once and
        every candidate gather replays the memoized plan.  A small LRU
        keeps repeated query shapes free across estimators too.
        """
        key = (start_s, end_s)
        with self._record_lock:
            plan = self._window_plans.get(key)
            if plan is not None:
                self._window_plans.move_to_end(key)
                return plan
        steps: list[tuple[int, bool, float, float]] = []
        for lo, hi in self._window_parts(start_s, end_s):
            for slot in self._slots_in_part(lo, hi):
                slot_start = slot * self.delta_t_s
                whole_slot = (
                    lo <= slot_start and slot_start + self.delta_t_s <= hi
                )
                steps.append((slot, whole_slot, lo, hi))
        plan = tuple(steps)
        with self._record_lock:
            self._window_plans[key] = plan
            while len(self._window_plans) > 128:
                self._window_plans.popitem(last=False)
        return plan

    def window_keys_planned(
        self,
        segment_id: int,
        plan: tuple[tuple[int, bool, float, float], ...],
    ) -> np.ndarray:
        """Packed visit keys of a segment for a resolved window plan.

        Charges exactly the record reads of the dict-based
        :meth:`trajectories_in_window` path, in the same order (plan
        steps in window order, chain records in append order).  Visits
        may repeat across steps and chained records; membership callers
        are unaffected.
        """
        return self.gather_window_columns((segment_id,), plan)[0][0]

    @staticmethod
    def _assemble_window_keys(
        steps: list[tuple[RecordPointer, bool, float, float]],
        columns: dict[RecordPointer, ColumnarTimeList],
    ) -> np.ndarray:
        """Filter and concatenate one segment's decoded window records."""
        parts: list[np.ndarray] = []
        for pointer, whole_slot, lo, hi in steps:
            record = columns[pointer]
            if record.keys.size == 0:
                continue
            if whole_slot:
                parts.append(record.keys)
                continue
            mask = (record.seconds >= lo) & (record.seconds < hi)
            if mask.any():
                parts.append(record.keys[mask])
        if not parts:
            return _EMPTY_KEYS
        if len(parts) == 1:
            # Single whole-slot records dominate; avoid copying them.
            return parts[0]
        return np.concatenate(parts)

    def gather_window_columns(
        self,
        segment_ids,
        plan: tuple[tuple[int, bool, float, float], ...],
    ) -> tuple[list[np.ndarray], int, int]:
        """Batch window gather for a wave of segments (one charging pass).

        The wave-granular entry point behind every Eq. 3.1 gather: the
        page accesses of *all* requested segments' records are charged
        through one :meth:`~repro.storage.pagestore.BufferPool.get_pages`
        pass in exactly the order the per-segment scalar loop would read
        them (segment order, plan steps in window order, chain records in
        append order), so the buffer-pool and disk counters are identical
        to ``[window_keys_planned(s, plan) for s in segment_ids]`` — but
        the pool's lock shards are taken once per wave and segments whose
        filtered key array is already memoized skip the decode and filter
        work entirely (their page charges are still replayed).

        Returns:
            ``(keys, record_reads, page_reads)``: per-segment packed-key
            arrays aligned with ``segment_ids``, plus how many records
            and pages the gather charged (the ``batched_record_reads`` /
            ``prefetched_pages`` cost counters).
        """
        directory = self._directory
        cache_on = self.record_cache_size > 0
        results: list[np.ndarray | None] = []
        record_reads = 0
        page_ids: list[int] = []
        fresh_pointers: list[RecordPointer] = []
        # Per fresh segment: (result position, segment, filter steps,
        # and this segment's slice bounds within ``page_ids``).
        builds: list[
            tuple[
                int,
                int,
                list[tuple[RecordPointer, bool, float, float]],
                int,
                int,
            ]
        ] = []
        with self._record_lock:
            epoch = self._data_epoch
            gathers = self._window_gathers
            for segment_id in segment_ids:
                key = (segment_id, plan)
                entry = gathers.get(key) if cache_on else None
                if entry is not None:
                    gathers.move_to_end(key)
                    results.append(entry[0])
                    record_reads += len(entry[1])
                    page_ids.extend(entry[2])
                    continue
                steps: list[tuple[RecordPointer, bool, float, float]] = []
                pages_start = len(page_ids)
                for slot, whole_slot, lo, hi in plan:
                    chain = directory.get((segment_id, slot))
                    if chain is not None:
                        for pointer in chain:
                            steps.append((pointer, whole_slot, lo, hi))
                            fresh_pointers.append(pointer)
                            record_reads += 1
                            page_ids.extend(
                                range(
                                    pointer.first_page,
                                    pointer.first_page + pointer.num_pages,
                                )
                            )
                builds.append(
                    (len(results), segment_id, steps, pages_start, len(page_ids))
                )
                results.append(None)
        # One batched charge for the whole wave, in exactly the scalar
        # per-segment read order: ``page_ids`` interleaves the replayed
        # accesses of gather-cache hits with the pages of fresh pointers,
        # so the pool sees the same access sequence the per-segment loop
        # would produce.  The charged pages are pulled through the pool,
        # so the decode below never charges again.
        if fresh_pointers:
            self._store.ensure_committed(fresh_pointers)
        self.pool.get_pages(page_ids)
        if builds:
            needed: dict[RecordPointer, ColumnarTimeList | None] = {}
            missing: list[RecordPointer] = []
            with self._record_lock:
                columnar = self._columnar_records
                for _, _, steps, _, _ in builds:
                    for pointer, _, _, _ in steps:
                        if pointer in needed:
                            continue
                        record = columnar.get(pointer) if cache_on else None
                        if record is None:
                            missing.append(pointer)
                            needed[pointer] = None  # placeholder
                        else:
                            columnar.move_to_end(pointer)
                            needed[pointer] = record
            for pointer in missing:
                # Uncharged decode: the pages were charged (and pulled
                # through the pool) by the batched charge above, so the raw
                # extent read cannot double- or under-count.
                # repro-lint: disable=RL002
                needed[pointer] = decode_time_list_columns(
                    self.disk.extent_bytes(
                        pointer.first_page, pointer.offset, pointer.length
                    )
                )
            fresh: list[
                tuple[tuple[int, tuple], np.ndarray, tuple, tuple]
            ] = []
            for position, segment_id, steps, pages_start, pages_end in builds:
                keys = self._assemble_window_keys(steps, needed)
                results[position] = keys
                if cache_on:
                    fresh.append(
                        (
                            (segment_id, plan),
                            keys,
                            tuple(pointer for pointer, _, _, _ in steps),
                            tuple(page_ids[pages_start:pages_end]),
                        )
                    )
            if cache_on:
                with self._record_lock:
                    columnar = self._columnar_records
                    for pointer in missing:
                        columnar[pointer] = needed[pointer]
                    while len(columnar) > self.record_cache_size:
                        columnar.popitem(last=False)
                    if self._data_epoch == epoch:
                        # An append may have cleared the memo while this
                        # gather ran outside the lock; inserting the
                        # pre-append entry would resurrect stale data.
                        # (The pointer-keyed columnar records above stay
                        # valid either way — records never mutate.)
                        gathers = self._window_gathers
                        for key, keys, pointers, access_pages in fresh:
                            gathers[key] = (keys, pointers, access_pages)
                        while len(gathers) > self.record_cache_size:
                            gathers.popitem(last=False)
        return results, record_reads, len(page_ids)

    def window_keys(
        self, segment_id: int, start_s: float, end_s: float
    ) -> np.ndarray:
        """Packed ``(date << 32) | id`` visit keys within ``[start_s, end_s)``.

        The columnar twin of :meth:`trajectories_in_window`: slots fully
        inside the window contribute every stored visit, boundary slots
        are filtered by the per-visit seconds, and midnight-crossing
        windows are split at the day boundary.
        """
        return self.window_keys_planned(
            segment_id, self.window_plan(start_s, end_s)
        )

    def time_list(self, segment_id: int, slot: int) -> dict[int, set[int]]:
        """A (segment, slot) time list as ``date -> trajectory ids``."""
        return {
            date: {trajectory_id for trajectory_id, _ in visits}
            for date, visits in self.time_entries(segment_id, slot).items()
        }

    def trajectories_in_window(
        self, segment_id: int, start_s: float, end_s: float
    ) -> dict[int, set[int]]:
        """Per-date trajectory IDs passing a segment within ``[start_s, end_s)``.

        Slots fully inside the window contribute every stored ID; slots the
        window only partially overlaps are filtered by the per-visit seconds,
        so the window boundaries are exact rather than rounded out to whole
        Δt slots.  A window crossing midnight is split at the day boundary
        (time-of-day is cyclic) and both parts contribute.
        """
        merged: dict[int, set[int]] = {}
        for lo, hi in self._window_parts(start_s, end_s):
            for slot in self._slots_in_part(lo, hi):
                slot_start = slot * self.delta_t_s
                whole_slot = (
                    lo <= slot_start and slot_start + self.delta_t_s <= hi
                )
                entries = self.time_entries(segment_id, slot, copy=False)
                for date, visits in entries.items():
                    ids = {
                        trajectory_id
                        for trajectory_id, second in visits
                        if whole_slot or lo <= second < hi
                    }
                    if not ids:
                        continue
                    bucket = merged.get(date)
                    if bucket is None:
                        merged[date] = ids
                    else:
                        bucket |= ids
        return merged

    def has_entry(self, segment_id: int, slot: int) -> bool:
        return (segment_id, slot) in self._directory
