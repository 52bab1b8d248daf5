"""Columnar batch-ticked worm propagation engine.

A drop-in replacement for :class:`repro.worm.simulation.WormSimulation`
built for million-node populations.  Three structural changes:

* **Columnar state** — worm states are small ints in a byte array
  (:data:`repro.worm.model.STATE_TO_ENUM` converts at the public API
  boundary), vulnerability and idleness are packed byte masks, and
  per-node knowledge queues live in a single shared ``array('i')``
  arena addressed by ``(start, head, end)`` cursors instead of one
  ``deque`` + ``set`` per node.
* **Batch ticks** — instead of one kernel event per scan, the engine
  keeps its own buckets of logical events keyed by exact fire time and
  schedules *one* cancellable kernel event (the tick) at the earliest
  bucket.  Each tick drains every bucket due within one
  ``scan_interval`` window, bounded by the kernel's
  :attr:`~repro.sim.engine.Simulator.horizon` and by the next foreign
  kernel event (:meth:`~repro.sim.engine.Simulator.peek_next_time`), so
  harvester injections still interleave exactly as they would with
  per-event scheduling and can wake idle scanners immediately.
* **Vectorised drains** — large scan/completion/activation cohorts go
  through numpy gather/scatter over zero-copy ``frombuffer`` views of
  the byte columns and cursor arrays, and knowledge extraction is
  batched across the activation window: every infected node waits
  ``activation_delay`` in its bucket, so one ``targets_of_many`` call
  covers the draining cohort and the pending activation buckets
  behind it (:meth:`ColumnarWormSimulation._extract_window`).

Equivalence with the legacy engine is bit-for-bit on the
:class:`~repro.worm.model.InfectionCurve` (asserted by
``tests/test_worm_columnar_equivalence.py``).  The argument, in brief:
the legacy kernel fires tied events in scheduling-seq order, which for
the three worm event kinds means descending scheduling lag
(activations scheduled ``activation_delay`` ago, completions
``infect_time`` ago, scans ``scan_interval`` ago).  Within one kind at
one timestamp events commute (scans perform no state writes,
completions for the same target collapse to one infection at the same
time/count, activations touch disjoint state), so only the
completion-vs-scan order is semantically visible — and bucketing by
the *exact float* fire time reproduces the legacy cohort structure,
because tied legacy events are precisely those whose float sums
collide.  The one caveat: when ``infect_time == scan_interval`` the
legacy engine interleaves the two kinds by seq, which a batch drain
cannot reproduce; the default parameters (0.1 s vs 0.01 s) and every
scenario in the repo keep them distinct.

Tracing (:mod:`repro.obs`): when a trace recorder is active the scan
and completion drains take their scalar paths unconditionally — the
vectorised paths reorder within a cohort (``np.unique``, mask
partitioning), and the scalar order is exactly the legacy engine's
firing order, which is what makes the two engines' logical traces
identical event for event (``tests/test_obs_trace.py``).  Events are
stamped with the *logical* bucket time ``t``, not the tick's kernel
time, matching when the legacy engine would have fired them.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import OBS
from ..sim import Simulator
from .knowledge import KnowledgeModel
from .model import (
    STATE_INACTIVE,
    STATE_INFECTING,
    STATE_NOT_INFECTED,
    STATE_SCANNING,
    STATE_TO_ENUM,
    InfectionCurve,
    WormParams,
    WormState,
    validate_population,
)

#: Cohorts at least this large are drained through numpy; below it the
#: scalar loop wins (array-creation overhead dominates tiny batches).
_VEC_MIN = 32

#: One ``targets_of_many`` call covers pending activation buckets until
#: it holds this many nodes; the cap bounds the kernel's (rows x
#: fingers) temporaries.
_KNOWLEDGE_BATCH = 1024

#: The arena is only compacted once it is past this size *and* mostly
#: garbage; small arenas are never worth rewriting.
_COMPACT_MIN = 1 << 16

# Bucket kind tags (drain order is by descending scheduling lag).
_KIND_ACTIVATE = 0
_KIND_COMPLETE = 1
_KIND_SCAN = 2


class ColumnarWormSimulation:
    """One propagation run over a fixed population, array-backed.

    Public surface mirrors :class:`~repro.worm.simulation.WormSimulation`
    (``seed`` / ``add_targets`` / ``run`` / ``is_infected`` / counters /
    ``curve``); ``state`` materialises the enum list on access, with
    :meth:`state_of` as the cheap single-node accessor.
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        vulnerable: Sequence[bool],
        knowledge: KnowledgeModel,
        params: WormParams = WormParams(),
    ) -> None:
        validate_population(num_nodes, vulnerable)
        self.sim = sim
        self.num_nodes = num_nodes
        self.vulnerable = list(vulnerable)
        self.knowledge = knowledge
        self.params = params
        self.infected_count = 0
        self.curve = InfectionCurve()
        self.scans_performed = 0
        self.infections_completed = 0
        #: Logical worm events drained (activations + completions +
        #: scans, idle-probe scans included) — the batch-tick analogue
        #: of the kernel callbacks the legacy engine would have fired.
        self.logical_events = 0

        # Columns.
        self._state = bytearray(num_nodes)
        self._vuln = bytearray(self.vulnerable)
        self._idle = bytearray(num_nodes)

        # Shared knowledge-queue arena.  A node's segment is
        # ``arena[q_start:q_end]`` with ``arena[q_head:q_end]`` still
        # unscanned; ``q_start == -1`` means no targets were ever added.
        self._arena = array("i")
        self._q_start = array("q", [-1]) * num_nodes
        self._q_head = array("q", [0]) * num_nodes
        self._q_end = array("q", [0]) * num_nodes
        # Dedup sets are built lazily on a node's *second* target
        # injection, reconstructed from its full segment history; until
        # then relocations keep the scanned prefix alive.
        self._known: Dict[int, Set[int]] = {}
        self._garbage = 0

        # Logical-event buckets, keyed by exact float fire time.
        self._act_buckets: Dict[float, List[int]] = {}
        self._done_buckets: Dict[float, Tuple[List[int], List[int]]] = {}
        self._scan_buckets: Dict[float, List[int]] = {}
        self._times: List[float] = []
        self._times_set: Set[float] = set()
        self._tick_handle = None
        self._tick_time = 0.0

        self._interval = params.scan_interval_s
        self._infect_time = params.infect_time_s
        self._activation_delay = params.activation_delay_s
        self._window = self._interval

        # Legacy fires tied events in scheduling-seq order == descending
        # scheduling lag (stable sort keeps completions before scans if
        # the lags are ever equal; see the module docstring caveat).
        lagged = sorted(
            (
                (self._activation_delay, _KIND_ACTIVATE),
                (self._infect_time, _KIND_COMPLETE),
                (self._interval, _KIND_SCAN),
            ),
            key=lambda pair: -pair[0],
        )
        self._kind_order = [kind for _lag, kind in lagged]

        self._targets_unique = bool(getattr(knowledge, "targets_unique", False))
        self._targets_of_many = (
            getattr(knowledge, "targets_of_many", None)
            if self._targets_unique
            else None
        )
        # Knowledge rows extracted ahead of activation, keyed by
        # activation bucket time: (nodes covered, flat, counts).
        self._rows: Dict[float, Tuple[int, np.ndarray, np.ndarray]] = {}

        # Zero-copy numpy views.  The byte columns and cursor arrays
        # never resize, so these views stay valid for the whole run;
        # the arena reallocates on growth, so its view is versioned.
        self._state_np = np.frombuffer(self._state, dtype=np.uint8)
        self._vuln_np = np.frombuffer(self._vuln, dtype=np.uint8)
        self._idle_np = np.frombuffer(self._idle, dtype=np.uint8)
        self._qs_np = np.frombuffer(self._q_start, dtype=np.int64)
        self._qh_np = np.frombuffer(self._q_head, dtype=np.int64)
        self._qe_np = np.frombuffer(self._q_end, dtype=np.int64)
        self._arena_np = None
        self._arena_version = 0
        self._arena_np_version = -1

    # -- public API --------------------------------------------------------------

    def seed(self, index: int, delay_s: float = 0.0) -> None:
        """Implant the worm on ``index`` at the start of the run."""
        if self._state[index] != STATE_NOT_INFECTED:
            return
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "worm.seed", self.sim.now, lane="worm", args={"node": index}
            )
        self._state[index] = STATE_INACTIVE
        self.infected_count += 1
        self.curve.record(self.sim.now, self.infected_count)
        t = self.sim.now + delay_s
        self._act_buckets.setdefault(t, []).append(index)
        self._push_time(t)
        self._ensure_tick()

    def add_targets(self, index: int, targets: Sequence[int]) -> None:
        """Inject harvested addresses into ``index``'s worm instance."""
        if self._state[index] == STATE_NOT_INFECTED:
            return
        added = self._append_targets(index, targets, False)
        if added and self._idle[index]:
            self._idle[index] = 0
            t = self.sim.now + self._interval
            self._scan_buckets.setdefault(t, []).append(index)
            self._push_time(t)
            self._ensure_tick()

    def is_infected(self, index: int) -> bool:
        """True once the worm has been implanted on ``index``."""
        return self._state[index] != STATE_NOT_INFECTED

    def state_of(self, index: int) -> WormState:
        """The worm state of one node (cheap; no list materialisation)."""
        return STATE_TO_ENUM[self._state[index]]

    @property
    def state(self) -> List[WormState]:
        """The full enum state list (materialised; prefer
        :meth:`state_of` for single lookups on large populations)."""
        return [STATE_TO_ENUM[code] for code in self._state]

    def pending_targets(self, index: int) -> int:
        """Known-but-unscanned queue length of one node."""
        if self._q_start[index] == -1:
            return 0
        return self._q_end[index] - self._q_head[index]

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> InfectionCurve:
        """Drive the simulation and return the infection curve.

        ``max_events`` bounds *kernel* events here; with batch ticks
        that is ticks + foreign events, not logical worm events.
        """
        self.sim.run(until=until, max_events=max_events)
        return self.curve

    # -- arena -------------------------------------------------------------------

    def _arena_view(self):
        if self._arena_np_version != self._arena_version:
            self._arena_np = np.frombuffer(self._arena, dtype=np.intc)
            self._arena_np_version = self._arena_version
        return self._arena_np

    def _append_targets(
        self, index: int, targets: Sequence[int], assume_unique: bool
    ) -> bool:
        """Append ``targets`` to ``index``'s queue segment, preserving
        the legacy dedup semantics (each address enqueued at most once
        per node, never the node itself).  Returns True if anything was
        added."""
        arena = self._arena
        q_start = self._q_start
        q_end = self._q_end
        start = q_start[index]
        if start == -1:
            # First injection.  Knowledge-derived rows are unique and
            # self-free by construction, so the common case appends with
            # no per-target set work at all.
            if assume_unique:
                row = list(targets)
            else:
                seen: Set[int] = set()
                row = []
                for t in targets:
                    if t == index or t in seen:
                        continue
                    seen.add(t)
                    row.append(t)
            base = len(arena)
            if row:
                self._arena_np = None  # release the buffer export
                arena.extend(row)
                self._arena_version += 1
            q_start[index] = base
            self._q_head[index] = base
            q_end[index] = base + len(row)
            return bool(row)
        # Subsequent injection: build the dedup set from the segment's
        # full history (scanned entries included) if we don't have it.
        known = self._known.get(index)
        if known is None:
            known = set(arena[start : q_end[index]])
            self._known[index] = known
        fresh = []
        for t in targets:
            if t == index or t in known:
                continue
            known.add(t)
            fresh.append(t)
        if not fresh:
            return False
        self._arena_np = None
        if q_end[index] != len(arena):
            # Segment not at the arena tail: relocate.  The dedup set
            # now owns the history, so only the unscanned tail moves.
            head = self._q_head[index]
            segment = arena[head : q_end[index]]
            self._garbage += q_end[index] - start
            base = len(arena)
            arena.extend(segment)
            q_start[index] = base
            self._q_head[index] = base
            q_end[index] = base + len(segment)
        arena.extend(fresh)
        self._arena_version += 1
        q_end[index] += len(fresh)
        self._maybe_compact()
        return True

    def _maybe_compact(self) -> None:
        """Rewrite the arena without abandoned segments once more than
        half of a non-trivial arena is garbage."""
        arena = self._arena
        if len(arena) < _COMPACT_MIN or 2 * self._garbage < len(arena):
            return
        self._arena_np = None
        q_start, q_head, q_end = self._q_start, self._q_head, self._q_end
        known = self._known
        fresh = array("i")
        for i in range(self.num_nodes):
            start = q_start[i]
            if start == -1:
                continue
            # History is only needed until the dedup set exists.
            keep_from = q_head[i] if i in known else start
            segment = arena[keep_from : q_end[i]]
            base = len(fresh)
            fresh.extend(segment)
            q_start[i] = base
            q_head[i] = base + (q_head[i] - keep_from)
            q_end[i] = base + len(segment)
        self._arena = fresh
        self._garbage = 0
        self._arena_version += 1

    # -- tick scheduling ---------------------------------------------------------

    def _push_time(self, t: float) -> None:
        if t not in self._times_set:
            self._times_set.add(t)
            heapq.heappush(self._times, t)

    def _ensure_tick(self) -> None:
        """Keep exactly one kernel event pending, at (or before) the
        earliest logical bucket."""
        times = self._times
        if not times:
            return
        t0 = times[0]
        handle = self._tick_handle
        if handle is not None and handle.pending:
            if self._tick_time <= t0:
                return
            handle.cancel()
        now = self.sim.now
        fire_at = t0 if t0 > now else now
        self._tick_handle = self.sim.schedule_at(fire_at, self._tick)
        self._tick_time = fire_at

    def _tick(self) -> None:
        """One kernel event: drain every logical bucket due in this
        ``scan_interval`` window, stopping at the run horizon and at the
        next foreign kernel event so external injections (harvesters)
        interleave exactly as they would under per-event scheduling."""
        self._tick_handle = None
        sim = self.sim
        now = sim.now
        window_end = now + self._window
        horizon = sim.horizon
        # Drains only create logical buckets, never kernel events, so
        # one peek is valid for the whole window.
        next_foreign = sim.peek_next_time()
        times = self._times
        times_set = self._times_set
        heappop = heapq.heappop
        trace = OBS.trace
        events_before = self.logical_events
        buckets = 0
        last_t = now
        while times:
            t = times[0]
            if t > window_end:
                break
            if horizon is not None and t > horizon:
                break
            # Stop before a foreign event; the ``t > now`` guard lets a
            # bucket tied with one at the current instant drain rather
            # than livelock on rescheduling.
            if next_foreign is not None and t >= next_foreign and t > now:
                break
            heappop(times)
            times_set.discard(t)
            buckets += 1
            last_t = t
            for kind in self._kind_order:
                if kind == _KIND_ACTIVATE:
                    acts = self._act_buckets.pop(t, None)
                    if acts:
                        self._drain_activations(t, acts)
                elif kind == _KIND_COMPLETE:
                    done = self._done_buckets.pop(t, None)
                    if done:
                        self._drain_completions(t, done)
                else:
                    scans = self._scan_buckets.pop(t, None)
                    if scans:
                        self._drain_scans(t, scans)
        if trace is not None and buckets:
            # Engine-mechanical span (not part of the logical-event
            # contract shared with the legacy engine): one batch tick
            # and the window of logical time it drained.
            trace.complete(
                "worm.tick",
                now,
                last_t - now,
                lane="sim",
                args={
                    "buckets": buckets,
                    "logical_events": self.logical_events - events_before,
                },
            )
        self._ensure_tick()

    # -- knowledge window ----------------------------------------------------------

    def _knowledge_rows(self, t: float, cohort: List[int]):
        """The routing rows of the cohort activating at ``t`` as
        ``(flat, counts)``: the rows a window batch already computed,
        plus a fresh batch for any nodes the bucket gained after it was
        covered (a ``seed`` or a colliding ``t' + delay`` float sum)."""
        covered, flat, counts = self._rows.pop(t, (0, None, None))
        if covered == len(cohort):
            return flat, counts
        tail_flat, tail_counts = self._extract_window(cohort[covered:])
        if not covered:
            return tail_flat, tail_counts
        return (
            np.concatenate((flat, tail_flat)),
            np.concatenate((counts, tail_counts)),
        )

    def _extract_window(self, nodes: List[int]):
        """One ``targets_of_many`` call for ``nodes`` that also covers
        the pending activation buckets, in creation (= time) order,
        until the batch holds :data:`_KNOWLEDGE_BATCH` nodes.  Buckets
        already covered or past the run horizon are skipped.  A node's
        rows are a pure function of its index on the static overlay, so
        extracting them early is invisible: the arena append still
        happens at activation, after any harvester feed.  Returns the
        rows of ``nodes``; the others wait in ``_rows``."""
        batch = list(nodes)
        spans = []
        rows = self._rows
        horizon = self.sim.horizon
        for bt, members in self._act_buckets.items():
            if len(batch) >= _KNOWLEDGE_BATCH:
                break
            if bt in rows or (horizon is not None and bt > horizon):
                continue
            spans.append((bt, len(members)))
            batch.extend(members)
        flat, counts = self._targets_of_many(batch)
        flat = np.asarray(flat).astype(np.intc)
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        head = lo = len(nodes)
        for bt, size in spans:
            hi = lo + size
            rows[bt] = (size, flat[offsets[lo] : offsets[hi]], counts[lo:hi])
            lo = hi
        return flat[: offsets[head]], counts[:head]

    # -- drains ------------------------------------------------------------------

    def _drain_activations(self, t: float, cohort: List[int]) -> None:
        """Worms activating at ``t``: start scanning, append routing
        knowledge to each queue (rows from the window batch when the
        model offers ``targets_of_many``), then queue the first scan or
        go idle."""
        self.logical_events += len(cohort)
        trace = OBS.trace
        if trace is not None:
            # Cohort order is the legacy scheduling order on every path
            # below, so the activation events can be emitted up front.
            for i in cohort:
                trace.instant(
                    "worm.activate", t, lane="worm", args={"node": i}
                )
        state = self._state
        for i in cohort:
            state[i] = STATE_SCANNING
        scan_t = t + self._interval
        q_start, q_head, q_end = self._q_start, self._q_head, self._q_end
        idle = self._idle
        bucket: Optional[List[int]] = None
        if self._targets_of_many is not None:
            flat, counts = self._knowledge_rows(t, cohort)
            arena = self._arena
            self._arena_np = None
            base = len(arena)
            arena.frombytes(flat.tobytes())
            self._arena_version += 1
            carr = None
            if len(cohort) >= _VEC_MIN:
                carr = np.asarray(cohort, dtype=np.int64)
                if (self._qs_np[carr] != -1).any():
                    carr = None  # rare pre-fed node: take the scalar path
            if carr is not None:
                # Whole-cohort cursor assignment: every node is fresh, so
                # its segment is exactly its slice of the bulk copy.
                ends = base + np.cumsum(counts)
                starts = ends - counts
                self._qs_np[carr] = starts
                self._qh_np[carr] = starts
                self._qe_np[carr] = ends
                nonempty = counts > 0
                act = carr[nonempty]
                if act.size:
                    bucket = self._scan_buckets.setdefault(scan_t, [])
                    bucket.extend(act.tolist())
                if act.size < carr.size:
                    self._idle_np[carr[~nonempty]] = 1
                if bucket is not None:
                    self._push_time(scan_t)
                return
            offset = 0
            for i, count in zip(cohort, counts.tolist()):
                seg = base + offset
                offset += count
                if q_start[i] == -1:
                    q_start[i] = seg
                    q_head[i] = seg
                    q_end[i] = seg + count
                else:
                    # Rare: the node was fed by a harvester before
                    # activating.  Its bulk copy becomes garbage and the
                    # row goes through the dedup path instead.
                    self._garbage += count
                    row = flat[offset - count : offset]
                    self._append_targets(i, row.tolist(), True)
                if q_head[i] < q_end[i]:
                    if bucket is None:
                        bucket = self._scan_buckets.setdefault(scan_t, [])
                    bucket.append(i)
                else:
                    idle[i] = 1
        else:
            targets_of = self.knowledge.targets_of
            unique = self._targets_unique
            for i in cohort:
                self._append_targets(i, targets_of(i), unique)
                if q_head[i] < q_end[i]:
                    if bucket is None:
                        bucket = self._scan_buckets.setdefault(scan_t, [])
                    bucket.append(i)
                else:
                    idle[i] = 1
        if bucket is not None:
            self._push_time(scan_t)

    def _drain_completions(
        self, t: float, bucket: Tuple[List[int], List[int]]
    ) -> None:
        """Infections completing at ``t``: the first completion for a
        still-clean target implants the worm (recorded on the curve at
        the logical time ``t``); every attacker returns to scanning."""
        attackers, targets = bucket
        count = len(attackers)
        self.logical_events += count
        act_t = t + self._activation_delay
        scan_t = t + self._interval
        points = self.curve.points
        trace = OBS.trace
        if count >= _VEC_MIN and trace is None:
            state_np = self._state_np
            att = np.array(attackers, dtype=np.int64)
            tgt = np.array(targets, dtype=np.int64)
            _uniq, first = np.unique(tgt, return_index=True)
            first.sort()
            candidates = tgt[first]
            new = candidates[state_np[candidates] == STATE_NOT_INFECTED]
            if new.size:
                state_np[new] = STATE_INACTIVE
                infected = self.infected_count
                new_list = new.tolist()
                for _ in new_list:
                    infected += 1
                    points.append((t, infected))
                self.infected_count = infected
                self.infections_completed += len(new_list)
                self._act_buckets.setdefault(act_t, []).extend(new_list)
                self._push_time(act_t)
            state_np[att] = STATE_SCANNING
            self._scan_buckets.setdefault(scan_t, []).extend(attackers)
            self._push_time(scan_t)
            return
        state = self._state
        scan_bucket = self._scan_buckets.setdefault(scan_t, [])
        act_bucket: Optional[List[int]] = None
        for k in range(count):
            target = targets[k]
            new = state[target] == STATE_NOT_INFECTED
            if trace is not None:
                trace.instant(
                    "worm.infection",
                    t,
                    lane="worm",
                    args={
                        "attacker": attackers[k],
                        "target": target,
                        "new": new,
                    },
                )
            if new:
                state[target] = STATE_INACTIVE
                self.infected_count += 1
                points.append((t, self.infected_count))
                self.infections_completed += 1
                if act_bucket is None:
                    act_bucket = self._act_buckets.setdefault(act_t, [])
                    self._push_time(act_t)
                act_bucket.append(target)
            attacker = attackers[k]
            state[attacker] = STATE_SCANNING
            scan_bucket.append(attacker)
        self._push_time(scan_t)

    def _drain_scans(self, t: float, cohort: List[int]) -> None:
        """Scans firing at ``t``: pop each scanner's next known address;
        a vulnerable clean target starts an infection, anything else
        costs the scan slot; an empty queue idles the scanner.  Scans
        within one cohort read state, never write it, so the gather is
        order-independent and safe to vectorise."""
        self.logical_events += len(cohort)
        trace = OBS.trace
        if len(cohort) >= _VEC_MIN and trace is None:
            nodes = np.array(cohort, dtype=np.int64)
            qh_np = self._qh_np
            heads = qh_np[nodes]
            active_mask = heads < self._qe_np[nodes]
            if not active_mask.all():
                self._idle_np[nodes[~active_mask]] = 1
            active = nodes[active_mask]
            if active.size == 0:
                return
            heads = heads[active_mask]
            targets = self._arena_view()[heads].astype(np.int64, copy=False)
            qh_np[active] = heads + 1
            self.scans_performed += int(active.size)
            hit_mask = (self._vuln_np[targets] != 0) & (
                self._state_np[targets] == STATE_NOT_INFECTED
            )
            hits = active[hit_mask]
            if hits.size:
                self._state_np[hits] = STATE_INFECTING
                done_t = t + self._infect_time
                done = self._done_buckets.get(done_t)
                if done is None:
                    done = ([], [])
                    self._done_buckets[done_t] = done
                done[0].extend(hits.tolist())
                done[1].extend(targets[hit_mask].tolist())
                self._push_time(done_t)
            misses = active[~hit_mask]
            if misses.size:
                scan_t = t + self._interval
                self._scan_buckets.setdefault(scan_t, []).extend(misses.tolist())
                self._push_time(scan_t)
            return
        arena = self._arena
        q_head, q_end = self._q_head, self._q_end
        state = self._state
        vuln = self._vuln
        done_bucket: Optional[Tuple[List[int], List[int]]] = None
        scan_bucket: Optional[List[int]] = None
        for i in cohort:
            head = q_head[i]
            if head == q_end[i]:
                self._idle[i] = 1
                if trace is not None:
                    trace.instant(
                        "worm.idle", t, lane="worm", args={"node": i}
                    )
                continue
            target = arena[head]
            q_head[i] = head + 1
            self.scans_performed += 1
            hit = bool(vuln[target]) and state[target] == STATE_NOT_INFECTED
            if trace is not None:
                trace.instant(
                    "worm.scan",
                    t,
                    lane="worm",
                    args={"node": i, "target": target, "hit": hit},
                )
            if hit:
                state[i] = STATE_INFECTING
                if done_bucket is None:
                    done_t = t + self._infect_time
                    done_bucket = self._done_buckets.get(done_t)
                    if done_bucket is None:
                        done_bucket = ([], [])
                        self._done_buckets[done_t] = done_bucket
                    self._push_time(done_t)
                done_bucket[0].append(i)
                done_bucket[1].append(target)
            else:
                if scan_bucket is None:
                    scan_t = t + self._interval
                    scan_bucket = self._scan_buckets.setdefault(scan_t, [])
                    self._push_time(scan_t)
                scan_bucket.append(i)
