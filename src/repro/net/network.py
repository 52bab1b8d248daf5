"""Message delivery fabric.

``Network`` connects protocol endpoints over a latency (and optional
bandwidth) model.  Sending is fire-and-forget: the message is delivered
to the destination's handler after the propagation (plus serialisation)
delay, silently dropped if the destination has left the overlay by
then, or dropped up-front by the optional fault plan (partitions — see
:mod:`repro.faults`).  Request/response matching, timeouts and retries
live one layer up, in :mod:`repro.chord.rpc`.

Every undelivered message is counted under a *cause* tag so that
resilience experiments can tell messages to dead incarnations and
injected faults apart:

* ``"dead-destination"`` — no endpoint registered at delivery time;
* ``"partition"`` — whatever the :class:`~repro.faults.FaultPlan`
  reports.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Optional, Sequence

from ..faults.plan import FaultPlan
from ..obs import OBS
from ..sim import Simulator
from .accounting import ByteAccounting
from .addressing import NodeAddress
from .latency import BandwidthModel, LatencyModel
from .message import HEADER_BYTES, Message, _msg_counter

Handler = Callable[[Message], None]

#: Cause tag for the network's own drop decision.
CAUSE_DEAD = "dead-destination"


class Network:
    """Delivers :class:`Message` objects between registered endpoints."""

    def __init__(
        self,
        sim: Simulator,
        latency_model: LatencyModel,
        bandwidth_model: Optional[BandwidthModel] = None,
        accounting: Optional[ByteAccounting] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """``fault_plan`` is consulted per message and may drop it."""
        self.sim = sim
        self.latency_model = latency_model  # property: also primes row caches
        self.bandwidth_model = bandwidth_model
        self.accounting = accounting if accounting is not None else ByteAccounting()
        self.fault_plan = fault_plan
        self._endpoints: Dict[NodeAddress, Handler] = {}
        self.drops_by_cause: Dict[str, int] = {}
        # Send fast path: matrix models expose a row view of plain
        # Python floats (no per-call numpy-scalar churn); fall back to
        # the scalar protocol methods for anything else.
        self._bandwidth_row = (
            getattr(bandwidth_model, "row", None)
            if bandwidth_model is not None
            else None
        )
        # A single bound delivery callback avoids a per-send allocation.
        self._deliver_cb = self._deliver

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency_model

    @latency_model.setter
    def latency_model(self, model: LatencyModel) -> None:
        """Swapping the model (tests do) also refreshes the send fast
        path: the optional ``row`` view and the per-source row cache
        (``None`` for scalar-only models, which skips the cache branch
        entirely on :meth:`send`)."""
        self._latency_model = model
        self._latency_row = getattr(model, "row", None)
        self._lat_rows: Optional[Dict[int, Sequence[float]]] = (
            {} if self._latency_row is not None else None
        )

    # -- membership ----------------------------------------------------------

    def register(self, address: NodeAddress, handler: Handler) -> None:
        if address in self._endpoints:
            raise ValueError(f"address {address} already registered")
        if not 0 <= address.host_slot < self.latency_model.num_hosts:
            raise ValueError(
                f"host slot {address.host_slot} outside latency model "
                f"({self.latency_model.num_hosts} hosts)"
            )
        self._endpoints[address] = handler

    def unregister(self, address: NodeAddress) -> None:
        self._endpoints.pop(address, None)

    def is_registered(self, address: NodeAddress) -> bool:
        return address in self._endpoints

    # -- drop bookkeeping ----------------------------------------------------

    @property
    def dropped_messages(self) -> int:
        """Total undelivered messages, all causes."""
        return sum(self.drops_by_cause.values())

    def dropped(self, cause: str) -> int:
        return self.drops_by_cause.get(cause, 0)

    def _drop(self, cause: str) -> None:
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1
        self.accounting.record_drop(cause)
        # Drops are off the send fast path, so the cause-tagged registry
        # counters cost nothing on delivered messages.
        metrics = OBS.metrics
        if metrics is not None:
            metrics.counter("net.drops." + cause).inc()
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "net.drop", self.sim.now, lane="net", args={"cause": cause}
            )

    # -- delivery -------------------------------------------------------------

    def send(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        payload: Any,
        size: int,
        category: str = "other",
        op_tag: Optional[int] = None,
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        Bytes are accounted at send time (the sender pays for lost
        messages too, as on a real network).
        """
        src_slot = src.host_slot
        dst_slot = dst.host_slot
        # Inlined ByteAccounting.record: one call per simulated packet
        # (the grand totals are derived properties, not maintained here).
        acct = self.accounting
        acct.bytes_by_category[category] += size
        acct.messages_by_category[category] += 1
        if op_tag is not None:
            acct.bytes_by_op[op_tag] += size
        if self.fault_plan is not None:
            cause = self.fault_plan.verdict(src_slot, dst_slot, self.sim.now)
            if cause is not None:
                self._drop(cause)
                return
        rows = self._lat_rows
        if rows is not None:
            # Rows are cached after a host's first send, so the hit path
            # is two plain subscripts (the except costs nothing then).
            try:
                latency = rows[src_slot][dst_slot]
            except KeyError:
                latency = (rows.setdefault(src_slot, self._latency_row(src_slot)))[
                    dst_slot
                ]
        else:
            latency = self.latency_model.latency(src_slot, dst_slot)
        # The Message is only materialised once the drop checks have
        # passed (a dropped send costs no allocation), and its __init__
        # is inlined — one instance per packet makes this the fabric's
        # hottest allocation.
        msg = Message.__new__(Message)
        msg.src = src
        msg.dst = dst
        msg.payload = payload
        msg.size = size if size >= HEADER_BYTES else HEADER_BYTES
        msg.category = category
        msg.op_tag = op_tag
        msg.msg_id = next(_msg_counter)
        bandwidth_model = self.bandwidth_model
        if bandwidth_model is None:
            # Fire-and-forget delivery with Simulator.call_after inlined:
            # one heap entry per packet, no handle, no extra frame.
            # (latency is non-negative by model contract.)
            sim = self.sim
            seq = sim._next_seq
            sim._next_seq = seq + 1
            heapq.heappush(
                sim._queue, (sim._now + latency, seq, self._deliver_cb, (msg,))
            )
            sim._live += 1
            return
        bandwidth_row = self._bandwidth_row
        if bandwidth_row is not None:
            bandwidth = bandwidth_row(src_slot)[dst_slot]
        else:
            bandwidth = bandwidth_model.bandwidth(src_slot, dst_slot)
        if bandwidth:
            self.sim.call_after(latency + size / bandwidth, self._deliver, msg)
        else:
            self.sim.call_after(latency, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        try:
            handler = self._endpoints[msg.dst]
        except KeyError:
            self._drop(CAUSE_DEAD)
            return
        handler(msg)
