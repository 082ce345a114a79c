"""Ghost-brick exchange: the V-cycle's ``exchange()`` operation.

Each rank's 26 ghost regions are filled from the interior bricks of the
neighbour along that direction.  Because the ghost shell is a full brick
deep, one exchange validates ``brick_dim`` cells of halo — the basis of
communication-avoiding smoothing.

The adjacency is static, and the surface-major brick ordering makes
every region a contiguous slot range, so a whole exchange is an indexed
copy.  :class:`ExchangePlan` holds that copy for one level and rank
grid: per (destination, source) rank pair, the concatenated ghost-slot
and source-slot tables of every direction between the two ranks, plus
the static accounting of the per-direction messages the exchange stands
for.  Plans are keyed by geometry and rank grid and shared through a
bounded :class:`~repro.bricks.plan_cache.PlanLRUCache`.

:class:`HaloExchange` runs one of two paths, fixed at construction by
:func:`exchange_path`:

* **planned** (no fault injector, no tracer): one indexed copy per rank
  pair and field, the boundary fills, and one bulk update of the
  :class:`~repro.instrument.Recorder` and communicator counters — the
  same message rows, counts and bytes the envelope path produces;
* **envelope** (fault injection or tracing armed): one
  ``Isend``/``Irecv`` per neighbour direction over
  :class:`~repro.comm.simmpi.SimComm`, with checksums, fault injection,
  retransmission, dead-rank skips and per-rank trace spans.

Both record, per message, the *aggregation* of all exchanged fields
into one payload (Section V's "message aggregation across multiple
smoothing operations") and its *segments*: the contiguous storage
ranges the send occupies under the grid's ordering (1 means
pack-free).  :class:`LocalPeriodicExchange` is the one-rank case: a
single self pair whose tables are ``BrickGrid.periodic_wrap_pairs``.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.bricks.brick_grid import (
    NEIGHBOR_DIRECTIONS,
    BrickGrid,
    direction_index,
    direction_kind,
)
from repro.bricks.bricked_array import BrickedArray
from repro.bricks.orderings import contiguous_segments
from repro.bricks.plan_cache import PlanLRUCache
from repro.comm.simmpi import SimComm, UnmatchedReceiveError
from repro.comm.topology import CartTopology
from repro.instrument import MessageEvent, Recorder
from repro.obs.tracer import NULL_TRACER

#: exchange plans keyed by (grid geometry, rank dims, periodicity)
_PLAN_CACHE = PlanLRUCache("exchange")


class ExchangeFaultError(RuntimeError):
    """A receive exhausted its retry budget during an exchange.

    Raised only on the resilient path (fault injection active) after
    ``max_retries`` retransmission attempts all failed — the caller
    (the resilient solve driver) converts it into rollback or a
    ``failed_faults`` outcome rather than letting it escape to users.
    """

    def __init__(
        self,
        level: int,
        rank: int,
        src: int,
        direction: tuple[int, int, int] | None,
        attempts: int,
    ) -> None:
        what = (
            f"a valid ghost region from rank {src} along direction "
            f"{direction}"
            if direction is not None
            else f"a valid agglomeration payload from rank {src}"
        )
        super().__init__(
            f"exchange at level {level} gave up after {attempts} retries: "
            f"rank {rank} never received {what}"
        )
        self.level = level
        self.rank = rank
        self.src = src
        self.direction = direction
        self.attempts = attempts


def payload_checksum(payload: np.ndarray) -> int:
    """CRC32 of a message payload (the sender-side integrity header)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


def exchange_path(injector, tracer) -> tuple[str, str]:
    """``(path, reason)``: which exchange path these inputs select.

    The envelope path runs when a fault injector is armed (faults act
    per message) or a tracer is attached (per-rank ``isend``/``irecv``
    spans are recorded per message); otherwise the planned path runs.
    """
    if injector is not None:
        return "envelope", "a fault injector is armed"
    if tracer is not None and tracer.enabled:
        return "envelope", "a tracer is attached"
    return "planned", "no fault injector and no tracer"


class ExchangePlan:
    """Static tables of one level's halo exchange on one rank grid.

    A pure function of the grid geometry and the topology's dims and
    periodicity; ranks are communicator-local.

    * ``send_slots``/``ghost_slots``: per direction, the slots a rank
      sends towards that neighbour and the ghost slots it fills from it;
    * ``send_segments``/``recv_segments``: their contiguous-range counts;
    * ``messages``: ``(src, dst, direction)`` of every message, in the
      envelope path's posting order (sender-major, then direction);
    * ``pairs``: ``(dst, src, ghost, source)`` per communicating rank
      pair — every direction's tables between the two, concatenated
      and sorted by ghost slot, so ``dst[ghost] = src[source]`` is the
      pair's whole share of the exchange.
    """

    def __init__(self, grid: BrickGrid, topology: CartTopology) -> None:
        self.send_slots = {
            d: grid.send_region_slots(d) for d in NEIGHBOR_DIRECTIONS
        }
        self.ghost_slots = {
            d: grid.ghost_region_slots(d) for d in NEIGHBOR_DIRECTIONS
        }
        self.send_segments = {
            d: len(contiguous_segments(s)) for d, s in self.send_slots.items()
        }
        self.recv_segments = {
            d: len(contiguous_segments(s)) for d, s in self.ghost_slots.items()
        }
        messages = []
        tables: dict[tuple[int, int], tuple[list, list]] = {}
        for src in range(topology.size):
            for d in NEIGHBOR_DIRECTIONS:
                dst = topology.neighbor(src, d)
                if dst is None:
                    continue  # domain boundary: nothing to send
                messages.append((src, dst, d))
                # the receiver's ghost region along -d holds our send
                # region along d
                ghost, source = tables.setdefault((dst, src), ([], []))
                ghost.append(self.ghost_slots[tuple(-c for c in d)])
                source.append(self.send_slots[d])
        self.messages = tuple(messages)
        pairs = []
        for (dst, src), (ghost, source) in sorted(tables.items()):
            ghost = np.concatenate(ghost)
            order = np.argsort(ghost, kind="stable")
            pairs.append(
                (dst, src, ghost[order], np.concatenate(source)[order])
            )
        self.pairs = tuple(pairs)


def exchange_plan(grid: BrickGrid, topology: CartTopology) -> ExchangePlan:
    """The shared :class:`ExchangePlan` for ``grid`` on ``topology``."""
    key = (grid.geometry_key, topology.dims, topology.periodic)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = ExchangePlan(grid, topology)
        _PLAN_CACHE.put(key, plan)
    return plan


class ResilientChannel:
    """Receive-side resilience shared by every ``SimComm`` consumer.

    Halo exchanges and the agglomeration gather/scatter transfers face
    the same wire hazards (drop, corrupt, duplicate, delay), so the
    machinery lives here once: per-envelope sequence tracking, checksum
    and shape validation, duplicate discard, bounded sender-side
    retransmission, and the end-of-solve stale drain.  Subclasses own
    the message topology; this class owns the envelope discipline.

    Ranks passed to the channel are communicator-local; ``_gr`` maps
    them to global ids (via the communicator's ``global_rank`` hook when
    present, e.g. :class:`~repro.comm.simmpi.SubComm`) so fault events,
    injector predicates, and trace spans always name the real rank —
    per-rank accounting stays truthful on agglomerated levels.
    """

    def __init__(
        self,
        comm,
        recorder: Recorder | None = None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        if max_retries < 1:
            raise ValueError(f"max_retries must be positive: {max_retries}")
        self.comm = comm
        self.recorder = recorder
        self.tracer = tracer or NULL_TRACER
        #: optional FaultInjector; when set, sends carry checksums and
        #: receives validate, discard duplicates, and retry via
        #: retransmission instead of raising on the first anomaly.
        self.injector = injector
        self.max_retries = int(max_retries)
        #: next expected sequence number per (rank, src, tag) envelope
        self._next_seq: dict[tuple[int, int, int], int] = {}
        #: level of the most recent exchange on this channel — drained
        #: end-of-solve duplicates belong to the final exchange's level,
        #: not to a level-less ``-1``
        self._last_level = -1

    def _gr(self, rank: int) -> int:
        """Global id of a (possibly communicator-local) rank."""
        mapper = getattr(self.comm, "global_rank", None)
        return rank if mapper is None else mapper(rank)

    def _root_comm(self):
        """The root :class:`SimComm` under any ``SubComm`` views."""
        comm = self.comm
        while hasattr(comm, "parent"):
            comm = comm.parent
        return comm

    def _is_dead(self, rank: int) -> bool:
        """Is communicator-local ``rank`` a dead endpoint?"""
        dead = getattr(self.comm, "is_dead", None)
        return False if dead is None else dead(rank)

    def poll_crashes(self, level: int) -> list[int]:
        """Fire level-pinned ``rank_crash`` specs on entry to a collective.

        Kills the victims' endpoints on the *root* communicator (crash
        specs always name global ranks), so the very next touch of a
        victim raises :class:`~repro.comm.simmpi.RankDeadError` for the
        recovery ladder.  Returns the global ranks killed.
        """
        if self.injector is None:
            return []
        victims = self.injector.crashes_due(level)
        if victims:
            root = self._root_comm()
            for rank in victims:
                root.kill(rank)
        return victims

    def reset_envelopes(self) -> None:
        """Forget per-envelope sequence state after a communicator repair.

        Repair clears the communicator's send logs and sequence
        counters; a channel that kept expecting pre-repair sequence
        numbers would discard every post-repair message as a duplicate.
        """
        self._next_seq.clear()

    def _fault(self, kind: str, level: int, rank: int, src: int, tag: int,
               nbytes: int = 0, attempt: int = 0) -> None:
        if self.recorder is not None:
            vcycle = self.injector.vcycle if self.injector is not None else -1
            self.recorder.fault(
                kind, vcycle=vcycle, level=level, rank=self._gr(rank),
                src=self._gr(src), tag=tag, nbytes=nbytes, attempt=attempt,
            )

    def _receive_payload(
        self,
        level: int,
        rank: int,
        src: int,
        tag: int,
        expected_shape: tuple[int, ...],
        direction: tuple[int, int, int] | None = None,
        context: str = "message",
        what: str = "payload",
    ) -> np.ndarray:
        """One receive, fault-tolerant when an injector is set.

        ``direction`` is the receiver's ghost direction for halo
        receives (retransmissions re-enter the injector with the
        sender's ``-direction``); agglomeration transfers pass ``None``
        and are matched by level/src/rank predicates alone.
        """
        if self.injector is not None:
            return self._receive_resilient(
                level, rank, src, tag, expected_shape, direction, context
            )
        try:
            payload = self.comm.irecv(rank, src, tag, level=level).wait()
        except UnmatchedReceiveError as exc:
            raise UnmatchedReceiveError(
                f"{exc} (while filling {context})"
            ) from None
        if payload.shape != expected_shape:
            raise RuntimeError(
                f"{what} shape mismatch: got {payload.shape}, "
                f"expected {expected_shape} (while filling {context})"
            )
        return payload

    def _receive_resilient(
        self,
        level: int,
        rank: int,
        src: int,
        tag: int,
        expected_shape: tuple[int, ...],
        direction: tuple[int, int, int] | None,
        context: str,
    ) -> np.ndarray:
        """Checksum-validated receive with duplicate discard and bounded
        retry.

        Anomaly handling, in order: a stale sequence number is a
        duplicate (discarded, not an attempt); an empty mailbox first
        flushes the delay queue (a late message landing after the retry
        timeout), then falls back to sender-side retransmission; a
        checksum or shape failure discards the message and requests
        retransmission.  Each retransmission passes through the injector
        again, so persistent faults can defeat the whole budget — after
        ``max_retries`` failed attempts the receive raises
        :class:`ExchangeFaultError` for the recovery layer.
        """
        key = (rank, src, tag)
        sender_d = None if direction is None else tuple(-c for c in direction)
        attempts = 0
        while True:
            msg = self.comm.try_match(rank, src, tag, level=level)
            if msg is not None and msg.seq < self._next_seq.get(key, 0):
                self._fault("detect_duplicate", level, rank, src, tag,
                            nbytes=msg.payload.nbytes)
                continue
            if msg is not None:
                valid = msg.payload.shape == expected_shape and (
                    msg.checksum is None
                    or payload_checksum(msg.payload) == msg.checksum
                )
                if valid:
                    self._next_seq[key] = msg.seq + 1
                    return msg.payload
                self._fault("detect_corrupt", level, rank, src, tag,
                            nbytes=msg.payload.nbytes)
            elif self.comm.release_delayed(rank, src, tag):
                self._fault("detect_delay", level, rank, src, tag)
                attempts += 1
                if attempts > self.max_retries:
                    raise ExchangeFaultError(
                        level, self._gr(rank), self._gr(src), direction,
                        attempts - 1,
                    )
                self._fault("retry", level, rank, src, tag, attempt=attempts,
                            nbytes=self.comm.logged_nbytes(rank, src, tag))
                continue
            else:
                self._fault("detect_drop", level, rank, src, tag)
            attempts += 1
            if attempts > self.max_retries:
                raise ExchangeFaultError(
                    level, self._gr(rank), self._gr(src), direction,
                    attempts - 1,
                )
            self._fault("retry", level, rank, src, tag, attempt=attempts,
                        nbytes=self.comm.logged_nbytes(rank, src, tag))
            action = self.injector.message_action(
                level, self._gr(src), self._gr(rank), tag, sender_d,
                self.comm.logged_nbytes(rank, src, tag),
            )
            try:
                nbytes = self.comm.retransmit(
                    rank, src, tag, fault=action, level=level
                )
            except UnmatchedReceiveError as exc:
                raise UnmatchedReceiveError(
                    f"{exc} (while filling {context})"
                ) from None
            self._fault("retransmit", level, rank, src, tag,
                        nbytes=nbytes, attempt=attempts)

    def drain_stale(self) -> int:
        """Discard leftover duplicates before the end-of-solve drain check.

        A duplicated message whose original was consumed in the solve's
        final exchange on its envelope has no later receive to discard
        it; its stale sequence number identifies it here.  Each discard
        is recorded as a detected duplicate attributed to the channel's
        final exchange level, inside a ``drain-stale`` span on the
        receiving rank's timeline so the instant has an owning span in
        per-rank Chrome exports and critical paths.  Returns the number
        of messages discarded.
        """
        n = 0
        for (rank, src, tag), expected in self._next_seq.items():
            dropped = self.comm.discard_stale(rank, src, tag, expected)
            for _ in range(dropped):
                with self.tracer.child(self._gr(rank)).span(
                    "drain-stale", l=self._last_level, src=self._gr(src),
                    dst=self._gr(rank), tag=tag,
                ):
                    self._fault(
                        "detect_duplicate", self._last_level, rank, src, tag
                    )
            n += dropped
        return n


class HaloExchange(ResilientChannel):
    """Collective 26-neighbour ghost-brick exchange over ``SimComm``.

    The V-cycle runs ranks in lockstep and hands every rank's fields to
    one call.  Whether that call runs the planned copy or the envelope
    protocol is fixed at construction by :func:`exchange_path` (see the
    module docstring); both fill identical ghosts and record identical
    message rows, exchange counts and communicator byte counters.  On
    the envelope path all sends for all ranks are posted first, then all
    receives complete (``Isend``/``Irecv``/``Waitall`` order within one
    phase), with fields aggregated per neighbour into one message.
    """

    def __init__(
        self,
        grid: BrickGrid,
        topology: CartTopology,
        comm: SimComm,
        recorder: Recorder | None = None,
        boundary=None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        from repro.gmg.boundary import BoundaryCondition, BoundaryFill

        if topology.size != comm.size:
            raise ValueError(
                f"topology has {topology.size} ranks but comm has {comm.size}"
            )
        super().__init__(
            comm, recorder=recorder, injector=injector,
            max_retries=max_retries, tracer=tracer,
        )
        self.grid = grid
        self.topology = topology
        self.boundary = boundary or BoundaryCondition.PERIODIC
        if topology.periodic != (self.boundary is BoundaryCondition.PERIODIC):
            raise ValueError(
                "topology periodicity must match the boundary condition"
            )
        self._fills = None
        if self.boundary is not BoundaryCondition.PERIODIC:
            self._fills = [
                BoundaryFill(grid, topology.boundary_sides(rank), self.boundary)
                for rank in range(topology.size)
            ]
        #: ``"planned"`` or ``"envelope"``, and why (:func:`exchange_path`)
        self.path, self.path_reason = exchange_path(injector, self.tracer)
        #: built on first use, so constructing a solver stays cheap
        self._plan: ExchangePlan | None = None
        #: (level, itemsize, nfields) -> the planned path's bulk accounting
        self._accounts: dict[tuple[int, int, int], tuple] = {}

    @property
    def plan(self) -> ExchangePlan:
        """This level's :class:`ExchangePlan` (built on first use)."""
        if self._plan is None:
            self._plan = exchange_plan(self.grid, self.topology)
        return self._plan

    @property
    def recv_is_unpack_free(self) -> bool:
        """True when every receive lands in one contiguous segment."""
        return all(n == 1 for n in self.plan.recv_segments.values())

    def exchange(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        """Exchange ghost bricks for every rank's listed fields.

        ``fields_by_rank`` is the (ordered) list of fields to
        aggregate per rank; all ranks must pass the same number of
        fields.  The whole collective phase (copies or sends and
        receives including any fault retries, boundary fills) runs
        inside one ``exchange`` span, so fault instants fired during
        receives land inside it.

        On the envelope path, level-pinned ``rank_crash`` specs fire on
        entry; once a rank is dead, every send/receive touching it is
        skipped so the collective completes for the survivors (no hung
        waitall) — the crash then surfaces as :class:`RankDeadError` at
        the next residual reduction, which is the recovery ladder's
        guaranteed detection point.
        """
        nfields = len(fields_by_rank[0]) if fields_by_rank else 0
        with self.tracer.span("exchange", l=level, nfields=nfields):
            self._start(level, fields_by_rank)
            self._complete(level, fields_by_rank)
        if self.recorder is not None:
            self.recorder.exchange(level)

    def begin(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> tuple[int, Sequence[Sequence[BrickedArray]]]:
        """Split-phase entry: start the exchange and return.

        Validation and the first phase are the synchronous
        :meth:`exchange`'s: the planned path copies every ghost here
        (it writes only ghost bricks, which the interior pass never
        reads); the envelope path posts every rank's Isends, so
        envelope sequencing, checksums and fault injection see an
        identical stream.  Receives, boundary fills and the exchange
        count are deferred to :meth:`finish`; the caller runs interior
        compute between the two calls.  Returns the pending token that
        :meth:`finish` consumes.
        """
        with self.tracer.span(
            "exchange.begin",
            l=level,
            nfields=len(fields_by_rank[0]) if fields_by_rank else 0,
        ):
            self._start(level, fields_by_rank)
        return (level, fields_by_rank)

    def finish(
        self, pending: tuple[int, Sequence[Sequence[BrickedArray]]]
    ) -> None:
        """Split-phase completion: receives, boundary fills, accounting.

        Polls level-pinned crashes again (a spec that fired at
        :meth:`begin` is already consumed, so this is a no-op re-poll —
        but it keeps the crash-detection contract at both ends of the
        in-flight window) and then completes the collective exactly as
        the synchronous path's receive/fill phases would.
        """
        level, fields_by_rank = pending
        with self.tracer.span(
            "exchange.finish",
            l=level,
            nfields=len(fields_by_rank[0]) if fields_by_rank else 0,
        ):
            self.poll_crashes(level)
            self._complete(level, fields_by_rank)
        if self.recorder is not None:
            self.recorder.exchange(level)

    def _start(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        self._validate(level, fields_by_rank)
        if self.path == "planned":
            self._copy_planned(fields_by_rank)
            self._account(level, fields_by_rank)
        else:
            self.poll_crashes(level)
            self._post_sends(level, fields_by_rank)

    def _complete(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        if self.path == "envelope":
            self._complete_receives(level, fields_by_rank)
        self._apply_fills(fields_by_rank)

    def _validate(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        size = self.topology.size
        if len(fields_by_rank) != size:
            raise ValueError(
                f"need fields for all {size} ranks, got {len(fields_by_rank)}"
            )
        self._last_level = level
        nfields = len(fields_by_rank[0])
        if any(len(f) != nfields for f in fields_by_rank):
            raise ValueError("all ranks must exchange the same fields")
        for fields in fields_by_rank:
            for field in fields:
                if field.grid.shape_bricks != self.grid.shape_bricks or (
                    field.grid.brick_dim != self.grid.brick_dim
                ):
                    raise ValueError("field grid incompatible with exchanger grid")

    def _copy_planned(
        self, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        """Every ghost brick of every rank, one indexed copy per rank
        pair and field."""
        for dst, src, ghost, source in self.plan.pairs:
            for into, fro in zip(fields_by_rank[dst], fields_by_rank[src]):
                into.data[ghost] = fro.data[source]

    def _segments(self, d: tuple[int, int, int], nfields: int) -> int:
        """Storage segments a message along ``d`` gathers."""
        return self.plan.send_segments[d] * nfields

    def _account(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        """Record the planned exchange's messages in bulk: the envelope
        path's message rows on the recorder, and its message, byte and
        per-global-rank-pair counts on the root communicator."""
        fields = fields_by_rank[0]
        key = (level, fields[0].data.dtype.itemsize, len(fields))
        account = self._accounts.get(key)
        if account is None:
            account = self._accounts[key] = self._build_account(*key)
        events, nbytes, bytes_by_pair = account
        if self.recorder is not None:
            self.recorder.messages.extend(events)
        root = self._root_comm()
        root.sent_messages += len(events)
        root.sent_bytes += nbytes
        for pair, n in bytes_by_pair:
            root.bytes_by_pair[pair] += n

    def _build_account(self, level: int, itemsize: int, nfields: int) -> tuple:
        events = []
        by_pair: dict[tuple[int, int], int] = {}
        for src, dst, d in self.plan.messages:
            nbytes = self.grid.region_num_bytes(d, itemsize) * nfields
            events.append(
                MessageEvent(
                    level, nbytes, direction_kind(d),
                    self._segments(d, nfields), src == dst,
                )
            )
            pair = (self._gr(src), self._gr(dst))
            by_pair[pair] = by_pair.get(pair, 0) + nbytes
        total = sum(ev.nbytes for ev in events)
        return events, total, tuple(by_pair.items())

    def _post_sends(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        size = self.topology.size
        nfields = len(fields_by_rank[0])
        plan = self.plan
        # Phase 1: every rank posts one aggregated send per direction.
        for rank in range(size):
            if self._is_dead(rank):
                continue  # a dead endpoint posts nothing
            fields = fields_by_rank[rank]
            for d in NEIGHBOR_DIRECTIONS:
                dst = self.topology.neighbor(rank, d)
                if dst is None:
                    continue  # domain boundary: nothing to send
                if self._is_dead(dst):
                    continue  # no endpoint to deliver to
                payload = np.stack(
                    [f.data[plan.send_slots[d]] for f in fields]
                )
                tag = direction_index(d)
                checksum = action = None
                if self.injector is not None:
                    checksum = payload_checksum(payload)
                    action = self.injector.message_action(
                        level, self._gr(rank), self._gr(dst), tag, d,
                        payload.nbytes,
                    )
                self.comm.isend(
                    rank, dst, tag, payload, checksum=checksum, fault=action,
                    level=level,
                )
                if self.recorder is not None:
                    self.recorder.message(
                        level,
                        payload.nbytes,
                        direction_kind(d),
                        segments=self._segments(d, nfields),
                        self_message=(dst == rank),
                    )

    def _complete_receives(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        size = self.topology.size
        nfields = len(fields_by_rank[0])
        plan = self.plan
        # Phase 2: every rank completes its 26 receives.  Data arriving
        # from the neighbour along d was sent with tag direction(d)
        # (the sender's direction towards us is -(-d) = d as the tag of
        # its send region towards direction d... the send loop tags by
        # the *sender's* direction, which from our neighbour at -d
        # pointing back to us is d's opposite); see the matching rule
        # in BrickGrid.send_region_slots.
        for rank in range(size):
            if self._is_dead(rank):
                continue  # a dead endpoint receives nothing
            fields = fields_by_rank[rank]
            for d in NEIGHBOR_DIRECTIONS:
                src = self.topology.neighbor(rank, d)
                if src is None:
                    continue  # filled by the boundary condition below
                if self._is_dead(src):
                    continue  # sender died: ghost stays stale until recovery
                # Our ghost region in direction d is the neighbour's
                # send region in direction -d, tagged with -d's index.
                tag = direction_index(tuple(-c for c in d))
                ghost = plan.ghost_slots[d]
                expected = (nfields, len(ghost)) + (self.grid.brick_dim,) * 3
                payload = self._receive(level, rank, src, tag, d, expected)
                with self.tracer.child(self._gr(rank)).span(
                    "unpack", l=level, src=self._gr(src), dst=self._gr(rank),
                    tag=tag, bytes=int(payload.nbytes),
                ):
                    for f_idx, field in enumerate(fields):
                        field.data[ghost] = payload[f_idx]

    def _apply_fills(
        self, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        # Phase 3: boundary conditions synthesise the outward ghosts
        # (after all receives — corner mirrors read exchanged ghosts).
        if self._fills is None:
            return
        for rank in range(self.topology.size):
            if self._is_dead(rank):
                continue
            for field in fields_by_rank[rank]:
                self._fills[rank].apply(field)

    def _receive(
        self,
        level: int,
        rank: int,
        src: int,
        tag: int,
        d: tuple[int, int, int],
        expected_shape: tuple[int, ...],
    ) -> np.ndarray:
        """One ghost-region receive, fault-tolerant when an injector is set."""
        return self._receive_payload(
            level, rank, src, tag, expected_shape, direction=d,
            context=(
                f"rank {self._gr(rank)}'s ghost region along direction "
                f"{d} at level {level}"
            ),
            what="ghost region",
        )


class LocalPeriodicExchange(HaloExchange):
    """Single-rank exchange: the one-rank case of the exchange plan.

    A :class:`HaloExchange` over a private one-rank communicator.  With
    a periodic boundary its plan is one self pair whose tables are
    ``BrickGrid.periodic_wrap_pairs``, recorded as 26 single-segment
    ``self_message`` rows; with a non-periodic ``boundary`` the plan is
    empty and the boundary condition synthesises every ghost brick (no
    messages at all — one rank owns the whole domain).  It always runs
    the planned path: a local wrap has no wire to fault or trace.
    """

    def __init__(
        self,
        grid: BrickGrid,
        recorder: Recorder | None = None,
        boundary=None,
        tracer=None,
    ) -> None:
        from repro.gmg.boundary import BoundaryCondition

        periodic = boundary in (None, BoundaryCondition.PERIODIC)
        super().__init__(
            grid, CartTopology((1, 1, 1), periodic=periodic), SimComm(1),
            recorder, boundary, tracer=tracer,
        )
        self.path, self.path_reason = "planned", "one rank: a local wrap"

    def _validate(
        self, level: int, fields_by_rank: Sequence[Sequence[BrickedArray]]
    ) -> None:
        if len(fields_by_rank) != 1:
            raise ValueError("LocalPeriodicExchange serves exactly one rank")
        if any(f.grid is not self.grid for f in fields_by_rank[0]):
            raise ValueError("field grid does not match the exchanger's grid")
        super()._validate(level, fields_by_rank)

    def _segments(self, d: tuple[int, int, int], nfields: int) -> int:
        """A periodic self-wrap is recorded as pack-free."""
        return 1
