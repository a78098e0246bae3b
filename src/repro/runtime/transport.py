"""In-memory transport with MPI matching semantics.

Each destination (world rank) owns an ordered list of pending messages.
A receive matches the *earliest delivered* pending message whose
communicator, source and tag agree.  Because the pending list is kept in
send order, messages between one (source, tag) pair can never overtake one
another — MPI's non-overtaking guarantee.
"""

from __future__ import annotations

from repro.runtime.message import Message


class Transport:
    """Mailboxes for ``n`` world ranks."""

    def __init__(self, n_ranks: int, metrics=None):
        if n_ranks <= 0:
            raise ValueError("transport needs at least one rank")
        self.n_ranks = n_ranks
        self._pending: list[list[Message]] = [[] for _ in range(n_ranks)]
        self._seq = 0
        # Traffic statistics (exposed through the scheduler for benchmarks).
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`repro.instrument.MetricsRegistry`; observational
        #: only — never influences matching or delivery.
        self.metrics = metrics

    def post(self, dst_world: int, comm_id: int, src: int, tag: int,
             payload, nbytes: int, t_avail: float) -> None:
        """Queue a message at its destination under the next sequence number."""
        self._seq += 1
        queue = self._pending[dst_world]
        queue.append(Message(comm_id, src, tag, payload, nbytes, t_avail, self._seq))
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.metrics is not None:
            self.metrics.counter("transport.messages_sent").inc()
            self.metrics.counter("transport.bytes_sent").inc(nbytes)
            self.metrics.gauge("transport.pending_peak").set_max(len(queue))

    def match(self, dst_world: int, comm_id: int, src: int, tag: int) -> Message | None:
        """Pop and return the first matching pending message, if any."""
        pending = self._pending[dst_world]
        for i, msg in enumerate(pending):
            if msg.comm_id == comm_id and msg.src == src and msg.tag == tag:
                del pending[i]
                return msg
        return None

    def describe_pending(self, limit: int = 10) -> str:
        """Human-readable dump of undelivered messages (deadlock reports)."""
        lines = []
        for dst, queue in enumerate(self._pending):
            for msg in queue[:limit]:
                lines.append(f"  dst={dst} <- {msg!r}")
        return "\n".join(lines) if lines else "  (no pending messages)"
