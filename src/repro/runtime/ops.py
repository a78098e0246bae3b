"""Communication operations yielded by rank programs to the scheduler.

Rank programs never construct these directly — they call methods on
:class:`repro.runtime.comm.Comm` which return the op, and ``yield`` it::

    def program(comm):
        total = yield comm.allreduce(len(local), op=SUM)
        yield comm.send(payload, dst=right, tag=0)
        data = yield comm.recv(src=left, tag=0)
        return total

The five ops are :class:`ComputeOp` (``compute``/``step``),
:class:`SendrecvOp`, :class:`CollectiveOp` (barrier, allreduce, allgather,
split, cart_create, user), :class:`SendOp` and :class:`RecvOp`.

Sends are *buffered*: they complete locally as soon as the payload is handed
to the transport (like an eager-protocol MPI_Send), so symmetric exchange
patterns cannot deadlock on send.  Receives name an exact source and tag and
block until a matching message exists.
"""

from __future__ import annotations


class SendOp:
    """Buffered point-to-point send."""

    __slots__ = ("comm", "dst", "tag", "payload", "nbytes")

    def __init__(self, comm, dst, tag, payload, nbytes):
        self.comm = comm
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes


class RecvOp:
    """Blocking point-to-point receive from an exact source and tag."""

    __slots__ = ("comm", "src", "tag")

    def __init__(self, comm, src, tag):
        self.comm = comm
        self.src = src
        self.tag = tag


class SendrecvOp:
    """Combined send+receive, safe against exchange deadlocks."""

    __slots__ = ("comm", "dst", "sendtag", "payload", "nbytes", "src", "recvtag")

    def __init__(self, comm, payload, dst, sendtag, src, recvtag, nbytes):
        self.comm = comm
        self.payload = payload
        self.dst = dst
        self.sendtag = sendtag
        self.src = src
        self.recvtag = recvtag
        self.nbytes = nbytes


class ComputeOp:
    """Charge local compute time to the rank's (and its core's) clock.

    ``task`` optionally carries the *real* work behind the charge as a data
    descriptor (see :class:`repro.runtime.executor.PushTask`) instead of
    running it inline before the yield.  The scheduler charges the simulated
    clock at dispatch exactly as for a bare compute op, parks the rank, and
    batches all simultaneously-parked tasks to the active executor backend
    — which may fuse them or fan them out across worker processes.

    ``settle`` is the communicator of the step's settlement allreduce when
    the op is a PIC step's push (:meth:`repro.runtime.comm.Comm.step`):
    the scheduler may then finish the step's whole exchange itself
    (``Scheduler._close_step``).
    """

    __slots__ = ("seconds", "task", "settle")

    def __init__(self, seconds: float, task=None, settle=None):
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.seconds = seconds
        self.task = task
        self.settle = settle


class CollectiveOp:
    """Any collective over a communicator.

    ``seq`` is the per-communicator collective sequence number; all ranks of
    a communicator execute collectives in the same order, so ``(comm_id,
    seq)`` uniquely identifies one collective instance across ranks.

    ``kind`` selects the built-in completion semantics (barrier, allreduce,
    allgather, split, cart_create) or ``"user"``, in which case
    ``user_fn(values, ctx)`` computes the per-rank results (used by the AMPI
    runtime's migrate()).
    """

    __slots__ = ("comm", "kind", "value", "op", "seq", "user_fn", "nbytes")

    def __init__(self, comm, kind, value=None, op=None, seq=0, user_fn=None, nbytes=0):
        self.comm = comm
        self.kind = kind
        self.value = value
        self.op = op
        self.seq = seq
        self.user_fn = user_fn
        self.nbytes = nbytes
