"""Communicator API of the simulated MPI runtime.

:class:`Comm` offers the subset of the MPI interface the paper's reference
implementations use: blocking ``send``/``recv`` and ``sendrecv`` with an
exact peer and tag; the collectives ``barrier``, ``allreduce``,
``allgather``, ``split``, ``create_cart`` and ``user_collective``; and
``compute``/``run_steps`` for compute time.  Every communication method
*returns an operation object* that the rank program must ``yield``; the
scheduler performs the operation and resumes the generator with the
result::

    def program(comm: Comm):
        if comm.rank == 0:
            yield comm.send("hello", dst=1, tag=7)
        else:
            msg = yield comm.recv(src=0, tag=7)
        n = yield comm.allreduce(1, op=SUM)   # == comm.size
        return n

Non-yielding helpers (``rank``, ``size``, ``wtime``, ``core``) may be called
directly.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime import ops
from repro.runtime.costmodel import payload_nbytes
from repro.runtime.reduce_ops import ReduceOp, SUM

__all__ = ["Comm"]


class Comm:
    """One rank's handle on a communicator.

    ``world_ranks[i]`` is the world rank of the communicator's local rank
    ``i``; ``rank`` is this process's local rank.  Instances are created by
    the scheduler (the world communicator) or by collective operations
    (:meth:`split`, :meth:`create_cart`).
    """

    def __init__(self, scheduler, comm_id: int, world_ranks: tuple[int, ...], rank: int):
        self._scheduler = scheduler
        self.comm_id = comm_id
        self.world_ranks = world_ranks
        self.rank = rank
        #: Number of ranks in the communicator (fixed at creation).
        self.size = len(world_ranks)
        self._coll_seq = 0

    # ------------------------------------------------------------------
    # Introspection (non-yielding)
    # ------------------------------------------------------------------
    @property
    def world_rank(self) -> int:
        """This process's rank in the world communicator."""
        return self.world_ranks[self.rank]

    def wtime(self) -> float:
        """This rank's virtual clock (the simulated MPI_Wtime)."""
        return self._scheduler.clock[self.world_rank]

    def annotate_step(self, step: int) -> None:
        """Mark the top of time step ``step`` for this rank.

        Non-yielding; drivers call it unconditionally at the top of each
        time step.  Updates the observational tracer stamp and the
        scheduler's per-rank step counter.  Without a resilience hook this
        is free in simulated time; with one, step boundaries are where
        crash events fire and straggler observations are taken (see
        :meth:`repro.runtime.scheduler.Scheduler.notify_step`).
        """
        self._scheduler.notify_step(self.world_rank, step)

    def _count_op(self, name: str) -> None:
        """Bump the per-operation metrics counter (observational only; the
        caller checks that metrics are attached)."""
        self._scheduler.metrics.counter(f"comm.{name}").inc()

    def core(self) -> int:
        """Physical core this rank currently executes on."""
        return self._scheduler.rank_to_core[self.world_rank]

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.size):
            raise ValueError(
                f"peer rank {peer} out of range for communicator of size {self.size}"
            )

    def _next_seq(self) -> int:
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: Any, dst: int, tag: int = 0, nbytes: int | None = None) -> ops.SendOp:
        """Buffered send of ``payload`` to local rank ``dst``."""
        self._check_peer(dst)
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        if self._scheduler.metrics is not None:
            self._count_op("send")
        return ops.SendOp(self, dst, tag, payload, nbytes)

    def recv(self, src: int, tag: int = 0) -> ops.RecvOp:
        """Blocking receive from local rank ``src``; resumes with the payload."""
        self._check_peer(src)
        return ops.RecvOp(self, src, tag)

    def sendrecv(
        self,
        payload: Any,
        dst: int,
        src: int,
        sendtag: int = 0,
        recvtag: int = 0,
        nbytes: int | None = None,
    ) -> ops.SendrecvOp:
        """Combined exchange: send to ``dst``, receive from ``src``."""
        size = self.size
        if not (0 <= dst < size and 0 <= src < size):
            self._check_peer(dst)
            self._check_peer(src)
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        if self._scheduler.metrics is not None:
            self._count_op("sendrecv")
        return ops.SendrecvOp(self, payload, dst, sendtag, src, recvtag, nbytes)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> ops.CollectiveOp:
        return ops.CollectiveOp(self, "barrier", seq=self._next_seq())

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> ops.CollectiveOp:
        return ops.CollectiveOp(
            self, "allreduce", value=value, op=op, seq=self._next_seq(),
            nbytes=payload_nbytes(value),
        )

    def allgather(self, value: Any) -> ops.CollectiveOp:
        """Every rank resumes with the list of all values (by rank)."""
        return ops.CollectiveOp(
            self, "allgather", value=value, seq=self._next_seq(),
            nbytes=payload_nbytes(value),
        )

    def split(self, color: int | None, key: int = 0) -> ops.CollectiveOp:
        """Partition the communicator; resumes with the new Comm (or None).

        Ranks passing the same ``color`` form a new communicator, ordered by
        ``(key, old rank)``.  ``color=None`` opts out (MPI_UNDEFINED).
        """
        return ops.CollectiveOp(
            self, "split", value=(color, key), seq=self._next_seq(), nbytes=16,
        )

    def create_cart(self, dims: tuple[int, int], periodic: bool = True) -> ops.CollectiveOp:
        """Create a 2D Cartesian communicator; resumes with a CartComm.

        ``dims[0] * dims[1]`` must equal the communicator size; ranks keep
        their order (row-major coordinates).
        """
        if dims[0] * dims[1] != self.size:
            raise ValueError(
                f"cartesian dims {dims} do not cover communicator size {self.size}"
            )
        return ops.CollectiveOp(
            self, "cart_create", value=(tuple(dims), bool(periodic)),
            seq=self._next_seq(), nbytes=16,
        )

    def user_collective(self, value: Any, fn: Callable) -> ops.CollectiveOp:
        """Custom collective: ``fn(values, ctx)`` returns per-rank results.

        ``fn`` runs once when every rank has arrived, receiving the list of
        contributed values (by local rank) and a
        :class:`repro.runtime.scheduler.CollectiveContext`.  Only the op
        yielded by local rank 0 supplies ``fn`` (the others may pass the
        same function; it is ignored).  Used by the AMPI runtime's migrate().
        """
        return ops.CollectiveOp(
            self, "user", value=value, user_fn=fn, seq=self._next_seq(),
            nbytes=payload_nbytes(value),
        )

    # ------------------------------------------------------------------
    # Compute accounting
    # ------------------------------------------------------------------
    def compute(self, seconds: float, task=None) -> ops.ComputeOp:
        """Charge ``seconds`` of local computation to this rank's clock.

        With ``task`` (a :class:`repro.runtime.executor.PushTask`) the real
        work is handed to the scheduler's executor backend, which may batch
        it with other ranks' simultaneously runnable compute phases; the
        simulated charge is identical either way.
        """
        return ops.ComputeOp(seconds, task)

    def run_steps(self, seconds: float, task, plan) -> ops.ComputeOp:
        """A PIC step's push and the quiet steps after it: the run op.

        Charged and executed exactly like :meth:`compute` with ``task``.
        When every op of the batch is one of these on the world
        communicator (and nothing else gates it), the scheduler may close
        the step for every rank at once — its exchange settled by the
        executor, its settlement allreduce on this communicator — and then
        close the steps after it the same way until ``plan`` (one per
        driver: ``ends(t)``, ``push_seconds(counts)``) says a rank needs
        its program (``Scheduler._close_run``).  The rank then resumes
        with ``(counts, rows)``, its count after each closed step and its
        rows after the last for its exchange to take, or None when its
        last pushed step still needs its exchange; with None when nothing
        was closed, so the pushed step's exchange is the rank's.
        """
        return ops.ComputeOp(seconds, task, self, plan)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comm(id={self.comm_id}, rank={self.rank}/{self.size}, "
            f"world={self.world_rank})"
        )
