"""Error types raised by the simulated MPI runtime and its worker pools."""

from __future__ import annotations

import signal


def exit_cause(proc) -> str:
    """A dead worker's exit status as text: ``code 17``, or ``SIGKILL`` for -9.

    A fired sentinel or a closed pipe can precede the reap, so join first.
    """
    proc.join(timeout=5.0)
    code = proc.exitcode
    if code is not None and code < 0:
        try:
            return signal.Signals(-code).name
        except ValueError:
            pass
    return f"code {code}"


class DeadlockError(RuntimeError):
    """No rank can make progress: every live rank is blocked.

    Raised by the scheduler when all unfinished ranks are waiting on
    receives or collectives that can never complete — the simulated
    equivalent of a hung MPI job.
    """


class CollectiveMismatchError(RuntimeError):
    """Ranks of one communicator disagree on the collective being executed.

    E.g. one rank calls ``allreduce`` while another calls ``barrier`` as the
    n-th collective on the same communicator — a program bug that real MPI
    would surface as a hang or corruption; we fail fast instead.
    """


class RuntimeConfigError(ValueError):
    """Invalid runtime configuration (rank counts, machine geometry, ...)."""


class RankFailedError(RuntimeError):
    """A rank hit a fault-plan crash event with no recovery policy in place.

    Carries the failed ``rank`` and the ``step`` at which the crash fired so
    harnesses can report (and tests can assert) exactly which perturbation
    killed the run.  With a recovery policy attached, the same event is
    instead absorbed as simulated restart time (see repro.resilience).
    """

    def __init__(self, rank: int, step: int, detail: str = ""):
        self.rank = rank
        self.step = step
        msg = f"rank {rank} crashed at step {step} (fault plan)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed validation (CRC mismatch, truncation, ...).

    Raised by :meth:`repro.resilience.Snapshot.load` before any state is
    touched, so a damaged checkpoint can never half-restore a run.
    """


class ExecutorWorkerLostError(RuntimeError):
    """A process-executor worker died while the pool needed it.

    Carries the ``worker`` index, the ``cause`` (:func:`exit_cause`:
    ``SIGKILL``, ``code 1``, ...) and the world ``ranks`` whose tasks that
    worker held, so a killed push names exactly what it took down.
    """

    def __init__(self, worker: int, cause: str, ranks):
        self.worker = worker
        self.cause = cause
        self.ranks = list(ranks)
        held = f"the tasks of world ranks {self.ranks}" if self.ranks else "no tasks"
        super().__init__(
            f"process executor worker {worker} died ({cause}) holding {held}"
        )
