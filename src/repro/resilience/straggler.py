"""Straggler detection from per-rank measured step times.

:class:`StragglerWatch` observes, at every step boundary, each rank's own
*busy* seconds (compute + message CPU overheads occupied on its core — the
scheduler's ``rank_busy`` accumulator, not the wall clock, which the
per-step settlement allreduce synchronizes across ranks) and maintains an
EWMA per rank.  A rank whose EWMA exceeds ``threshold`` times the
population median is flagged as a straggler; it is cleared again once it
drops below ``clear_ratio`` times the median (hysteresis, so a rank
hovering at the threshold does not flap).

The watch serves three consumers:

* the instrument layer — flag/clear transitions emit instant events and
  metrics counters (observational only);
* the load balancers — :meth:`load` supplies *measured* seconds in place
  of particle counts, so a CPU slowdown that leaves counts balanced is
  still visible to the diffusion and migration strategies (the in-situ
  measurement feedback of Rowan et al.); :meth:`straggler_pending` lets
  the drivers force an off-interval LB round when a new straggler shows;
* the checkpointer — the full state round-trips through
  :meth:`state_dict`/:meth:`load_state` so a resumed run detects exactly
  as the uninterrupted one would.

Everything here is driven by simulated quantities, so the watch is as
deterministic as the scheduler feeding it.
"""

from __future__ import annotations


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    if n % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


class StragglerWatch:
    """EWMA-vs-median straggler detector over per-rank step busy-times."""

    def __init__(
        self,
        n_ranks: int,
        *,
        alpha: float = 0.5,
        threshold: float = 2.0,
        clear_ratio: float = 1.5,
        min_samples: int = 2,
    ):
        if n_ranks <= 0:
            raise ValueError("watch needs at least one rank")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if threshold <= 1.0 or clear_ratio <= 1.0 or clear_ratio > threshold:
            raise ValueError("need 1 < clear_ratio <= threshold")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.n_ranks = n_ranks
        self.alpha = alpha
        self.threshold = threshold
        self.clear_ratio = clear_ratio
        self.min_samples = min_samples
        self._prev: list[float | None] = [None] * n_ranks
        self._ewma: list[float] = [0.0] * n_ranks
        self._samples: list[int] = [0] * n_ranks
        self._last_core: list[int | None] = [None] * n_ranks
        self._restart: list[bool] = [False] * n_ranks
        self.flagged: list[bool] = [False] * n_ranks
        #: Steps at which a *new* straggler was flagged, in order —
        #: consumed by the drivers to trigger off-interval LB rounds.
        self.flag_steps: list[int] = []

    def params_dict(self) -> dict:
        """Constructor parameters (for checkpoint metadata)."""
        return {
            "alpha": self.alpha,
            "threshold": self.threshold,
            "clear_ratio": self.clear_ratio,
            "min_samples": self.min_samples,
        }

    # ------------------------------------------------------------------
    # Observation (called by the scheduler at each rank's step boundary)
    # ------------------------------------------------------------------
    def observe(
        self, rank: int, step: int, busy_seconds: float, core: int | None = None,
    ) -> list[tuple[str, int]]:
        """Record ``rank``'s cumulative busy seconds at the top of ``step``.

        ``core`` is the rank's current physical core; when it changes (a VP
        migrated), the rank's EWMA restarts from the next step delta —
        measurements taken on the old core say nothing about the new one,
        and carrying them over makes a VP that escaped a slow core look
        heavy for several more rounds (stale-cost oscillation).  Returns
        the flag transitions this observation caused, as
        ``("flagged" | "cleared", rank)`` pairs — at most one, for the
        observed rank itself.
        """
        if core is not None:
            if self._last_core[rank] is not None and core != self._last_core[rank]:
                self._restart[rank] = True
            self._last_core[rank] = core
        prev, self._prev[rank] = self._prev[rank], busy_seconds
        if prev is None:
            return []
        delta = busy_seconds - prev
        if self._samples[rank] == 0 or self._restart[rank]:
            self._ewma[rank] = delta
            self._restart[rank] = False
        else:
            a = self.alpha
            self._ewma[rank] = a * delta + (1.0 - a) * self._ewma[rank]
        self._samples[rank] += 1
        if not self.ready():
            return []
        med = _median(self._ewma)
        if med <= 0.0:
            return []
        ratio = self._ewma[rank] / med
        if not self.flagged[rank] and ratio > self.threshold:
            self.flagged[rank] = True
            self.flag_steps.append(step)
            return [("flagged", rank)]
        if self.flagged[rank] and ratio < self.clear_ratio:
            self.flagged[rank] = False
            return [("cleared", rank)]
        return []

    # ------------------------------------------------------------------
    # Queries (used by the load balancers)
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """True once every rank has at least ``min_samples`` step deltas.

        Within one LB round all ranks observe the same readiness (the
        settlement allreduce orders every top-of-step observation before
        any same-step LB call), so ranks never mix measured and fallback
        loads in a single reduction.
        """
        return min(self._samples) >= self.min_samples

    def load(self, rank: int, fallback: float) -> float:
        """Measured EWMA step-seconds for ``rank`` (or ``fallback``)."""
        if not self.ready():
            return fallback
        return self._ewma[rank]

    def straggler_pending(self, last_handled: int, step: int) -> bool:
        """A new straggler was flagged in ``(last_handled, step]``."""
        return any(last_handled < s <= step for s in self.flag_steps)

    def stragglers(self) -> list[int]:
        return [r for r, f in enumerate(self.flagged) if f]

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "prev": list(self._prev),
            "ewma": list(self._ewma),
            "samples": list(self._samples),
            "last_core": list(self._last_core),
            "restart": list(self._restart),
            "flagged": list(self.flagged),
            "flag_steps": list(self.flag_steps),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict`'s keys; any other key is ignored
        (older checkpoints also carry a table of measured work rates)."""
        if len(state["ewma"]) != self.n_ranks:
            raise ValueError(
                f"watch state covers {len(state['ewma'])} ranks, "
                f"expected {self.n_ranks}"
            )
        self._prev = [None if v is None else float(v) for v in state["prev"]]
        self._ewma = [float(v) for v in state["ewma"]]
        self._samples = [int(v) for v in state["samples"]]
        self._last_core = [
            None if v is None else int(v) for v in state["last_core"]
        ]
        self._restart = [bool(v) for v in state["restart"]]
        self.flagged = [bool(v) for v in state["flagged"]]
        self.flag_steps = [int(v) for v in state["flag_steps"]]
