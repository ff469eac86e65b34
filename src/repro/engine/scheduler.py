"""Partition-pair scheduling (§4.3).

The scheduler selects which two partitions the next superstep loads.  Its
two objectives, from the paper: (1) maximize potential edge-pair matches —
pick the pair with the largest ``delta(p,q) + delta(q,p)`` score from the
DDM — and (2) favor reusing partitions already in memory, applied as a
tie-break among pairs whose scores fall within a user-defined slack of
the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.partition.ddm import DestinationDistributionMap


@dataclass
class Scheduler:
    """DDM-delta driven pair selection with in-memory preference.

    ``slack`` is the relative score window within which pairs are
    considered "similar" and residency breaks the tie (0.1 = within 10%
    of the best score).  Must lie in ``[0, 1)``: a negative slack (or
    ``>= 1``) would make the score threshold non-positive and silently
    degrade pair selection to "any dirty pair wins on residency".
    """

    slack: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack < 1.0:
            raise ValueError(
                f"slack must be in [0, 1); got {self.slack!r}"
            )

    def state_dict(self) -> dict:
        """Resumable internal state; the DDM-delta scheduler has none."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output after a checkpoint resume."""

    def choose_pair(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
    ) -> Optional[Tuple[int, int]]:
        """The next pair to load, or None when the computation finished.

        A returned pair may be ``(p, p)``: a single partition whose
        internal delta is the only remaining work.
        """
        ps, qs, scores = ddm.pair_scores()
        if len(ps) == 0:
            return None
        best_score = int(scores.max())
        threshold = best_score * (1.0 - self.slack)
        keep = scores >= threshold
        ps, qs, scores = ps[keep], qs[keep], scores[keep]
        resident = np.zeros(ddm.num_partitions, dtype=np.int64)
        resident[list(resident_pids)] = 1
        # len(set(pair) & resident): a (p, p) pair contributes p once.
        resident_members = np.where(
            ps == qs, resident[ps], resident[ps] + resident[qs]
        )
        # Prefer more resident members, then higher score, then low ids
        # (for determinism) — lexsort keys are listed least-significant
        # first, so this reproduces the historical Python sort exactly.
        order = np.lexsort((qs, ps, -scores, -resident_members))
        i = order[0]
        return int(ps[i]), int(qs[i])


class RoundRobinScheduler:
    """Naive baseline scheduler for the scheduling ablation bench.

    Cycles through dirty pairs in id order, ignoring both the DDM deltas
    and partition residency.  Still terminates (it only ever selects
    dirty pairs) but pays more supersteps and more I/O.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def state_dict(self) -> dict:
        return {"cursor": self._cursor}

    def load_state_dict(self, state: dict) -> None:
        self._cursor = int(state.get("cursor", 0))

    def choose_pair(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
    ) -> Optional[Tuple[int, int]]:
        dirty = sorted(ddm.dirty_pairs())
        if not dirty:
            return None
        pair = dirty[self._cursor % len(dirty)]
        self._cursor += 1
        return pair
