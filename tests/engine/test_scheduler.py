"""Tests for the DDM-delta scheduler."""

import numpy as np
import pytest

from repro.engine import RoundRobinScheduler, Scheduler
from repro.partition import DestinationDistributionMap


def ddm_from(counts):
    return DestinationDistributionMap(np.asarray(counts, dtype=np.int64))


class TestScheduler:
    def test_none_when_finished(self):
        ddm = ddm_from([[1, 0], [0, 0]])
        ddm.mark_synced([0, 1])
        assert Scheduler().choose_pair(ddm, []) is None

    def test_picks_highest_delta_pair(self):
        ddm = ddm_from([[0, 1, 0], [0, 0, 9], [0, 0, 0]])
        pair = Scheduler(slack=0.0).choose_pair(ddm, [])
        assert pair == (1, 2)

    def test_residency_breaks_ties(self):
        ddm = ddm_from([[0, 5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5], [0, 0, 0, 0]])
        pair = Scheduler(slack=0.1).choose_pair(ddm, [2])
        assert pair == (2, 3)

    def test_residency_cannot_override_large_gap(self):
        ddm = ddm_from([[0, 100, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        pair = Scheduler(slack=0.1).choose_pair(ddm, [2, 3])
        assert pair == (0, 1)

    def test_self_pair_allowed(self):
        ddm = ddm_from([[3, 0], [0, 0]])
        pair = Scheduler().choose_pair(ddm, [])
        assert pair == (0, 0)

    def test_deterministic_on_equal_scores(self):
        ddm = ddm_from([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
        pairs = {Scheduler().choose_pair(ddm, []) for _ in range(5)}
        assert len(pairs) == 1


class TestSlackValidation:
    @pytest.mark.parametrize("slack", [-0.1, -1.0, 1.0, 1.5])
    def test_out_of_range_slack_rejected(self, slack):
        """Regression: slack >= 1 made every dirty pair 'within slack' of
        the best, so residency silently overrode the DDM priorities."""
        with pytest.raises(ValueError, match="slack"):
            Scheduler(slack=slack)

    @pytest.mark.parametrize("slack", [0.0, 0.1, 0.99])
    def test_valid_slack_accepted(self, slack):
        assert Scheduler(slack=slack).slack == slack


class TestRoundRobin:
    def test_cycles_through_dirty_pairs(self):
        ddm = ddm_from([[1, 1], [1, 1]])
        scheduler = RoundRobinScheduler()
        seen = {scheduler.choose_pair(ddm, []) for _ in range(6)}
        assert seen == {(0, 0), (0, 1), (1, 1)}

    def test_none_when_finished(self):
        ddm = ddm_from([[1, 0], [0, 0]])
        ddm.mark_synced([0, 1])
        assert RoundRobinScheduler().choose_pair(ddm, []) is None


class TestVectorizedScoring:
    """pair_scores must replicate the scalar pair_dirty/pair_score pair."""

    def test_pair_scores_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            counts = rng.integers(0, 4, size=(n, n))
            ddm = ddm_from(counts)
            # Randomize sync state a little.
            for _ in range(int(rng.integers(0, 3))):
                pids = rng.choice(n, size=2, replace=True)
                ddm.mark_synced([int(p) for p in set(pids)])
                ddm.record_new_edges(
                    int(rng.integers(0, n)), int(rng.integers(0, n)), 1
                )
            expected = [
                (p, q, ddm.pair_score(p, q))
                for p in range(n)
                for q in range(p, n)
                if ddm.pair_dirty(p, q)
            ]
            ps, qs, scores = ddm.pair_scores()
            got = list(zip(ps.tolist(), qs.tolist(), scores.tolist()))
            assert got == expected


class TestPeekChooseOutOfOrder:
    """choose_pair is a function of the DDM state alone: when two pairs'
    joins are applied in either order, the next choice is the same."""

    def counts(self):
        return [
            [0, 9, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 7, 0],
            [0, 0, 0, 0, 5],
            [0, 0, 0, 0, 0],
        ]

    def test_later_choices_independent_of_completion_order(self):
        # Whichever of the two pairs syncs first, the pair the scheduler
        # hands out next is the same (confluence at the scheduling level,
        # with deterministic per-state choices).
        s = Scheduler(slack=0.0)
        orders = [((0, 1), (2, 3)), ((2, 3), (0, 1))]
        chosen = []
        for first_done, second_done in orders:
            ddm = ddm_from(self.counts())
            ddm.mark_synced(first_done)
            ddm.mark_synced(second_done)
            chosen.append(s.choose_pair(ddm, []))
        assert chosen[0] == chosen[1] == (3, 4)
