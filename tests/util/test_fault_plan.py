"""FaultPlan: seeded determinism across processes and env round-trips.

A failing fuzz seed is only replayable if ``FaultPlan.random(seed)``
builds the *same* plan in a fresh interpreter, and if every knob a plan
can carry survives the trip through ``REPRO_FAULT_*`` environment
variables — the channel the ``serve`` subprocess tests and the CI fault
matrix use to hand plans across process boundaries.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.util.faults import FaultPlan

SEEDS = range(24)


class TestRandomDeterminism:
    def test_same_seed_same_plan_in_process(self):
        for seed in SEEDS:
            assert FaultPlan.random(seed) == FaultPlan.random(seed)

    def test_seeds_cover_every_fault_kind(self):
        plans = [FaultPlan.random(seed) for seed in SEEDS]
        assert any(p.crash_at_write is not None for p in plans)
        assert any(p.flip_byte_at_write is not None for p in plans)
        assert any(p.errno_at_write for p in plans)
        assert any(p.errno_at_read for p in plans)

    def test_same_seed_same_plan_across_processes(self):
        script = (
            "import dataclasses, json\n"
            "from repro.util.faults import FaultPlan\n"
            "print(json.dumps([\n"
            f"    dataclasses.asdict(FaultPlan.random(s)) for s in {list(SEEDS)}\n"
            "]))\n"
        )
        src_root = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src_root), "PATH": "/usr/bin:/bin"},
        )
        remote = json.loads(out.stdout)
        local = [dataclasses.asdict(FaultPlan.random(s)) for s in SEEDS]
        # JSON stringifies integer dict keys; normalize before comparing.
        for plans in (remote, local):
            for plan in plans:
                for key in ("errno_at_write", "errno_at_read"):
                    plan[key] = {int(k): v for k, v in plan[key].items()}
        assert remote == local


class TestEnvRoundTrip:
    def test_every_knob_round_trips(self):
        plan = FaultPlan(
            crash_at_write=3,
            flip_byte_at_write=2,
            errno_at_write={2: errno.EIO, 5: errno.ENOSPC},
            errno_at_read={1: errno.EIO},
            crash_before_commit=4,
            crash_after_commit=6,
        )
        env = plan.to_env()
        assert set(env) == {
            "REPRO_FAULT_CRASH_WRITE",
            "REPRO_FAULT_FLIP_WRITE",
            "REPRO_FAULT_ERRNO_WRITE",
            "REPRO_FAULT_ERRNO_READ",
            "REPRO_FAULT_CRASH_PRECOMMIT",
            "REPRO_FAULT_CRASH_COMMIT",
        }
        assert env["REPRO_FAULT_ERRNO_WRITE"] == "2:EIO,5:ENOSPC"
        assert FaultPlan.from_env(env) == plan

    @pytest.mark.parametrize("seed", list(SEEDS))
    def test_random_plans_round_trip(self, seed):
        plan = FaultPlan.random(seed)
        parsed = FaultPlan.from_env(plan.to_env())
        # torn_bytes has no env knob by design; everything else must
        # survive the trip.
        assert dataclasses.replace(parsed, torn_bytes=plan.torn_bytes) == plan

    def test_empty_plan_sets_no_variables(self):
        assert FaultPlan().to_env() == {}
        assert FaultPlan.from_env({}).empty()

    def test_unset_knobs_stay_unset(self):
        env = FaultPlan(crash_at_write=1).to_env()
        assert env == {"REPRO_FAULT_CRASH_WRITE": "1"}
        parsed = FaultPlan.from_env(env)
        assert parsed.flip_byte_at_write is None
        assert parsed.errno_at_write == {}
