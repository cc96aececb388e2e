"""Unit tests for the non-iterative baseline scheduler [31]."""

import json
import pathlib

import pytest

from repro import LoopBuilder, MirsC, NonIterativeScheduler, parse_config, verify_schedule
from repro.exec import result_fingerprint
from repro.workloads.perfect import cached_suite

from tests.helpers import FOUR_CLUSTER, UNIFIED, daxpy, reduction, wide


class TestBaselineBehaviour:
    def test_schedules_simple_loops(self):
        result = NonIterativeScheduler(UNIFIED).schedule(daxpy())
        assert result.converged
        assert result.ii >= result.mii

    def test_never_ejects(self):
        result = NonIterativeScheduler(FOUR_CLUSTER).schedule(wide(8))
        assert result.converged
        assert result.stats.ejections == 0

    def test_never_spills(self):
        machine = parse_config("1-(GP8M4-REG12)")
        b = LoopBuilder("pressure", trip_count=10)
        loads = [b.load(array=i) for i in range(6)]
        acc = loads[0]
        for load in loads[1:]:
            acc = b.add(acc, load)
        b.store(acc, array=99)
        graph = b.build()
        result = NonIterativeScheduler(machine).schedule(graph)
        assert result.spill_operations == 0
        if result.converged:
            # Register shortage was resolved purely by raising the II.
            assert result.ii >= result.mii

    def test_verifier_accepts_results(self):
        graph = daxpy()
        result = NonIterativeScheduler(FOUR_CLUSTER).schedule(graph)
        assert result.converged
        violations = verify_schedule(
            result.graph,
            FOUR_CLUSTER,
            result.ii,
            result.times,
            result.clusters,
            result.register_usage,
        )
        assert violations == []

    @staticmethod
    def _invariant_heavy():
        """Six invariants, each feeding its own link of a chain.

        Invariants pin one register each for the baseline at *any* II
        (6 > 4 registers: structurally non-convergent), but MIRS-C can
        re-materialize each one next to its consumer and fit in 4.
        """
        b = LoopBuilder("invheavy", trip_count=10)
        node = b.add()
        inv = b.invariant("c0")
        inv.consumers.add(node.id)
        for i in range(1, 6):
            node = b.add(node)
            inv = b.invariant(f"c{i}")
            inv.consumers.add(node.id)
        b.store(node, array=0)
        return b.build()

    def test_non_convergence_on_impossible_pressure(self):
        machine = parse_config("1-(GP8M4-REG4)")
        result = NonIterativeScheduler(machine).schedule(
            self._invariant_heavy()
        )
        assert not result.converged
        with pytest.raises(ValueError):
            _ = result.execution_cycles

    def test_mirsc_converges_where_baseline_cannot(self):
        machine = parse_config("1-(GP8M4-REG4)")
        graph = self._invariant_heavy()
        assert not NonIterativeScheduler(machine).schedule(graph).converged
        ours = MirsC(machine).schedule(graph)
        assert ours.converged
        assert all(r <= 4 for r in ours.register_usage.values())


class TestHeadToHead:
    @pytest.mark.parametrize("machine_name", [
        "1-(GP8M4-REGinf)", "2-(GP4M2-REGinf)", "4-(GP2M1-REGinf)",
    ])
    def test_mirsc_never_worse_on_ii_unbounded(self, machine_name):
        machine = parse_config(machine_name)
        for graph in (daxpy(), reduction(), wide(4)):
            ours = MirsC(machine).schedule(graph)
            base = NonIterativeScheduler(machine).schedule(graph)
            assert ours.converged
            if base.converged:
                assert ours.ii <= base.ii


class TestBaselineFingerprints:
    """The baseline's results on the 16-loop workbench, pinned.

    ``tests/data/baseline_fingerprints.json`` holds
    :func:`~repro.exec.result_fingerprint` of every loop on both
    reference machines, captured before the baseline shared MIRS-C's
    result builder and register-fit check.
    """

    EXPECTED = json.loads(
        (
            pathlib.Path(__file__).parent / "data" / "baseline_fingerprints.json"
        ).read_text()
    )

    @pytest.mark.parametrize("config", sorted(EXPECTED))
    def test_workbench_fingerprints_match_capture(self, config):
        expected = self.EXPECTED[config]
        machine = parse_config(config)
        results = {
            loop.graph.name: NonIterativeScheduler(machine).schedule(loop.graph)
            for loop in cached_suite(16)
        }
        assert set(results) == set(expected)
        mismatched = [
            name
            for name, result in results.items()
            if result_fingerprint(result) != expected[name]
        ]
        assert mismatched == []
