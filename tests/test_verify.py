"""The verifier must catch planted violations (it guards every result)."""

import pytest

from repro import LoopBuilder, MirsC, OpKind, parse_config, verify_schedule
from repro.core.request import ScheduleRequest
from repro.workloads.perfect import cached_suite

from tests.helpers import TWO_CLUSTER, UNIFIED, daxpy, wide


@pytest.fixture
def valid_result():
    return MirsC(UNIFIED).schedule(daxpy())


class TestVerifier:
    def test_valid_schedule_passes(self, valid_result):
        violations = verify_schedule(
            valid_result.graph,
            UNIFIED,
            valid_result.ii,
            valid_result.times,
            valid_result.clusters,
            valid_result.register_usage,
        )
        assert violations == []

    def test_detects_missing_node(self, valid_result):
        times = dict(valid_result.times)
        victim = next(iter(times))
        del times[victim]
        violations = verify_schedule(
            valid_result.graph, UNIFIED, valid_result.ii,
            times, valid_result.clusters,
        )
        assert any("not scheduled" in v for v in violations)

    def test_detects_dependence_violation(self, valid_result):
        times = dict(valid_result.times)
        graph = valid_result.graph
        edge = next(iter(graph.edges()))
        times[edge.dst] = times[edge.src] - 100
        violations = verify_schedule(
            graph, UNIFIED, valid_result.ii, times, valid_result.clusters
        )
        assert any("violated" in v for v in violations)

    def test_detects_resource_oversubscription(self):
        b = LoopBuilder("over")
        loads = [b.load(array=i) for i in range(5)]
        graph = b.build()
        times = {load.id: 0 for load in loads}  # 5 loads, 4 ports, II=1
        clusters = {load.id: 0 for load in loads}
        violations = verify_schedule(graph, UNIFIED, 1, times, clusters)
        assert any("resource conflict" in v for v in violations)

    def test_detects_cross_cluster_register_use(self):
        b = LoopBuilder("cross")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        times = {x.id: 0, y.id: 10}
        clusters = {x.id: 0, y.id: 1}  # no move in between!
        violations = verify_schedule(graph, TWO_CLUSTER, 4, times, clusters)
        assert any("cross-cluster" in v for v in violations)

    def test_detects_register_overuse(self, valid_result):
        violations = verify_schedule(
            valid_result.graph,
            UNIFIED,
            valid_result.ii,
            valid_result.times,
            valid_result.clusters,
            register_usage={0: 10_000},
        )
        assert any("registers" in v for v in violations)


class TestInstanceAssignment:
    """Regression (found by the paper-scale nightly suite): first-fit
    replay of multi-row reservations is placement-order-dependent, so a
    *valid* schedule with unpipelined divides could be reported as a
    resource conflict when replayed in node-id order."""

    def _div_machine(self):
        from repro import parse_config

        return parse_config("1-(GP2M1-REG64)")  # 2 FUs; DIV occupies 17

    def _div_schedule(self):
        """2 FUs, II=34: in id order (A, B, C, D) the first-fit replay
        parks C on the instance D needs; the only valid assignment is
        {A, D} / {B, C}, which an exact solver must find."""
        from repro import DependenceGraph, OpKind

        graph = DependenceGraph(name="divpack", trip_count=10)
        a = graph.new_node(OpKind.DIV)  # rows 0..16
        b_node = graph.new_node(OpKind.DIV)  # rows 16..32
        c = graph.new_node(OpKind.ADD)  # row 33
        d = graph.new_node(OpKind.DIV)  # rows 17..33
        times = {a.id: 0, b_node.id: 16, c.id: 33, d.id: 17}
        clusters = {n: 0 for n in times}
        return graph, times, clusters

    def test_valid_multi_row_packing_accepted(self):
        graph, times, clusters = self._div_schedule()
        violations = verify_schedule(
            graph, self._div_machine(), 34, times, clusters
        )
        assert violations == []

    def test_first_fit_replay_would_have_rejected_it(self):
        """Pin the motivating asymmetry: the MRT's own first-fit replay
        (the old verifier) fails on the same schedule in id order."""
        from repro import SchedulingError
        from repro.schedule.mrt import ModuloReservationTable

        graph, times, clusters = self._div_schedule()
        mrt = ModuloReservationTable(self._div_machine(), 34)
        with pytest.raises(SchedulingError, match="resource conflict"):
            for node in sorted(graph.nodes(), key=lambda n: n.id):
                mrt.place(node, clusters[node.id], times[node.id])

    def test_truly_infeasible_packing_rejected(self):
        """Three overlapping divides on 2 FUs: no assignment exists and
        the exact check must say so (row capacity already catches it)."""
        from repro import DependenceGraph, OpKind

        graph = DependenceGraph(name="divover", trip_count=10)
        nodes = [graph.new_node(OpKind.DIV) for _ in range(3)]
        times = {n.id: 0 for n in nodes}  # identical rows 0..16
        clusters = {n.id: 0 for n in nodes}
        violations = verify_schedule(
            graph, self._div_machine(), 34, times, clusters
        )
        assert any("resource conflict" in v for v in violations)


# ----------------------------------------------------------------------
# Every backend's converged results come from one builder
# ----------------------------------------------------------------------

SCHEDULERS = ("mirsc", "baseline", "smt")


def _workbench_loop(name):
    return next(
        loop.graph for loop in cached_suite(16) if loop.graph.name == name
    )


BUILDER_LOOPS = {
    "daxpy": daxpy,
    "wide": lambda: wide(8),
    # Spills and moves on the 16-register two-cluster machine (MIRS-C);
    # past the exact backend's step budget, so the heuristics only.
    "stencil864@x2": lambda: _workbench_loop("stencil864@x2"),
}


class TestConvergedResult:
    @pytest.mark.parametrize(
        "scheduler, loop",
        [(s, loop) for s in SCHEDULERS for loop in ("daxpy", "wide")]
        + [(s, "stencil864@x2") for s in ("mirsc", "baseline")],
    )
    def test_builder_invariants(self, scheduler, loop):
        machine = parse_config("2-(GP4M2-REG16)")
        result = ScheduleRequest(scheduler=scheduler).make_scheduler(
            machine
        ).schedule(BUILDER_LOOPS[loop]())
        assert result.converged
        nodes = list(result.graph.nodes())
        assert result.spill_operations == sum(1 for n in nodes if n.is_spill)
        assert result.move_operations == sum(
            1 for n in nodes if n.kind is OpKind.MOVE
        )
        assert result.memory_traffic == sum(
            1 for n in nodes if n.kind.is_memory
        )
        for cluster, live in result.max_live.items():
            assert live <= result.register_usage[cluster]
        assert verify_schedule(
            result.graph,
            machine,
            result.ii,
            result.times,
            result.clusters,
            result.register_usage,
        ) == []

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_make_scheduler_forwards_verify(self, scheduler):
        request = ScheduleRequest(scheduler=scheduler)
        assert request.make_scheduler(UNIFIED, verify=False).verify is False
        assert request.make_scheduler(UNIFIED).verify is True
