"""The packed structure-of-arrays engine: byte-identical index arithmetic.

The packed engine (the default) must produce *byte-identical* stats and
trace payloads to the stepped reference oracle -- on the golden workloads,
across every policy on fig8/9/10-style budget grids, under run-time fabric
contention, and on randomized libraries/applications -- while beating it
on wall clock (the ``repro bench --suite sim`` gate).

Where ``tests/test_sim_event.py`` pins the traced event-driven path, this
suite asserts identity with and without trace collection (the bulk suffix
fold only runs with tracing off, so both configurations must be
exercised), including the RISC baseline's published regimes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    Morpheus4SPolicy,
    RiscModePolicy,
    RisppLikePolicy,
    TaskLevelPolicy,
)
from repro.baselines.static import StaticSelectionPolicy
from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.fabric.datapath import DataPathSpec
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.contention import ContentionEvent, ContentionSchedule
from repro.sim.simulator import (
    ENGINE_MODE_ENV,
    ENGINE_MODES,
    Simulator,
    resolve_engine_mode,
)
from repro.sim.program import (
    Application,
    BlockIteration,
    FunctionalBlock,
    KernelIteration,
)
from repro.workloads.h264 import (
    deblocking_application,
    deblocking_library,
    h264_application,
    h264_library,
)
from repro.workloads.jpeg import jpeg_application, jpeg_library
from repro.bench import FIG8_BUDGETS
from repro.config_env import SELECTOR_MODE_ENV
from repro.core.selector import SELECTOR_MODES
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    SweepCell,
    SweepEngine,
    WorkloadFamily,
    clear_build_memo,
    execute_cell,
)


# --------------------------------------------------------------- helpers


def _run(application, budget, make_library, make_policy, engine,
         contention=None, collect_trace=True):
    return Simulator(
        application,
        make_library(),
        budget,
        make_policy(),
        collect_trace=collect_trace,
        contention=contention,
        engine=engine,
    ).run()


def _ab(application, budget, make_library, make_policy,
         contention_factory=None, collect_trace=True):
    """Run every engine on identical inputs; assert byte-identity against
    the stepped reference.

    Library, policy and contention schedule are built fresh per engine
    (all three are stateful across a run)."""
    results = {}
    for engine in ENGINE_MODES:
        contention = contention_factory() if contention_factory else None
        results[engine] = _run(
            application, budget, make_library, make_policy, engine,
            contention, collect_trace,
        )
    reference = results[ENGINE_MODES[0]]
    for engine in ENGINE_MODES[1:]:
        result = results[engine]
        assert result.stats.to_payload() == reference.stats.to_payload(), (
            f"stats diverged under engine={engine}"
        )
        if collect_trace:
            assert (
                result.trace.to_payload() == reference.trace.to_payload()
            ), f"trace diverged under engine={engine}"
    return results


def _deblocking_scenario():
    """The golden-trace reference scenario (tests/golden/)."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    application = deblocking_application(frames=2, seed=0, scale=0.05)
    return application, budget, lambda: deblocking_library(budget)


def _jpeg_scenario():
    """The second golden-trace scenario (tests/golden/jpeg_mrts.json)."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    application = jpeg_application(images=3, blocks_per_image=60, seed=0)
    return application, budget, lambda: jpeg_library(budget)


# ------------------------------------------------- golden-workload identity


class TestGoldenWorkloads:
    @pytest.mark.parametrize("scenario", [_deblocking_scenario, _jpeg_scenario])
    def test_traced_byte_identical(self, scenario):
        application, budget, make_library = scenario()
        _ab(application, budget, make_library, MRTS)

    @pytest.mark.parametrize("scenario", [_deblocking_scenario, _jpeg_scenario])
    def test_untraced_byte_identical(self, scenario):
        """Without a trace the packed engine takes its bulk suffix fold --
        a different code path that must land on the same statistics."""
        application, budget, make_library = scenario()
        _ab(application, budget, make_library, MRTS, collect_trace=False)

    def test_packed_counters_independent_of_tracing(self):
        """The bulk fold only replaces runs that would all be full-count
        regime hits, so the ECU-call / fast-forward / event counters must
        agree exactly between a traced (per-run) and an untraced run."""
        application, budget, make_library = _deblocking_scenario()
        traced = _ab(application, budget, make_library, MRTS)["packed"]
        untraced = _run(
            application, budget, make_library, MRTS, "packed",
            collect_trace=False,
        )
        assert (
            untraced.stats.engine_payload() == traced.stats.engine_payload()
        )
        stepped = _run(application, budget, make_library, MRTS, "stepped")
        assert traced.stats.ecu_calls < stepped.stats.ecu_calls

    def test_untraced_fold_accounts_for_every_execution(self):
        """With the bulk fold active, every execution is still either a
        cascade call or a fast-forward -- nothing is double counted."""
        application, budget, make_library = _deblocking_scenario()
        stats = _run(
            application, budget, make_library, MRTS, "packed",
            collect_trace=False,
        ).stats
        assert (
            stats.ecu_calls + stats.executions_fastforwarded
            == stats.total_executions
        )
        assert stats.executions_fastforwarded > 0


# ------------------------------------------------------ selector modes


def _selection_modes(result):
    """The ``SelectionResult.mode`` of every selection the run made."""
    return {record.mode for record in result.trace.selections}


class TestSelectorModeHonoured:
    """The asked-for selector is the one that runs, under either engine;
    unasked, every ``ISESelector`` -- subclasses included -- runs
    ``packed``."""

    @pytest.mark.parametrize("engine", ENGINE_MODES)
    @pytest.mark.parametrize("mode", SELECTOR_MODES)
    def test_explicit_mode_runs(self, mode, engine):
        application, budget, make_library = _deblocking_scenario()
        policy = MRTS(MRTSConfig(selector_mode=mode))
        result = _run(
            application, budget, make_library, lambda: policy, engine
        )
        assert policy.selector.mode == mode
        assert _selection_modes(result) == {mode}

    @pytest.mark.parametrize("engine", ENGINE_MODES)
    def test_rispp_selector_runs_packed_by_default(self, engine, monkeypatch):
        from repro.baselines import QuantizedProfitSelector

        monkeypatch.delenv(SELECTOR_MODE_ENV, raising=False)
        application, budget, make_library = _deblocking_scenario()
        policy = RisppLikePolicy()
        result = _run(
            application, budget, make_library, lambda: policy, engine
        )
        assert type(policy.selector) is QuantizedProfitSelector
        assert policy.selector.mode == "packed"
        assert _selection_modes(result) == {"packed"}

    def test_optimal_greedy_plan_runs_packed_by_default(self, monkeypatch):
        from repro.core import optimal as optimal_module
        from repro.core.optimal import OptimalSelector
        from repro.core.selector import ISESelector
        from repro.fabric.reconfig import ReconfigurationController

        monkeypatch.delenv(SELECTOR_MODE_ENV, raising=False)
        modes = []

        class RecordingSelector(ISESelector):
            def select(self, triggers, controller, now):
                result = super().select(triggers, controller, now)
                modes.append(result.mode)
                return result

        monkeypatch.setattr(optimal_module, "ISESelector", RecordingSelector)
        application, budget, make_library = _deblocking_scenario()
        block = application.blocks[0]
        OptimalSelector(make_library()).select(
            application.profiled_triggers(block.name),
            ReconfigurationController(budget),
            0,
        )
        assert modes == ["packed"]


# ----------------------------------------------- policy x budget grid


#: Every policy family of the Figs. 8-10 evaluation.
POLICY_FACTORIES = {
    "mrts": MRTS,
    "risc": RiscModePolicy,
    "rispp": RisppLikePolicy,
    "morpheus4s": Morpheus4SPolicy,
    "tasklevel": TaskLevelPolicy,
    "static": StaticSelectionPolicy,
}

#: Fig. 8-style cut: FG-only, CG-only, and two mixed budgets.
GRID_BUDGETS = ((0, 2), (2, 0), (1, 1), (2, 2))


class TestPolicyGrid:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_engines_identical_across_budgets(self, policy_name):
        application = h264_application(frames=1, seed=11)
        for cg, prc in GRID_BUDGETS:
            budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
            _ab(
                application,
                budget,
                lambda budget=budget: h264_library(budget),
                POLICY_FACTORIES[policy_name],
            )

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_engines_identical_untraced(self, policy_name):
        """The bulk-fold path across every policy family: ECU policies fold
        through the ECU's regimes, the RISC baseline through its own."""
        application = h264_application(frames=1, seed=11)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _ab(
            application,
            budget,
            lambda: h264_library(budget),
            POLICY_FACTORIES[policy_name],
            collect_trace=False,
        )


# --------------------------------------------------------- contention


class TestContention:
    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_periodic_contention_identical(self, collect_trace):
        application = h264_application(frames=2, seed=3)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _ab(
            application,
            budget,
            lambda: h264_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule.periodic(
                period=40_000, duty_prcs=1, duty_cg_slots=1, until=400_000
            ),
            collect_trace=collect_trace,
        )

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_full_contention_identical(self, collect_trace):
        """Everything claimed at t=0, released mid-run: the packed engine
        must drop out of regime hits (and the bulk fold) when
        block-boundary contention events mutate the fabric."""
        application = h264_application(frames=2, seed=3)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _ab(
            application,
            budget,
            lambda: h264_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule(
                [
                    ContentionEvent(time=0, task="bg", n_prcs=2, n_cg_slots=8),
                    ContentionEvent(time=150_000, task="bg"),
                ]
            ),
            collect_trace=collect_trace,
        )


# ------------------------------------------------- randomized workloads


def _spec(kernel_name, index, params):
    word_ops, bit_ops, mem_bytes, fg_depth, sw_cycles, invocations = params
    return DataPathSpec(
        name=f"{kernel_name}.dp{index}",
        word_ops=word_ops,
        bit_ops=bit_ops,
        mem_bytes=mem_bytes,
        fg_depth=fg_depth,
        sw_cycles=sw_cycles,
        invocations=invocations,
    )


datapath_params = st.tuples(
    st.integers(min_value=1, max_value=48),    # word_ops
    st.integers(min_value=0, max_value=64),    # bit_ops
    st.integers(min_value=4, max_value=64),    # mem_bytes
    st.integers(min_value=2, max_value=16),    # fg_depth
    st.integers(min_value=60, max_value=600),  # sw_cycles
    st.integers(min_value=1, max_value=12),    # invocations
)

kernel_shapes = st.lists(
    st.lists(datapath_params, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

iteration_params = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),   # executions
        st.integers(min_value=0, max_value=200),  # gap
    ),
    min_size=2,
    max_size=4,
)


class TestRandomized:
    @settings(max_examples=25, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        demands=iteration_params,
        collect_trace=st.booleans(),
    )
    def test_random_libraries_identical(
        self, shapes, cg, prc, demands, collect_trace
    ):
        kernels = [
            Kernel(
                f"k{k_index}",
                base_cycles=100,
                datapaths=[
                    _spec(f"k{k_index}", d_index, params)
                    for d_index, params in enumerate(datapaths)
                ],
            )
            for k_index, datapaths in enumerate(shapes)
        ]
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        block = FunctionalBlock("B", kernels)
        iterations = [
            BlockIteration(
                "B",
                [
                    KernelIteration(k.name, executions, gap)
                    for k, (executions, gap) in zip(kernels, demand_cycle)
                ],
            )
            for demand_cycle in [demands[i:] + demands[:i] for i in range(3)]
        ]
        application = Application("rand", [block], iterations)
        _ab(
            application,
            budget,
            lambda: ISELibrary(kernels, budget),
            MRTS,
            collect_trace=collect_trace,
        )


# ------------------------------------------------- engine resolution


class TestEngineResolution:
    def test_packed_is_a_registered_mode(self):
        assert "packed" in ENGINE_MODES

    def test_explicit_packed_accepted(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert resolve_engine_mode("packed") == "packed"

    def test_env_packed_respected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "packed")
        assert resolve_engine_mode() == "packed"

    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert resolve_engine_mode() == "packed"

    def test_simulator_honours_env(self, monkeypatch):
        application, budget, make_library = _deblocking_scenario()
        monkeypatch.setenv(ENGINE_MODE_ENV, "packed")
        policy = MRTS()
        result = Simulator(
            application, make_library(), budget, policy, collect_trace=True
        ).run()
        assert result.stats.executions_fastforwarded > 0


# ------------------------------------------------------ RISC regime fold


def _two_kernel_scenario(base_cycles):
    """One block of two kernels whose RISC latency scales with
    ``base_cycles`` (same names, different libraries)."""
    kernels = [
        Kernel(
            name,
            base_cycles=base_cycles,
            datapaths=[_spec(name, 0, (8, 16, 16, 4, 200, 4))],
        )
        for name in ("k0", "k1")
    ]
    budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
    block = FunctionalBlock("B", kernels)
    iterations = [
        BlockIteration(
            "B", [KernelIteration("k0", 30, 12), KernelIteration("k1", 7, 40)]
        )
        for _ in range(3)
    ]
    application = Application("risc", [block], iterations)
    return application, budget, lambda: ISELibrary(kernels, budget)


class TestRiscFold:
    """The RISC baseline's published regimes (plain budget-grid identity is
    the ``risc`` case of :class:`TestPolicyGrid`)."""

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_risc_identical_under_contention(self, collect_trace):
        """Contention bumps the fabric version: the published regimes go
        stale, are rebuilt on the next miss, and nothing else changes."""
        application = h264_application(frames=2, seed=3)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _ab(
            application,
            budget,
            lambda: h264_library(budget),
            RiscModePolicy,
            contention_factory=lambda: ContentionSchedule.periodic(
                period=40_000, duty_prcs=1, duty_cg_slots=1, until=400_000
            ),
            collect_trace=collect_trace,
        )

    def test_risc_policy_called_once_per_kernel(self):
        """With the regimes published, the packed engine asks the RISC
        policy once per kernel for the whole run; every other execution is
        a fast-forward, most of them folded in bulk."""
        application = h264_application(frames=2, seed=7)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        stats = _run(
            application, budget, lambda: h264_library(budget),
            RiscModePolicy, "packed", collect_trace=False,
        ).stats
        executed = {
            kit.kernel
            for iteration in application.iterations
            for kit in iteration.kernels
            if kit.executions
        }
        assert stats.ecu_calls == len(executed)
        assert stats.events_processed == 0
        assert (
            stats.executions_fastforwarded
            == stats.total_executions - len(executed)
        )

    def test_reattached_policy_drops_stale_regimes(self):
        """A policy object reused on another library must not serve the
        previous library's latencies from its regime cache."""
        policy = RiscModePolicy()
        for base_cycles in (100, 900):
            application, budget, make_library = _two_kernel_scenario(base_cycles)
            reused = Simulator(
                application, make_library(), budget, policy, engine="packed"
            ).run()
            fresh = _run(
                application, budget, make_library, RiscModePolicy, "stepped"
            )
            assert reused.stats.to_payload() == fresh.stats.to_payload()


# -------------------------------------------------- RISPP selector modes


class TestRisppSelectorModes:
    def test_rispp_cells_identical_across_selector_modes(self, monkeypatch):
        """``$REPRO_SELECTOR`` must never change a record: the RISPP
        baseline's quantised ``_profit_of`` override holds on the packed
        selector path too (fig8 grid, 1 frame, seed 39)."""
        records = {}
        for mode in SELECTOR_MODES:
            monkeypatch.setenv(SELECTOR_MODE_ENV, mode)
            records[mode] = [
                execute_cell(
                    SweepCell.make(
                        budget, 39, "rispp", workload_params={"frames": 1}
                    )
                )
                for budget in FIG8_BUDGETS
            ]
        for mode in SELECTOR_MODES:
            assert records[mode] == records["naive"], mode


# ------------------------------------------------- per-process memos


class TestBuildOnce:
    def _count_library_builds(self, monkeypatch):
        """Fresh memos plus a counting wrapper around the h264 library
        builder; returns the per-budget build tally."""
        monkeypatch.setattr(engine_module, "_FINGERPRINTS", {})
        clear_build_memo()
        family = engine_module.WORKLOADS["h264"]
        builds = {}

        def counting_library(budget, params):
            key = (budget.n_cg_fabrics, budget.n_prcs)
            builds[key] = builds.get(key, 0) + 1
            return family.library(budget, params)

        monkeypatch.setitem(
            engine_module.WORKLOADS,
            "h264",
            WorkloadFamily("h264", family.application, counting_library),
        )
        return builds

    def test_serial_sweep_compiles_each_library_once(self, monkeypatch):
        builds = self._count_library_builds(monkeypatch)
        cells = [
            SweepCell.make(budget, 0, policy, workload_params={"frames": 1})
            for budget in FIG8_BUDGETS
            for policy in ("risc", "mrts")
        ]
        engine = SweepEngine(use_cache=False, backend="serial")
        engine.run(cells)
        assert builds == {budget: 1 for budget in FIG8_BUDGETS}
        assert engine.stats.libraries_built == len(FIG8_BUDGETS)
        clear_build_memo()

    def test_keying_without_retention_holds_no_library(self, monkeypatch):
        """The service daemon keys cells it never executes: the compiled
        library is hashed and dropped, not memoised."""
        builds = self._count_library_builds(monkeypatch)
        cell = SweepCell.make((1, 1), 0, "mrts", workload_params={"frames": 1})
        key = engine_module.cell_key(cell, retain_library=False)
        assert builds == {(1, 1): 1}
        assert not engine_module._LIB_MEMO
        monkeypatch.setattr(engine_module, "_FINGERPRINTS", {})
        assert engine_module.cell_key(cell) == key

    def test_profiled_triggers_memo_cannot_be_poisoned(self):
        application = h264_application(frames=2, seed=1)
        block = application.blocks[0].name
        first = application.profiled_triggers(block)
        expected = list(first)
        first.clear()
        first.append("junk")
        again = application.profiled_triggers(block)
        assert again == expected
        assert again is not application.profiled_triggers(block)
