"""Event-driven fast-forwarding: byte-identical to the stepped oracle.

The packed engine fast-forwards runs of executions between availability
events.  It must produce *byte-identical* stats and trace payloads to the
stepped reference loop -- on the golden workload, across every policy on
fig8/9/10-style budget grids, under run-time fabric contention, and on
randomized libraries/applications -- while calling the ECU cascade far
less often.
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
from repro.sim.trace import ExecutionRunRecord
from repro.util.validation import ReproError
from repro.workloads.h264 import (
    deblocking_application,
    deblocking_library,
    h264_application,
    h264_library,
)


# --------------------------------------------------------------- helpers


def _run(application, budget, make_library, make_policy, engine,
         contention=None):
    return Simulator(
        application,
        make_library(),
        budget,
        make_policy(),
        collect_trace=True,
        contention=contention,
        engine=engine,
    ).run()


def _ab(application, budget, make_library, make_policy,
        contention_factory=None):
    """Run both engines on identical inputs; assert byte-identity.

    Library, policy and contention schedule are built fresh per engine
    (all three are stateful across a run)."""
    results = {}
    for engine in ENGINE_MODES:
        contention = contention_factory() if contention_factory else None
        results[engine] = _run(
            application, budget, make_library, make_policy, engine, contention
        )
    stepped, packed = results["stepped"], results["packed"]
    assert stepped.stats.to_payload() == packed.stats.to_payload()
    assert stepped.trace.to_payload() == packed.trace.to_payload()
    return stepped, packed


def _deblocking_scenario():
    """The golden-trace reference scenario (tests/golden/)."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    application = deblocking_application(frames=2, seed=0, scale=0.05)
    return application, budget, lambda: deblocking_library(budget)


# ------------------------------------------------- golden-workload identity


class TestGoldenWorkload:
    def test_deblocking_byte_identical(self):
        application, budget, make_library = _deblocking_scenario()
        stepped, packed = _ab(application, budget, make_library, MRTS)
        assert packed.stats.ecu_calls < stepped.stats.ecu_calls

    def test_stepped_counters_are_trivial(self):
        application, budget, make_library = _deblocking_scenario()
        result = _run(application, budget, make_library, MRTS, "stepped")
        stats = result.stats
        assert stats.ecu_calls == stats.total_executions
        assert stats.executions_fastforwarded == 0
        assert stats.events_processed == 0
        assert result.trace.runs == []

    def test_event_counters_account_for_every_execution(self):
        """The event-driven counters of a traced packed run: every
        execution is a cascade call or a fast-forward."""
        application, budget, make_library = _deblocking_scenario()
        result = _run(application, budget, make_library, MRTS, "packed")
        stats = result.stats
        assert (
            stats.ecu_calls + stats.executions_fastforwarded
            == stats.total_executions
        )
        assert stats.executions_fastforwarded > 0
        assert result.trace.runs
        assert sum(run.count for run in result.trace.runs) == len(
            result.trace.executions
        )

    def test_engine_payload_separate_from_golden_payload(self):
        application, budget, make_library = _deblocking_scenario()
        stats = _run(
            application, budget, make_library, MRTS, "packed"
        ).stats
        engine = stats.engine_payload()
        assert set(engine) == {
            "ecu_calls",
            "executions_fastforwarded",
            "events_processed",
            "fastforward_fraction",
        }
        assert 0.0 < engine["fastforward_fraction"] < 1.0
        # The golden snapshots compare to_payload(); engine counters must
        # never leak into it or the snapshots become engine-dependent.
        assert not set(engine) & set(stats.to_payload())


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

    def test_event_engine_reduces_ecu_calls_for_mrts(self):
        """The event-driven (packed) engine fast-forwards most executions."""
        application = h264_application(frames=2, seed=7)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        stepped, packed = _ab(
            application, budget, lambda: h264_library(budget), MRTS
        )
        assert stepped.stats.ecu_calls >= 5 * packed.stats.ecu_calls


# --------------------------------------------------------- contention


class TestContention:
    def test_periodic_contention_identical(self):
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
        )

    def test_full_contention_identical(self):
        """Everything claimed at t=0, released mid-run: the packed engine
        must re-evaluate regimes when block-boundary contention events
        mutate the fabric."""
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
    )
    def test_random_libraries_identical(self, shapes, cg, prc, demands):
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
        )


# ------------------------------------------------- engine resolution


class TestEngineResolution:
    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert resolve_engine_mode() == "packed"

    def test_retired_event_engine_rejected(self, monkeypatch):
        """The event loop is gone: naming it is an error that lists the
        engines that remain, not a silent fallback."""
        monkeypatch.setenv(ENGINE_MODE_ENV, "event")
        with pytest.raises(ReproError, match=r"\['stepped', 'packed'\]"):
            resolve_engine_mode()
        monkeypatch.delenv(ENGINE_MODE_ENV)
        with pytest.raises(ReproError, match="simulator engine 'event'"):
            resolve_engine_mode("event")

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        assert resolve_engine_mode() == "stepped"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        assert resolve_engine_mode("packed") == "packed"

    @pytest.mark.parametrize("bad", ["fast", "STEPPED", ""])
    def test_invalid_explicit_rejected(self, bad, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        if bad:
            with pytest.raises(ReproError):
                resolve_engine_mode(bad)
        else:
            # Empty string falls through to the default like None.
            assert resolve_engine_mode(bad) == "packed"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "warp")
        with pytest.raises(ReproError):
            resolve_engine_mode()

    def test_simulator_honours_env(self, monkeypatch):
        application, budget, make_library = _deblocking_scenario()
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        result = _run(application, budget, make_library, MRTS, None)
        assert result.trace.runs == []
        assert result.stats.executions_fastforwarded == 0


# ------------------------------------------------- run-record expansion


class TestRunRecord:
    def test_expand_reconstructs_stepped_records(self):
        from repro.core.ecu import ExecutionMode

        run = ExecutionRunRecord(
            time=100,
            block="B",
            kernel="k",
            mode=ExecutionMode.RISC,
            latency=7,
            level=0,
            ise_name=None,
            count=3,
            period=10,
        )
        records = run.expand()
        assert [r.time for r in records] == [100, 110, 120]
        assert all(
            (r.kernel, r.mode, r.latency, r.level) == ("k", ExecutionMode.RISC, 7, 0)
            for r in records
        )
