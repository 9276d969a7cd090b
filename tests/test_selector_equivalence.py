"""The selector core: naive vs. packed A/B equivalence, profit-bound
soundness, tie-break and mode selection.

The packed implementation must be *byte-identical* to the naive Fig. 6
rescan -- same selections, same profits, same logical counters -- while
recomputing fewer profits.  The property tests drive both over randomized
libraries, triggers and warm fabric states.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selector import (
    ISESelector,
    SELECTOR_MODE_ENV,
    SELECTOR_MODES,
    SelectionResult,
    resolve_selector_mode,
)
from repro.core.selector import _beats
from repro.fabric.datapath import DataPathSpec
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ReproError


# --------------------------------------------------------------- helpers


def _spec(kernel_name, index, word_ops, bit_ops, mem_bytes, fg_depth,
          sw_cycles, invocations, mul_ops=0, parallelizable=False):
    return DataPathSpec(
        name=f"{kernel_name}.dp{index}",
        word_ops=word_ops,
        bit_ops=bit_ops,
        mem_bytes=mem_bytes,
        fg_depth=fg_depth,
        sw_cycles=sw_cycles,
        invocations=invocations,
        mul_ops=mul_ops,
        parallelizable=parallelizable,
    )


def _result_view(result: SelectionResult):
    """Everything that must match between the two implementations."""
    return {
        "selected": {
            kernel: None if ise is None else ise.name
            for kernel, ise in result.selected.items()
        },
        "order": result.selection_order(),
        "profits": result.profits,
        "covered_free": result.covered_free,
        "profit_evaluations": result.profit_evaluations,
        "candidates_considered": result.candidates_considered,
        "rounds": result.rounds,
    }


def _select_both(library, triggers, warmup_triggers=None, now=0):
    """Run every selector implementation on identical controller states and
    assert their result views match (naive = packed)."""
    views = []
    results = []
    for mode in SELECTOR_MODES:
        controller = ReconfigurationController(library.budget)
        selector = ISESelector(library, mode=mode)
        t = now
        if warmup_triggers:
            warm = selector.select(warmup_triggers, controller, t)
            controller.commit_selection(warm.selected, owner="warm", now=t)
            t += 2_000
        result = selector.select(triggers, controller, t)
        assert result.mode == mode
        views.append(_result_view(result))
        results.append(result)
    for mode, view in zip(SELECTOR_MODES[1:], views[1:]):
        assert view == views[0], f"{mode} diverged from {SELECTOR_MODES[0]}"
    return results


datapath_params = st.tuples(
    st.integers(min_value=1, max_value=48),    # word_ops
    st.integers(min_value=0, max_value=64),    # bit_ops
    st.integers(min_value=4, max_value=64),    # mem_bytes
    st.integers(min_value=2, max_value=16),    # fg_depth
    st.integers(min_value=60, max_value=600),  # sw_cycles
    st.integers(min_value=1, max_value=12),    # invocations
    st.integers(min_value=0, max_value=6),     # mul_ops
    st.booleans(),                             # parallelizable
)

kernel_shapes = st.lists(
    st.lists(datapath_params, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

trigger_params = st.tuples(
    st.floats(min_value=0.0, max_value=5_000.0),
    st.floats(min_value=0.0, max_value=2_000.0),
    st.floats(min_value=0.0, max_value=1_000.0),
)


def _build_library(shapes, cg, prc):
    kernels = []
    for k_index, datapaths in enumerate(shapes):
        name = f"k{k_index}"
        specs = [
            _spec(name, d_index, *params)
            for d_index, params in enumerate(datapaths)
        ]
        kernels.append(Kernel(name, base_cycles=100, datapaths=specs))
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
    return ISELibrary(kernels, budget), kernels


# ------------------------------------------------- A/B equivalence (d)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
    )
    def test_cold_selection_identical(self, shapes, cg, prc, trigs):
        library, kernels = _build_library(shapes, cg, prc)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(kernels, trigs)
        ]
        naive, packed = _select_both(library, triggers)
        assert naive.evaluations_recomputed == naive.profit_evaluations
        assert naive.evaluations_skipped == naive.evaluations_pruned == 0
        assert naive.invalidations == 0
        assert (
            packed.evaluations_recomputed
            + packed.evaluations_skipped
            + packed.evaluations_pruned
            == packed.profit_evaluations
        )
        assert packed.evaluations_recomputed <= naive.evaluations_recomputed

    @settings(max_examples=30, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=1, max_value=3),
        prc=st.integers(min_value=1, max_value=3),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
    )
    def test_warm_selection_identical(self, shapes, cg, prc, trigs):
        """Coverage, ready times and port backlog from a committed earlier
        selection feed both implementations identically."""
        library, kernels = _build_library(shapes, cg, prc)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(kernels, trigs)
        ]
        warmup = [
            TriggerInstruction(kernel.name, 3_000.0, 200.0, 50.0)
            for kernel in kernels
        ]
        _select_both(library, triggers, warmup_triggers=warmup)

    def test_ulp_over_bound_profit_is_not_pruned(self):
        """Regression (found by hypothesis): the float-summed profit of a
        candidate can exceed ``e * profit_bound_per_execution`` by an ulp
        (109.00000000000001 vs a bound of exactly 109.0).  The old prune
        dropped such a candidate whenever its bound merely *tied* the
        running argmax, so naive selected it and the cached selector did not --
        the pruning must keep BOUND_PRUNE_SLACK of headroom."""
        shapes = [
            [(1, 0, 4, 2, 60, 1, 0, False)],
            [
                (1, 0, 4, 2, 60, 1, 0, False),
                (1, 0, 5, 2, 60, 1, 0, False),
                (1, 23, 4, 2, 74, 3, 1, False),
            ],
        ]
        library, kernels = _build_library(shapes, 1, 1)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(
                kernels, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
            )
        ]
        warmup = [
            TriggerInstruction(kernel.name, 3_000.0, 200.0, 50.0)
            for kernel in kernels
        ]
        _select_both(library, triggers, warmup_triggers=warmup)

    def test_h264_block_equivalence_with_cache_hits(self):
        from repro.workloads.h264 import h264_blocks

        blocks = h264_blocks()
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = ISELibrary(
            [k for block in blocks for k in block.kernels], budget
        )
        kernels = blocks[1].kernels  # EE: 7 kernels, many greedy rounds
        triggers = [
            TriggerInstruction(k.name, 800.0 + 100.0 * i, 300.0, 40.0)
            for i, k in enumerate(kernels)
        ]
        _, packed = _select_both(library, triggers)
        assert packed.evaluations_skipped + packed.evaluations_pruned > 0
        assert 0.0 < packed.cache_hit_rate <= 1.0
        assert packed.evaluations_avoided == (
            packed.evaluations_skipped + packed.evaluations_pruned
        )


# ---------------------------------------------------------- profit bound


class TestProfitBound:
    @settings(max_examples=60, deadline=None)
    @given(
        shapes=kernel_shapes,
        trig=trigger_params,
        delays=st.lists(
            st.floats(min_value=0.0, max_value=5_000.0), min_size=3, max_size=3
        ),
    )
    def test_bound_dominates_profit_for_any_schedule(self, shapes, trig, delays):
        """e * profit_bound_per_execution >= profit(schedule) -- the
        soundness condition of the packed selector's pruning."""
        from repro.core.profit import ise_profit

        library, kernels = _build_library(shapes, 3, 3)
        e, tf, tb = trig
        for kernel in kernels:
            for ise in library.candidate_tuple(kernel.name):
                schedule = sorted(delays[: len(ise.instances)])
                breakdown = ise_profit(ise, e=e, tf=tf, tb=tb,
                                       rec_schedule=schedule)
                bound = e * ise.profit_bound_per_execution
                assert breakdown.profit <= bound + 1e-6 * max(1.0, bound)

    def test_bound_is_precompiled_and_non_negative(self, library):
        for kernel_name in library.kernel_names():
            for ise in library.candidate_tuple(kernel_name):
                expected = max(0, ise.latencies[0] - min(ise.latencies[1:]))
                assert ise.profit_bound_per_execution == expected
                assert ise.profit_bound_per_execution >= 0


# ------------------------------------------------------- tie-break (c)


class TestTieBreak:
    def test_beats_prefers_higher_profit(self):
        assert _beats(2.0, "z", 9, 1.0, "a", 0)
        assert not _beats(1.0, "a", 0, 2.0, "z", 9)

    def test_beats_resolves_ties_lexicographically(self):
        # Equal profit: smaller kernel name wins, then smaller index.
        assert _beats(1.0, "a", 5, 1.0, "b", 0)
        assert not _beats(1.0, "b", 0, 1.0, "a", 5)
        assert _beats(1.0, "a", 0, 1.0, "a", 1)
        assert not _beats(1.0, "a", 1, 1.0, "a", 0)

    def test_equal_profit_kernels_select_in_kernel_order(self):
        """Two structurally identical kernels tie on profit; both
        implementations must commit the lexicographically smaller kernel
        first."""
        params = (24, 16, 32, 8, 300, 6, 2, True)
        shapes = [[params], [params]]
        library, kernels = _build_library(shapes, 3, 3)
        triggers = [
            TriggerInstruction(kernel.name, 1_500.0, 400.0, 80.0)
            for kernel in kernels
        ]
        for result in _select_both(library, triggers):
            order = result.selection_order()
            assert order == sorted(order)
            profits = [result.profits[k] for k in order]
            assert profits[0] == pytest.approx(profits[1])


# ------------------------------------------------------ mode plumbing


class TestModeSelection:
    def test_modes_are_oracle_and_fast_path(self):
        assert SELECTOR_MODES == ("naive", "packed")

    def test_default_is_packed(self, library, monkeypatch):
        monkeypatch.delenv(SELECTOR_MODE_ENV, raising=False)
        assert resolve_selector_mode() == "packed"
        assert ISESelector(library).mode == "packed"

    def test_env_variable_selects_mode(self, library, monkeypatch):
        monkeypatch.setenv(SELECTOR_MODE_ENV, "naive")
        assert ISESelector(library).mode == "naive"

    def test_explicit_mode_overrides_env(self, library, monkeypatch):
        monkeypatch.setenv(SELECTOR_MODE_ENV, "naive")
        assert ISESelector(library, mode="packed").mode == "packed"

    def test_invalid_mode_rejected(self, library, monkeypatch):
        with pytest.raises(ReproError):
            ISESelector(library, mode="turbo")
        monkeypatch.setenv(SELECTOR_MODE_ENV, "bogus")
        with pytest.raises(ReproError):
            ISESelector(library)

    def test_retired_incremental_mode_rejected(self, library, monkeypatch):
        """``incremental`` is retired: asking for it is an error naming
        the valid modes, never a silent fallback."""
        monkeypatch.setenv(SELECTOR_MODE_ENV, "incremental")
        with pytest.raises(ReproError) as excinfo:
            resolve_selector_mode()
        for mode in ("naive", "packed"):
            assert repr(mode) in str(excinfo.value)
        with pytest.raises(ReproError):
            ISESelector(library)

    def test_config_threads_mode_to_policy(self):
        from repro.core.config import MRTSConfig
        from repro.core.mrts import MRTS
        from repro.fabric.reconfig import ReconfigurationController
        from repro.workloads.h264 import h264_library

        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
        library = h264_library(budget)
        policy = MRTS(MRTSConfig(selector_mode="naive"))
        policy.attach(library, ReconfigurationController(budget))
        assert policy.selector.mode == "naive"
