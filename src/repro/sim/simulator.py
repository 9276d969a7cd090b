"""The cycle-level simulator of the multi-grained reconfigurable processor.

Replaces the authors' cycle-accurate instruction-set simulator: it executes
an :class:`~repro.sim.program.Application` against a run-time policy, with
simulated wall-clock time advancing through trigger handling, non-kernel
gaps and kernel executions, while reconfigurations complete at the absolute
cycles the reconfiguration controller scheduled.

The simulator is deliberately policy-agnostic -- mRTS, the RISPP-like,
Morpheus/4S-like, offline-optimal and online-optimal systems all run through
the exact same loop, so the comparisons of Figs. 8-10 are apples-to-apples.

Two interchangeable execution engines drive the kernel loop:

* ``stepped`` -- the reference oracle: one
  :meth:`~repro.sim.policy.RuntimePolicy.execute` call per kernel
  execution.
* ``packed`` (default) -- event-driven fast-forwarding over precompiled
  structure-of-arrays buffers (:mod:`repro.core.packed`).  Between
  availability events a policy's verdict is piecewise-constant, so runs of
  identical executions advance with O(1) arithmetic: regime cache hits
  (:attr:`~repro.sim.policy.RuntimePolicy.regimes`) are served inline with
  LRU touches deferred, misses go through
  :meth:`~repro.sim.policy.RuntimePolicy.execute_run`, and steady-state
  iteration suffixes fold in one pass of prefix-sum arithmetic.

Both engines produce byte-identical statistics and traces (see
docs/simulator.md for the equivalence argument); pick one explicitly via
``Simulator(engine=...)`` or globally via the ``REPRO_SIM`` environment
variable (mirroring the ``REPRO_SELECTOR`` A/B pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.packed import PackedIteration

from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.policy import RuntimePolicy
from repro.sim.program import Application, interleave
from repro.sim.stats import SimulationStats
from repro.sim.trace import (
    ExecutionRecord,
    ExecutionRunRecord,
    SelectionRecord,
    SimulationTrace,
)
#: Environment variable selecting the execution engine (re-exported from
#: the central registry in :mod:`repro.config_env`).
from repro.config_env import ENGINE_MODE_ENV

#: Valid engine implementations.
ENGINE_MODES = ("stepped", "packed")


def resolve_engine_mode(mode: Optional[str] = None) -> str:
    """The engine to use: the explicit ``mode`` if given, else
    ``$REPRO_SIM``, else ``packed``."""
    from repro.config_env import sim_engine_mode

    return sim_engine_mode(mode)


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    policy_name: str
    budget: ResourceBudget
    stats: SimulationStats
    trace: Optional[SimulationTrace] = None
    controller: Optional[ReconfigurationController] = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


class Simulator:
    """Runs one application under one policy on one fabric budget."""

    def __init__(
        self,
        application: Application,
        library: ISELibrary,
        budget: ResourceBudget,
        policy: RuntimePolicy,
        collect_trace: bool = False,
        contention=None,
        engine: Optional[str] = None,
    ):
        """``contention`` optionally supplies a
        :class:`repro.sim.contention.ContentionSchedule`: background tasks
        claiming/releasing fabric at run time (the paper's run-time
        variation (b)).  Events are applied at functional-block boundaries.

        ``engine`` picks the execution engine (``"stepped"`` |
        ``"packed"``); ``None`` defers to ``$REPRO_SIM`` and finally to
        ``packed``.
        """
        self.application = application
        self.library = library
        self.budget = budget
        self.policy = policy
        self.collect_trace = collect_trace
        self.contention = contention
        self.engine = engine
        #: id(iteration) -> packed buffers, installed per packed run.
        self._packed_iterations: Optional[Dict[int, "PackedIteration"]] = None

    def run(self) -> SimulationResult:
        """Execute the application start to finish; returns the result."""
        engine = resolve_engine_mode(self.engine)
        controller = ReconfigurationController(self.budget)
        self.policy.attach(self.library, controller)
        self.policy.prepare(self.application)

        stats = SimulationStats()
        trace = SimulationTrace() if self.collect_trace else None
        # Profiled triggers are burnt into the binary at compile time: one
        # (memoised) list per block for the whole run.
        profiled = {
            block.name: self.application.profiled_triggers(block.name)
            for block in self.application.blocks
        }
        if engine == "packed":
            # Imported lazily: repro.core.packed pulls in repro.sim.program,
            # whose package __init__ imports this module.
            from repro.core.packed import pack_program

            program = pack_program(self.application)
            self._packed_iterations = {
                id(iteration): packed_iteration
                for iteration, packed_iteration in zip(
                    self.application.iterations, program.iterations
                )
            }
            run_kernels = self._run_kernels_packed
        else:
            run_kernels = self._run_kernels_stepped

        t = 0
        for iteration in self.application.iterations:
            block_entry = t
            if self.contention is not None:
                self.contention.apply_due(controller, t)
            outcome = self.policy.on_block_entry(
                iteration.block, profiled[iteration.block], t
            )
            t += outcome.charged_overhead_cycles
            stats.overhead_cycles_charged += outcome.charged_overhead_cycles
            stats.overhead_cycles_full += outcome.full_overhead_cycles
            stats.selections += 1
            # Selector-core observability: policies whose selection outcome
            # carries a SelectionResult-shaped detail (duck-typed) feed the
            # cache/evaluation counters; baselines without one are skipped.
            detail = outcome.detail
            if detail is not None and hasattr(detail, "profit_evaluations"):
                stats.record_selection_detail(detail)
                if trace is not None:
                    trace.record_selection(
                        SelectionRecord(
                            time=block_entry,
                            block=iteration.block,
                            mode=getattr(detail, "mode", "?"),
                            rounds=detail.rounds,
                            profit_evaluations=detail.profit_evaluations,
                            evaluations_recomputed=detail.evaluations_recomputed,
                            evaluations_skipped=detail.evaluations_skipped,
                            evaluations_pruned=detail.evaluations_pruned,
                            invalidations=detail.invalidations,
                        )
                    )

            first: Dict[str, int] = {}
            last: Dict[str, int] = {}
            counts: Dict[str, int] = {}
            latency_sums: Dict[str, int] = {}
            t = run_kernels(
                iteration, t, stats, trace, first, last, counts, latency_sums
            )

            observed = self._observed_timings(
                iteration, block_entry, first, last, counts, latency_sums
            )
            self.policy.on_block_exit(iteration.block, observed, t)
            stats.record_block(iteration.block, t - block_entry)
            if trace is not None:
                trace.record_block_window(iteration.block, block_entry, t)

        stats.total_cycles = t
        stats.reconfigurations = controller.reconfig_count
        return SimulationResult(
            policy_name=self.policy.name,
            budget=self.budget,
            stats=stats,
            trace=trace,
            controller=controller,
        )

    # ------------------------------------------------------------ engines
    def _run_kernels_stepped(
        self,
        iteration,
        t: int,
        stats: SimulationStats,
        trace: Optional[SimulationTrace],
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """The reference loop: one policy call per kernel execution."""
        for kernel_name, gap in interleave(iteration.kernels):
            t += gap
            stats.gap_cycles += gap
            decision = self.policy.execute(kernel_name, t)
            stats.ecu_calls += 1
            first.setdefault(kernel_name, t)
            counts[kernel_name] = counts.get(kernel_name, 0) + 1
            latency_sums[kernel_name] = (
                latency_sums.get(kernel_name, 0) + decision.latency
            )
            stats.record_execution(decision.mode, decision.latency)
            if trace is not None:
                trace.record_execution(
                    ExecutionRecord(
                        time=t,
                        block=iteration.block,
                        kernel=kernel_name,
                        mode=decision.mode,
                        latency=decision.latency,
                        level=decision.level,
                        ise_name=decision.ise_name,
                    )
                )
            t += decision.latency
            last[kernel_name] = t
        return t

    def _run_kernels_packed(
        self,
        iteration,
        t: int,
        stats: SimulationStats,
        trace: Optional[SimulationTrace],
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """Event-driven fast-forwarding over precompiled structure-of-arrays
        buffers.

        Byte-identical to :meth:`_run_kernels_stepped` (see
        docs/simulator.md for the full argument):

        * a run starts with one policy verdict that holds until the next
          availability event; the run's executions are advanced with O(1)
          arithmetic;
        * regime cache hits (:attr:`RuntimePolicy.regimes`) are a
          line-for-line transcription of
          :meth:`repro.core.ecu.ExecutionControlUnit.execute_run`'s hit
          path (``_batched`` + ``_executions_until``), with the LRU touch
          deferred -- ``touch`` keeps the maximum timestamp and
          ``last_used`` is only read at configuration points, all of which
          flush the deferred touches first;
        * misses, and every run of a policy without regimes, go through
          ``policy.execute_run``;
        * the bulk suffix fold only fires when tracing is off and every
          kernel still owed executions sits in a version-valid regime with
          an infinite horizon and has already executed this block -- i.e.
          when every remaining run would be a full-count cache hit -- and
          folds the per-run arithmetic with the precomputed prefix sums.
        """
        assert self._packed_iterations is not None
        packed = self._packed_iterations[id(iteration)]
        policy = self.policy
        regimes = policy.regimes
        resources = policy.controller.resources
        inf = float("inf")
        block = iteration.block

        # Local accumulators, merged into ``stats`` once at the end.
        ecu_calls = 0
        fastforwarded = 0
        events = 0
        gap_cycles = 0
        kernel_cycles = 0
        exec_by_mode: Dict[str, int] = {}
        cycles_by_mode: Dict[str, int] = {}
        # kernel -> (impl names, run-end timestamp): deferred LRU touches.
        pending_touch: Dict[str, Tuple[Tuple[str, ...], int]] = {}

        runs = packed.runs
        n_runs = packed.n_runs
        gap_suffix = packed.gap_suffix
        cnt_prefix = packed.cnt_prefix
        total_cnt = packed.total_cnt
        last_run_of = packed.last_run_of
        bulk_ok = trace is None and regimes is not None
        try_bulk = bulk_ok

        j = 0
        while j < n_runs:
            if try_bulk:
                try_bulk = False
                version = resources.version
                suffix = []
                feasible = True
                for k in packed.kernels:
                    cnt = total_cnt[k] - cnt_prefix[k][j]
                    if cnt <= 0:
                        continue
                    regime = regimes.get(k)
                    if (
                        regime is None
                        or regime.version != version
                        or regime.horizon != inf
                        or k not in first
                    ):
                        feasible = False
                        break
                    suffix.append((k, cnt, regime))
                if feasible and suffix:
                    # Every remaining run is a full-count cache hit: fold
                    # them.  Each group of length L advances t by
                    # L * (gap + latency), so the suffix advances t by the
                    # remaining gap mass plus each kernel's remaining
                    # executions times its regime latency.
                    base_gap = gap_suffix[j]
                    advance = base_gap
                    for k, cnt, regime in suffix:
                        advance += cnt * regime.decision.latency
                    for k, cnt, regime in suffix:
                        decision = regime.decision
                        latency = decision.latency
                        m = last_run_of[k]
                        # Simulated time at the start of k's last group:
                        # gaps and executions of every group in runs[j:m].
                        t_m = t + (base_gap - gap_suffix[m])
                        for k2, _, regime2 in suffix:
                            t_m += (
                                cnt_prefix[k2][m] - cnt_prefix[k2][j]
                            ) * regime2.decision.latency
                        _, gap_m, len_m = runs[m]
                        end = t_m + len_m * (gap_m + latency)
                        last[k] = end
                        pending_touch[k] = (regime.touch_impls, end - latency)
                        counts[k] = counts.get(k, 0) + cnt
                        latency_sums[k] = latency_sums.get(k, 0) + cnt * latency
                        key = decision.mode.value
                        exec_by_mode[key] = exec_by_mode.get(key, 0) + cnt
                        cycles_by_mode[key] = (
                            cycles_by_mode.get(key, 0) + cnt * latency
                        )
                        kernel_cycles += cnt * latency
                        fastforwarded += cnt
                    gap_cycles += base_gap
                    t += advance
                    break
            kernel_name, gap, remaining = runs[j]
            j += 1
            while remaining > 0:
                start = t + gap
                regime = (
                    regimes.get(kernel_name) if regimes is not None else None
                )
                if (
                    regime is not None
                    and regime.version == resources.version
                    and start < regime.horizon
                ):
                    # Transcribed regime cache hit (touch deferred).
                    decision = regime.decision
                    latency = decision.latency
                    horizon = regime.horizon
                    period = gap + latency
                    if horizon == inf or period <= 0:
                        count = remaining
                    else:
                        span = int(horizon) - start
                        if span <= 0:
                            count = 1
                        else:
                            count = max(
                                1, min(remaining, (span + period - 1) // period)
                            )
                    pending_touch[kernel_name] = (
                        regime.touch_impls, start + (count - 1) * period
                    )
                    fastforwarded += count
                    if kernel_name not in first:
                        # A kernel's first execution this block may complete
                        # the bulk fold's preconditions: retry at the next
                        # group boundary.
                        try_bulk = bulk_ok
                else:
                    # Miss: flush deferred touches (the cascade may
                    # configure and evict by last_used), then ask the policy.
                    if pending_touch:
                        self._flush_touches(resources, pending_touch)
                    run = policy.execute_run(kernel_name, start, remaining, gap)
                    decision = run.decision
                    latency = decision.latency
                    count = run.count
                    period = gap + latency
                    if run.cascade_called:
                        ecu_calls += 1
                        fastforwarded += count - 1
                    else:
                        fastforwarded += count
                    if run.event_crossed:
                        events += 1
                    # The miss may have rebuilt a regime: the bulk fold's
                    # preconditions may now hold.
                    try_bulk = bulk_ok
                gap_cycles += count * gap
                if kernel_name not in first:
                    first[kernel_name] = start
                counts[kernel_name] = counts.get(kernel_name, 0) + count
                latency_sums[kernel_name] = (
                    latency_sums.get(kernel_name, 0) + count * latency
                )
                key = decision.mode.value
                exec_by_mode[key] = exec_by_mode.get(key, 0) + count
                cycles_by_mode[key] = cycles_by_mode.get(key, 0) + count * latency
                kernel_cycles += count * latency
                if trace is not None:
                    trace.record_execution_run(
                        ExecutionRunRecord(
                            time=start,
                            block=block,
                            kernel=kernel_name,
                            mode=decision.mode,
                            latency=latency,
                            level=decision.level,
                            ise_name=decision.ise_name,
                            count=count,
                            period=period,
                        )
                    )
                t = start + (count - 1) * period + latency
                last[kernel_name] = t
                remaining -= count
        if pending_touch:
            self._flush_touches(resources, pending_touch)
        stats.ecu_calls += ecu_calls
        stats.executions_fastforwarded += fastforwarded
        stats.events_processed += events
        stats.gap_cycles += gap_cycles
        stats.kernel_cycles += kernel_cycles
        by_mode = stats.executions_by_mode
        for key, value in exec_by_mode.items():
            by_mode[key] = by_mode.get(key, 0) + value
        by_mode = stats.cycles_by_mode
        for key, value in cycles_by_mode.items():
            by_mode[key] = by_mode.get(key, 0) + value
        return t

    @staticmethod
    def _flush_touches(
        resources, pending_touch: Dict[str, Tuple[Tuple[str, ...], int]]
    ) -> None:
        """Apply and clear the packed engine's deferred LRU touches."""
        for impl_names, touch_time in pending_touch.values():
            for impl_name in impl_names:
                resources.touch(impl_name, touch_time)
        pending_touch.clear()

    @staticmethod
    def _observed_timings(
        iteration,
        block_entry: int,
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> Dict[str, Tuple[float, float, float]]:
        """Actual (executions, tf, tb) per kernel, as the MPU would measure.

        ``tb`` is the mean time between the end of one execution and the
        start of the next (Eq. 3 models one period as ``latency + tb``):
        the kernel's span minus its own execution latencies, divided by the
        number of in-between intervals.
        """
        observed: Dict[str, Tuple[float, float, float]] = {}
        for kit in iteration.kernels:
            e = counts.get(kit.kernel, 0)
            if e == 0:
                observed[kit.kernel] = (0.0, 0.0, 0.0)
                continue
            tf = float(first[kit.kernel] - block_entry)
            if e > 1:
                span = last[kit.kernel] - first[kit.kernel]
                gaps_total = span - latency_sums[kit.kernel]
                tb = max(0.0, gaps_total / (e - 1))
            else:
                tb = 0.0
            observed[kit.kernel] = (float(e), tf, tb)
        return observed


__all__ = [
    "ENGINE_MODES",
    "ENGINE_MODE_ENV",
    "Simulator",
    "SimulationResult",
    "resolve_engine_mode",
]
