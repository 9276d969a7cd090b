"""The Execution Control Unit (Section 4.2, Fig. 7).

Every kernel execution is steered onto the best implementation available
*at that moment*:

a) the selected ISE, if all its data paths are reconfigured;
b) otherwise the deepest ready intermediate ISE;
c) otherwise a monoCG-Extension -- the whole kernel on one free CG fabric,
   ready after a microsecond context load -- which the ECU configures on
   demand to bridge the milliseconds until the first FG data path arrives;
d) otherwise RISC mode on the core processor.

Between reconfiguration-completion events the cascade's verdict for a
kernel is piecewise-constant: the only time-dependent inputs are
``ready_at`` crossings of in-flight copies, and the only state mutations
during a functional block are the ECU's own monoCG configurations (selection
commits, pin releases and contention all happen at block boundaries).
:meth:`ExecutionControlUnit.execute_run` exploits this: it returns the
decision *plus* the absolute cycle at which it could change (the horizon),
and caches the regime per kernel, tagged with
:attr:`repro.fabric.resources.ResourceState.version`, so the packed
simulator engine fast-forwards whole runs of executions with a single cascade
evaluation (see docs/simulator.md for the equivalence argument).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.fabric.datapath import FabricType
from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.util.validation import check_non_negative


class ExecutionMode(enum.Enum):
    """How a kernel execution was served (the Fig. 7 cascade)."""

    SELECTED = "selected"          #: fully reconfigured selected ISE
    INTERMEDIATE = "intermediate"  #: a proper prefix of the selected ISE
    MONOCG = "monocg"              #: monoCG-Extension on one CG fabric
    RISC = "risc"                  #: plain core-processor execution


@dataclass(frozen=True)
class ExecutionDecision:
    """The ECU's verdict for one kernel execution."""

    kernel: str
    mode: ExecutionMode
    latency: int    #: core cycles this execution takes
    level: int      #: intermediate-ISE level used (0 unless (a)/(b))
    ise_name: Optional[str] = None


@dataclass(frozen=True)
class ExecutionRun:
    """A batch of back-to-back executions sharing one cascade decision.

    Returned by :meth:`ExecutionControlUnit.execute_run`: ``count``
    executions starting at the queried cycle, spaced ``gap + latency``
    apart, all served exactly like ``decision``.  ``horizon`` is the
    absolute cycle at which the decision could next change (``inf`` when
    no pending event can affect it).  ``cascade_called`` reports whether
    this call actually evaluated the Fig. 7 cascade (False = served from
    the regime cache); ``event_crossed`` reports that a previously cached
    regime had to be recomputed (a horizon crossing or a fabric mutation).
    """

    decision: ExecutionDecision
    count: int
    horizon: float
    cascade_called: bool = True
    event_crossed: bool = False


class Regime:
    """One kernel's cached piecewise-constant execution regime: every
    execution starting before ``horizon`` while the fabric is still at
    ``version`` is served like ``decision`` and touches ``touch_impls``."""

    __slots__ = ("decision", "horizon", "version", "touch_impls")

    def __init__(
        self,
        decision: ExecutionDecision,
        horizon: float,
        version: int,
        touch_impls: Tuple[str, ...],
    ):
        self.decision = decision
        self.horizon = horizon
        self.version = version
        self.touch_impls = touch_impls


class ExecutionControlUnit:
    """Steers kernel executions onto available implementations."""

    def __init__(
        self,
        controller: ReconfigurationController,
        library: ISELibrary,
        enable_monocg: bool = True,
        enable_intermediate: bool = True,
        monocg_breakeven_cycles: int = 5_000,
    ):
        """``monocg_breakeven_cycles``: only burn a CG fabric on a
        monoCG-Extension if the next latency improvement of the selected ISE
        is further away than this (a CG-only ISE ready in microseconds never
        warrants one)."""
        check_non_negative("monocg_breakeven_cycles", monocg_breakeven_cycles)
        self.controller = controller
        self.library = library
        self.enable_monocg = enable_monocg
        self.enable_intermediate = enable_intermediate
        self.monocg_breakeven_cycles = monocg_breakeven_cycles
        self._selection: Dict[str, Optional[ISE]] = {}
        self.monocg_configured_count = 0
        #: kernels whose monoCG-Extension this ECU configured (and therefore
        #: pinned) since the last :meth:`release_monocg_pins`; insertion
        #: ordered so releases stay deterministic.
        self._monocg_pinned: Dict[str, None] = {}
        #: per-kernel cached execution regimes (event-driven fast path).
        self._regimes: Dict[str, Regime] = {}

    # ----------------------------------------------------------- control
    def set_selection(self, selection: Mapping[str, Optional[ISE]]) -> None:
        """Install the selector's output for the current functional block."""
        self._selection = dict(selection)
        self._regimes.clear()

    def clear_selection(self) -> None:
        """Forget the current selection (block exit without successor)."""
        self._selection = {}
        self._regimes.clear()

    def selected_ise(self, kernel_name: str) -> Optional[ISE]:
        """The ISE currently selected for ``kernel_name`` (None = RISC)."""
        return self._selection.get(kernel_name)

    @property
    def regimes(self) -> Dict[str, Regime]:
        """The per-kernel regime cache (read-only view).

        The packed engine
        (:meth:`repro.sim.simulator.Simulator._run_kernels_packed`)
        transcribes the :meth:`execute_run` cache-hit path inline over this
        mapping, deferring the LRU touches (``touch`` keeps the maximum
        timestamp and ``last_used`` is only read at configuration points,
        so flushing them before the next cascade evaluation leaves the
        fabric byte-identical); everyone else should go through
        :meth:`execute_run`."""
        return self._regimes

    def release_monocg_pins(self) -> None:
        """Unpin every monoCG-Extension this ECU configured (called at
        functional-block exit).  Only the kernels whose extensions were
        actually brought onto the fabric are visited -- not the whole
        library; releasing a never-configured owner would be a no-op."""
        for kernel_name in self._monocg_pinned:
            self.controller.release_owner(self._monocg_owner(kernel_name))
        self._monocg_pinned.clear()

    @staticmethod
    def _monocg_owner(kernel_name: str) -> str:
        return f"monocg:{kernel_name}"

    # ---------------------------------------------------------- execution
    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        """Decide how the execution of ``kernel_name`` at ``now`` is served."""
        decision, ise, _, _ = self._cascade(kernel_name, now)
        self._apply_touches(self._touch_impls(decision, ise), now)
        return decision

    def execute_run(
        self,
        kernel_name: str,
        now: int,
        max_executions: int,
        gap: int,
    ) -> ExecutionRun:
        """Serve up to ``max_executions`` back-to-back executions of
        ``kernel_name`` -- the first at cycle ``now``, each later one
        ``gap + latency`` cycles after the previous -- with one cascade
        evaluation (or zero, when the kernel's cached regime is still
        valid).

        Batches ``count = min(max_executions, executions strictly before
        the horizon)`` executions; LRU ``touch`` is applied once with the
        run-end timestamp, which leaves ``last_used`` exactly as the
        per-execution stepped loop would (``touch`` keeps the maximum, and
        eviction decisions only read ``last_used`` at configuration points,
        which end regimes).
        """
        resources = self.controller.resources
        regime = self._regimes.get(kernel_name)
        if (
            regime is not None
            and regime.version == resources.version
            and now < regime.horizon
        ):
            return self._batched(regime, now, max_executions, gap, False, False)

        event_crossed = regime is not None
        decision, ise, raw_level, configured = self._cascade(kernel_name, now)
        if configured:
            # The cascade just scheduled a monoCG-Extension: the fabric
            # mutated under the decision (context load in flight, possible
            # LRU evictions).  Serve a single execution and recompute from
            # the fresh state on the next call rather than reasoning about
            # the post-eviction regime.
            self._regimes.pop(kernel_name, None)
            self._apply_touches(self._touch_impls(decision, ise), now)
            return ExecutionRun(
                decision=decision,
                count=1,
                horizon=float(now + 1),
                cascade_called=True,
                event_crossed=event_crossed,
            )

        regime = Regime(
            decision=decision,
            horizon=self._regime_horizon(kernel_name, ise, raw_level, now),
            version=resources.version,
            touch_impls=self._touch_impls(decision, ise),
        )
        self._regimes[kernel_name] = regime
        return self._batched(regime, now, max_executions, gap, True, event_crossed)

    def _batched(
        self,
        regime: Regime,
        now: int,
        max_executions: int,
        gap: int,
        cascade_called: bool,
        event_crossed: bool,
    ) -> ExecutionRun:
        """Fast-forward arithmetic shared by the hit and miss paths."""
        count = self._executions_until(
            now, regime.horizon, gap, regime.decision.latency, max_executions
        )
        run_end = now + (count - 1) * (gap + regime.decision.latency)
        self._apply_touches(regime.touch_impls, run_end)
        return ExecutionRun(
            decision=regime.decision,
            count=count,
            horizon=regime.horizon,
            cascade_called=cascade_called,
            event_crossed=event_crossed,
        )

    @staticmethod
    def _executions_until(
        now: int, horizon: float, gap: int, latency: int, max_executions: int
    ) -> int:
        """Executions at ``now + i * (gap + latency)`` strictly before
        ``horizon`` (capped at ``max_executions``, at least 1: the first
        decision was evaluated at ``now < horizon``)."""
        if horizon == float("inf"):
            return max_executions
        period = gap + latency
        if period <= 0:
            return max_executions
        span = int(horizon) - now
        if span <= 0:
            return 1
        return max(1, min(max_executions, (span + period - 1) // period))

    # ------------------------------------------------------------ cascade
    def _cascade(
        self, kernel_name: str, now: int
    ) -> Tuple[ExecutionDecision, Optional[ISE], int, bool]:
        """One Fig. 7 cascade evaluation.

        Returns the decision, the selected ISE, the *raw* ready prefix
        level (before the ``enable_intermediate`` adjustment -- the horizon
        computation needs it) and whether a monoCG-Extension was configured
        as a side effect.
        """
        kernel = self.library.kernel(kernel_name)
        resources = self.controller.resources
        ise = self._selection.get(kernel_name)

        raw_level = 0
        level = 0
        if ise is not None:
            raw_level = self._ready_level(ise, now)
            level = raw_level
            if not self.enable_intermediate and level < ise.n_levels:
                level = 0

        best_latency = kernel.risc_latency
        mode = ExecutionMode.RISC
        ise_name: Optional[str] = None
        if ise is not None and level > 0:
            best_latency = ise.latency(level)
            mode = (
                ExecutionMode.SELECTED
                if level == ise.n_levels
                else ExecutionMode.INTERMEDIATE
            )
            ise_name = ise.name

        configured = False
        if self.enable_monocg:
            monocg = self.library.monocg(kernel_name)
            monocg_ready = resources.ready_quantity(monocg.impl_name, now) >= 1
            if monocg_ready and monocg.latency < best_latency:
                best_latency = monocg.latency
                mode = ExecutionMode.MONOCG
                ise_name = monocg.impl_name
                level = 0
            elif not monocg_ready:
                configured = self._maybe_configure_monocg(
                    kernel_name, ise, level, now
                )

        decision = ExecutionDecision(
            kernel=kernel_name,
            mode=mode,
            latency=best_latency,
            level=level,
            ise_name=ise_name,
        )
        return decision, ise, raw_level, configured

    def _touch_impls(
        self, decision: ExecutionDecision, ise: Optional[ISE]
    ) -> Tuple[str, ...]:
        """The implementations one execution marks used (LRU bookkeeping)."""
        if decision.mode in (ExecutionMode.SELECTED, ExecutionMode.INTERMEDIATE):
            assert ise is not None
            return tuple(
                instance.impl.name for instance in ise.instances[: decision.level]
            )
        if decision.mode is ExecutionMode.MONOCG:
            return (self.library.monocg(decision.kernel).impl_name,)
        return ()

    def _apply_touches(self, impl_names: Tuple[str, ...], now: int) -> None:
        resources = self.controller.resources
        for impl_name in impl_names:
            resources.touch(impl_name, now)

    def _regime_horizon(
        self,
        kernel_name: str,
        ise: Optional[ISE],
        raw_level: int,
        now: int,
    ) -> float:
        """Absolute cycle at which the cascade's verdict could change.

        Two event sources bound a regime: the selected ISE's next prefix
        level completing (``ready_at`` crossing of its next instance) and a
        configured-but-loading monoCG-Extension becoming ready.  The
        monoCG breakeven boundary never bounds a regime: the configuration
        window ``next_improvement - now > breakeven`` only *closes* as time
        advances, so if it is open the cascade configures at the regime's
        first execution (ending the regime via the mutation path), and if
        it is closed it stays closed.  All other inputs (free/unpinned
        area, configured quantities, pins) are time-invariant between
        fabric mutations, which invalidate the regime through the resource
        state version.
        """
        horizon = self._next_improvement_at(ise, raw_level)
        if self.enable_monocg:
            resources = self.controller.resources
            monocg = self.library.monocg(kernel_name)
            if (
                resources.ready_quantity(monocg.impl_name, now) < 1
                and resources.configured_quantity(monocg.impl_name) > 0
            ):
                ready = resources.ready_at(monocg.impl_name, 1)
                if ready is not None and ready > now:
                    horizon = min(horizon, float(ready))
        return horizon

    # ------------------------------------------------------------ helpers
    def _ready_level(self, ise: ISE, now: int) -> int:
        """Deepest prefix of ``ise`` whose data paths are all ready."""
        resources = self.controller.resources
        level = 0
        for instance in ise.instances:
            if resources.ready_quantity(instance.impl.name, now) < instance.quantity:
                break
            level += 1
        return level

    def _maybe_configure_monocg(
        self,
        kernel_name: str,
        ise: Optional[ISE],
        level: int,
        now: int,
    ) -> bool:
        """Configure a monoCG-Extension if it would bridge a real gap.

        Returns whether a configuration was actually scheduled."""
        monocg = self.library.monocg(kernel_name)
        if self.controller.resources.configured_quantity(monocg.impl_name) > 0:
            return False  # already in flight
        kernel = self.library.kernel(kernel_name)
        current_latency = (
            ise.latency(level) if (ise is not None and level > 0) else kernel.risc_latency
        )
        if monocg.latency >= current_latency:
            return False
        next_improvement_at = self._next_improvement_at(ise, level)
        if next_improvement_at - now <= self.monocg_breakeven_cycles:
            return False
        if not self.controller.free_cg_fabric_available(now):
            return False
        self.controller.ensure_configured(
            [monocg.instance], owner=self._monocg_owner(kernel_name), now=now
        )
        self._monocg_pinned[kernel_name] = None
        self.monocg_configured_count += 1
        return True

    def _next_improvement_at(self, ise: Optional[ISE], level: int) -> float:
        """Absolute cycle at which the next deeper level becomes ready."""
        if ise is None or level >= ise.n_levels:
            return float("inf")
        next_instance = ise.instances[level]
        ready = self.controller.resources.ready_at(
            next_instance.impl.name, next_instance.quantity
        )
        return float("inf") if ready is None else float(ready)


__all__ = [
    "ExecutionControlUnit",
    "ExecutionDecision",
    "ExecutionMode",
    "ExecutionRun",
    "Regime",
]
