"""Pure RISC-mode execution: the speedup reference of the evaluation.

Every kernel executes using the basic instruction set of the core processor
(footnote 3 of the paper); the reconfigurable fabrics stay dark.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.ecu import ExecutionDecision, ExecutionMode, ExecutionRun, Regime
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.trigger import TriggerInstruction


class RiscModePolicy(RuntimePolicy):
    """No acceleration: the first bar/combination of Figs. 8 and 10."""

    name = "risc"

    def __init__(self) -> None:
        super().__init__()
        self._regimes: Dict[str, Regime] = {}

    def attach(self, library, controller) -> None:
        super().attach(library, controller)
        self._regimes = {}

    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        return SelectionOutcome()

    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        library, _ = self._require_attached()
        kernel = library.kernel(kernel_name)
        return ExecutionDecision(
            kernel=kernel_name,
            mode=ExecutionMode.RISC,
            latency=kernel.risc_latency,
            level=0,
        )

    def execute_run(
        self,
        kernel_name: str,
        now: int,
        max_executions: int,
        gap: int,
    ) -> ExecutionRun:
        """RISC latency is time-invariant, so a whole run is one decision.

        The decision is also published as an infinite-horizon regime that
        touches nothing, so the packed engine serves every later run of
        the kernel -- and folds whole iteration suffixes -- without calling
        back.  Tagging it with the fabric version keeps the engine's
        validity check exact when contention mutates the fabric."""
        _, controller = self._require_attached()
        decision = self.execute(kernel_name, now)
        self._regimes[kernel_name] = Regime(
            decision, float("inf"), controller.resources.version, ()
        )
        return ExecutionRun(
            decision=decision,
            count=max_executions,
            horizon=float("inf"),
        )

    @property
    def regimes(self) -> Dict[str, Regime]:
        return self._regimes


__all__ = ["RiscModePolicy"]
