"""Kernels: the compute-intensive loops accelerated by ISEs.

A kernel (footnote 1 of the paper: "the compute-intensive loops, which are
executed most often in a program") is characterised by the data paths it can
off-load to the reconfigurable fabric and by the software cycles it costs
when none of them is configured (RISC-mode execution on the core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.fabric.datapath import DataPathSpec
from repro.util.validation import ValidationError, check_non_negative, check_positive


@dataclass(frozen=True)
class Kernel:
    """An application kernel.

    Parameters
    ----------
    name:
        Unique kernel identifier, e.g. ``"lf.deblock_luma"``.
    base_cycles:
        Core cycles per execution spent *outside* the data paths (loop
        control, address generation, ...); this part is never accelerated.
    datapaths:
        The data-path specs of the kernel, in data-flow order (adjacent data
        paths exchange results, which is what makes fabric-boundary crossings
        of multi-grained ISEs cost interconnect hops).
    monocg_speedup:
        Speedup of the monoCG-Extension over RISC mode: the whole kernel,
        software-pipelined onto the two ALUs / two register files of a single
        CG fabric with zero-overhead loops (Section 4.2).
    """

    name: str
    base_cycles: int
    datapaths: Tuple[DataPathSpec, ...]
    monocg_speedup: float = 2.2
    #: Core cycles of one execution in RISC mode (Eq. 1's ``sw_time``),
    #: derived once at construction: the RISC baseline and the ECU's
    #: fallback read it on every execution.
    risc_latency: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        name: str,
        base_cycles: int,
        datapaths: Sequence[DataPathSpec],
        monocg_speedup: float = 2.2,
    ):
        if not name:
            raise ValidationError("Kernel.name must be non-empty")
        check_non_negative("Kernel.base_cycles", base_cycles)
        if not datapaths:
            raise ValidationError(f"Kernel {name!r} needs at least one data path")
        names = [dp.name for dp in datapaths]
        if len(set(names)) != len(names):
            raise ValidationError(f"Kernel {name!r} has duplicate data paths: {names}")
        check_positive("Kernel.monocg_speedup", monocg_speedup)
        if monocg_speedup < 1.0:
            raise ValidationError(
                f"monocg_speedup must be >= 1 (got {monocg_speedup}): the ECU "
                "falls back to RISC mode when CG execution would be slower"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base_cycles", base_cycles)
        object.__setattr__(self, "datapaths", tuple(datapaths))
        object.__setattr__(self, "monocg_speedup", monocg_speedup)
        object.__setattr__(
            self,
            "risc_latency",
            base_cycles + sum(dp.invocations * dp.sw_cycles for dp in datapaths),
        )

    @property
    def monocg_latency(self) -> int:
        """Core cycles of one execution on a monoCG-Extension."""
        return max(1, round(self.risc_latency / self.monocg_speedup))

    def datapath(self, name: str) -> DataPathSpec:
        """Look up a data path by name."""
        for dp in self.datapaths:
            if dp.name == name:
                return dp
        raise KeyError(f"kernel {self.name!r} has no data path {name!r}")


__all__ = ["Kernel"]
