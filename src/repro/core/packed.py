"""Packed structure-of-arrays mirrors of the run-time hot paths.

The object-model selector and ECU walk per-candidate dicts and attribute
chains on every greedy round and every kernel execution -- convenient, but
the dominant cost of a fig8 sweep cell.  This module precompiles the static
side of that work into flat parallel arrays (stdlib :mod:`array` -- numpy
would silently promote indexed elements to ``numpy.int64``/``float64`` and
break the byte-identity contract of the golden payloads):

:class:`PackedLibrary`
    One immutable packing per :class:`~repro.ise.library.ISELibrary`: every
    qualified implementation name interned to a dense integer id, every
    candidate ISE flattened into ``(row_impl, row_qty, row_fg, row_reconfig,
    row_area)`` slices of shared arrays, plus the latency staircases, FG
    requirements, footprints, profit bounds, the per-kernel scan order and
    the ``impl id -> candidates`` inverted index the packed selector
    invalidates through.  Packings are
    cached per library in a :class:`weakref.WeakKeyDictionary`, so a sweep
    that reuses one library across budgets packs once.

:class:`PackedProgram`
    One packing per :class:`~repro.sim.program.Application`: per block
    iteration, the run-length-encoded ``(kernel, gap, length)`` step
    groups of the deterministic interleaving together with prefix-sum
    arrays (gap cycles and per-kernel execution counts) that let the packed
    engine collapse a whole iteration suffix into O(kernels) arithmetic
    once every remaining kernel sits in a valid infinite-horizon regime.

**When packing is skipped.**  Packing covers only what is provably static:
candidate structure (fixed at library build) and the interleaving (fixed
at application build).  Everything dynamic -- fabric state, coverage,
reservations, regimes -- stays in the per-call working arrays of the packed
selector / the policy's regime cache; policies that publish no regimes
simply never hit the packed fast path.

The consumers are :meth:`repro.core.selector.ISESelector._select_packed`
and :meth:`repro.sim.simulator.Simulator._run_kernels_packed`; both are
locked to their object-model twins by the ``dual-impl-signature`` lint
invariant, the hypothesis identity suites and the golden traces (see
``docs/simulator.md`` for the equivalence argument).
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.datapath import FabricType
from repro.ise.library import ISELibrary
from repro.sim.program import Application, BlockIteration, interleave

# --------------------------------------------------------------------------
# library packing
# --------------------------------------------------------------------------


class PackedLibrary:
    """Structure-of-arrays view of one ISE library (see module docstring).

    Candidates are numbered globally (``cid``) in kernel-name iteration
    order of the library, each kernel's block in library candidate order,
    so ``cand_local[cid]`` is exactly the candidate index the object-model
    selector uses for tie-breaking and the inverted index.

    Array schema (``n`` candidates, ``R`` total instance rows)::

        row_start[c] .. row_start[c+1]   candidate c's slice of the row arrays
        row_impl[r]                      interned implementation id
        row_qty[r]                       required quantity
        row_fg[r]                        1 = FG fabric, 0 = CG
        row_reconfig[r]                  reconfiguration cycles per copy
        row_area[r]                      area units per copy

    and analogously ``fgr_*`` (FG requirements), ``lat_*`` (latency
    staircases, ``latencies[0]`` = RISC mode) and ``foot_*`` (footprints,
    impl ids sorted by interned id).
    """

    __slots__ = (
        "impl_ids",
        "impl_names",
        "n_impls",
        "n_candidates",
        "kernel_cids",
        "scan_cids",
        "cand_kernel",
        "cand_local",
        "cand_bound",
        "cand_latencies",
        "cand_ise",
        "row_start",
        "row_impl",
        "row_qty",
        "row_fg",
        "row_reconfig",
        "row_area",
        "fgr_start",
        "fgr_impl",
        "fgr_qty",
        "lat_start",
        "lat_flat",
        "foot_start",
        "foot_impl",
        "users_cids",
    )

    def __init__(self, library: ISELibrary):
        self.impl_ids: Dict[str, int] = {}
        self.impl_names: List[str] = []

        def intern(name: str) -> int:
            impl_id = self.impl_ids.get(name)
            if impl_id is None:
                impl_id = len(self.impl_names)
                self.impl_ids[name] = impl_id
                self.impl_names.append(name)
            return impl_id

        self.kernel_cids: Dict[str, Tuple[int, ...]] = {}
        self.scan_cids: Dict[str, Tuple[int, ...]] = {}
        self.cand_kernel: List[str] = []
        self.cand_local: List[int] = []
        self.cand_bound: List[int] = []
        self.cand_latencies: List[Tuple[int, ...]] = []
        self.cand_ise: List[object] = []
        self.row_start = array("q", [0])
        self.row_impl = array("q")
        self.row_qty = array("q")
        self.row_fg = bytearray()
        self.row_reconfig = array("q")
        self.row_area = array("q")
        self.fgr_start = array("q", [0])
        self.fgr_impl = array("q")
        self.fgr_qty = array("q")
        self.lat_start = array("q", [0])
        self.lat_flat = array("q")
        self.foot_start = array("q", [0])
        self.foot_impl = array("q")

        for kernel_name in library.kernel_names():
            cids: List[int] = []
            for local, ise in enumerate(library.candidate_tuple(kernel_name)):
                cid = len(self.cand_kernel)
                cids.append(cid)
                self.cand_kernel.append(kernel_name)
                self.cand_local.append(local)
                self.cand_bound.append(ise.profit_bound_per_execution)
                self.cand_latencies.append(ise.latencies)
                self.cand_ise.append(ise)
                for name, qty, fabric, reconfig in ise.instance_rows:
                    self.row_impl.append(intern(name))
                    self.row_qty.append(qty)
                    self.row_fg.append(1 if fabric is FabricType.FG else 0)
                    self.row_reconfig.append(reconfig)
                self.row_area.extend(
                    inst.impl.area for inst in ise.instances
                )
                self.row_start.append(len(self.row_impl))
                for name, qty in ise.fg_requirements:
                    self.fgr_impl.append(self.impl_ids[name])
                    self.fgr_qty.append(qty)
                self.fgr_start.append(len(self.fgr_impl))
                self.lat_flat.extend(ise.latencies)
                self.lat_start.append(len(self.lat_flat))
                self.foot_impl.extend(
                    sorted(self.impl_ids[name] for name in ise.footprint)
                )
                self.foot_start.append(len(self.foot_impl))
            self.kernel_cids[kernel_name] = tuple(cids)
            # The selector scans each kernel's candidates by (-profit bound,
            # candidate index) so bound pruning can cut the tail; the
            # ordering is static, so bake it in here.
            self.scan_cids[kernel_name] = tuple(
                sorted(cids, key=lambda c: (-self.cand_bound[c], self.cand_local[c]))
            )

        self.n_impls = len(self.impl_names)
        self.n_candidates = len(self.cand_kernel)
        # Inverted index: impl id -> every cid whose footprint contains it.
        users: List[List[int]] = [[] for _ in range(self.n_impls)]
        for cid in range(self.n_candidates):
            for position in range(self.foot_start[cid], self.foot_start[cid + 1]):
                users[self.foot_impl[position]].append(cid)
        self.users_cids: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(cids) for cids in users
        )

    # ------------------------------------------------------------ readback
    # Row-wise unpacking, used by the pack/unpack round-trip property tests:
    # every structure below must reproduce the object model *exactly* (same
    # values, same order, no float anywhere near).

    def unpack_rows(self, cid: int) -> List[Tuple[str, int, FabricType, int]]:
        """Candidate ``cid``'s instance rows -- mirrors ``ISE.instance_rows``."""
        return [
            (
                self.impl_names[self.row_impl[r]],
                self.row_qty[r],
                FabricType.FG if self.row_fg[r] else FabricType.CG,
                self.row_reconfig[r],
            )
            for r in range(self.row_start[cid], self.row_start[cid + 1])
        ]

    def unpack_areas(self, cid: int) -> List[int]:
        """Per-row implementation areas, in reconfiguration order."""
        return list(self.row_area[self.row_start[cid]:self.row_start[cid + 1]])

    def unpack_footprint(self, cid: int) -> frozenset:
        """Candidate ``cid``'s footprint -- mirrors ``ISE.footprint``."""
        return frozenset(
            self.impl_names[self.foot_impl[p]]
            for p in range(self.foot_start[cid], self.foot_start[cid + 1])
        )

    def unpack_latencies(self, cid: int) -> Tuple[int, ...]:
        """Candidate ``cid``'s latency staircase -- mirrors ``ISE.latencies``."""
        return tuple(self.lat_flat[self.lat_start[cid]:self.lat_start[cid + 1]])

    def unpack_fg_requirements(self, cid: int) -> Tuple[Tuple[str, int], ...]:
        """Candidate ``cid``'s FG rows -- mirrors ``ISE.fg_requirements``."""
        return tuple(
            (self.impl_names[self.fgr_impl[p]], self.fgr_qty[p])
            for p in range(self.fgr_start[cid], self.fgr_start[cid + 1])
        )


_LIBRARY_CACHE: "weakref.WeakKeyDictionary[ISELibrary, PackedLibrary]" = (
    weakref.WeakKeyDictionary()
)


def pack_library(library: ISELibrary) -> PackedLibrary:
    """The (cached) packed view of ``library``; packing is pure and the
    library immutable after construction, so one packing serves every
    selector and budget sweep cell touching it."""
    packed = _LIBRARY_CACHE.get(library)
    if packed is None:
        packed = PackedLibrary(library)
        _LIBRARY_CACHE[library] = packed
    return packed


# --------------------------------------------------------------------------
# program packing
# --------------------------------------------------------------------------


class PackedIteration:
    """RLE step groups and prefix sums of one block iteration.

    ``runs[j] = (kernel, gap, length)`` -- maximal groups of identical
    ``(kernel, gap)`` steps of the deterministic interleaving.  The prefix
    arrays support the packed engine's bulk suffix skip::

        gap_suffix[j]          sum of length*gap over runs[j:]
        cnt_prefix[k][j]       executions of kernel k in runs[:j]
        total_cnt[k]           executions of kernel k in the iteration
        last_run_of[k]         index of kernel k's last run
    """

    __slots__ = (
        "runs",
        "n_runs",
        "gap_suffix",
        "kernels",
        "cnt_prefix",
        "total_cnt",
        "last_run_of",
    )

    def __init__(self, iteration: BlockIteration):
        steps = interleave(iteration.kernels)
        n_steps = len(steps)
        runs: List[Tuple[str, int, int]] = []
        index = 0
        while index < n_steps:
            kernel_name, gap = steps[index]
            stop = index + 1
            while stop < n_steps and steps[stop] == (kernel_name, gap):
                stop += 1
            runs.append((kernel_name, gap, stop - index))
            index = stop
        self.runs = runs
        self.n_runs = len(runs)

        self.gap_suffix = array("q", [0] * (self.n_runs + 1))
        for j in range(self.n_runs - 1, -1, -1):
            _, gap, length = runs[j]
            self.gap_suffix[j] = self.gap_suffix[j + 1] + length * gap

        self.kernels: List[str] = []
        self.cnt_prefix: Dict[str, array] = {}
        self.total_cnt: Dict[str, int] = {}
        self.last_run_of: Dict[str, int] = {}
        for kernel_name, _, _ in runs:
            if kernel_name not in self.cnt_prefix:
                self.kernels.append(kernel_name)
                self.cnt_prefix[kernel_name] = array("q", [0] * (self.n_runs + 1))
        for j, (kernel_name, _, length) in enumerate(runs):
            for k, prefix in self.cnt_prefix.items():
                prefix[j + 1] = prefix[j] + (length if k == kernel_name else 0)
            self.last_run_of[kernel_name] = j
        for kernel_name, prefix in self.cnt_prefix.items():
            self.total_cnt[kernel_name] = prefix[self.n_runs]


class PackedProgram:
    """Per-application packing: one :class:`PackedIteration` per block
    iteration.

    ``iterations[i]`` packs ``application.iterations[i]``; the simulator
    zips the two sequences.
    """

    __slots__ = ("iterations",)

    def __init__(self, application: Application):
        self.iterations: List[PackedIteration] = [
            PackedIteration(iteration) for iteration in application.iterations
        ]


_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Application, PackedProgram]" = (
    weakref.WeakKeyDictionary()
)


def pack_program(application: Application) -> PackedProgram:
    """The (cached) packed view of ``application``."""
    packed = _PROGRAM_CACHE.get(application)
    if packed is None:
        packed = PackedProgram(application)
        _PROGRAM_CACHE[application] = packed
    return packed


__all__ = [
    "PackedIteration",
    "PackedLibrary",
    "PackedProgram",
    "pack_library",
    "pack_program",
]
