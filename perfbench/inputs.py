"""Seeded inputs of the benchmark workloads.

Every input a run feeds the program comes from the workload seed given on
the command line, through a ``random.Random`` keyed by workload and seed.
Cells are drawn from fixed pools so that the reference digests in
``reference.json`` cover every cell any seed can produce.

A cell id names one cell independently of the library fingerprint:
``h264:frames=1:b21:s39:mrts`` is the H.264 application at one frame,
seed 39, on the budget with 2 CG fabrics and 1 PRC, under mRTS.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence, Tuple

#: The Fig. 8 grid: (CG fabrics, PRCs), CG-major like the paper's x-axis.
GRID: Tuple[Tuple[int, int], ...] = tuple(
    (cg, prc) for cg in range(5) for prc in range(4)
)
#: Policies named on the sweep command line (``repro sweep`` adds risc).
SWEEP_POLICIES: Tuple[str, ...] = ("rispp", "offline-optimal", "morpheus4s", "mrts")
#: Policies of every cell in a grid sweep, in the sweep's order.
CELL_POLICIES: Tuple[str, ...] = ("risc",) + SWEEP_POLICIES
#: Frames (h264) / images (jpeg) per application in every workload.
FRAMES = 1
#: Application seeds of the grid (the sweep-cold seed, the service-mixed store).
#: At one frame the kernel-execution count of an H.264 application ranges
#: from about 1.3k to 9.7k with the seed, so seeds are drawn only from the
#: equal-work band: these are the first eight seeds whose application lies
#: within 1% of the median count over seeds 1-3000 (4310 executions).
GRID_SEEDS: Tuple[int, ...] = (39, 75, 99, 180, 225, 245, 359, 380)
#: Seeds of service-mixed miss cells, disjoint from GRID_SEEDS so the store
#: never holds them: the first six seeds inside both the H.264 band and the
#: JPEG one (within 1% of the JPEG median of 1156 executions at one image).
MISS_SEEDS: Tuple[int, ...] = (621, 746, 814, 1072, 1770, 1825)
#: Workload families of service-mixed miss cells and their size parameter.
MISS_FAMILIES: Tuple[str, ...] = ("h264", "jpeg")
SIZE_PARAM: Dict[str, str] = {"h264": "frames", "jpeg": "images"}
#: Grid copies in one service-mixed store-served job (100 cells each).
HIT_TILES = 10
#: service-mixed jobs come in blocks of this many, one a miss job (3:1).
BLOCK = 4
#: Length of the pre-generated service-mixed job sequence; a run uses a prefix.
MAX_JOBS = 2000


def budget_label(budget: Sequence[int]) -> str:
    return f"{budget[0]}{budget[1]}"


def cell_id(workload: str, params: Mapping[str, object], budget, seed: int, policy: str) -> str:
    size = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{workload}:{size}:b{budget_label(budget)}:s{int(seed)}:{policy}"


def cell_id_of_payload(payload: Mapping[str, object]) -> str:
    """The id of a ``SweepCell.payload()`` document (or its JSON form)."""
    params = {str(k): v for k, v in payload.get("workload_params", ())}
    return cell_id(
        str(payload.get("workload", "h264")), params,
        payload["budget"], payload["seed"], str(payload["policy"]),
    )


def cell_spec(workload: str, seed: int, budget, policy: str) -> Dict[str, object]:
    """Plain description of one cell, as ``SweepCell.make`` arguments."""
    return {
        "workload": workload,
        "workload_params": {SIZE_PARAM[workload]: FRAMES},
        "budget": tuple(budget),
        "seed": int(seed),
        "policy": policy,
    }


def sweep_specs(seeds: Sequence[int], workload: str = "h264") -> List[Dict[str, object]]:
    """The cells of one grid sweep over ``seeds``, in ``repro sweep`` order
    (budget, then seed, then policy)."""
    return [
        cell_spec(workload, seed, budget, policy)
        for budget in GRID
        for seed in seeds
        for policy in CELL_POLICIES
    ]


def grid_specs(seed: int, workload: str = "h264") -> List[Dict[str, object]]:
    """The 100 cells of one single-seed grid sweep."""
    return sweep_specs([seed], workload)


def spec_id(spec: Mapping[str, object]) -> str:
    return cell_id(
        spec["workload"], spec["workload_params"], spec["budget"],
        spec["seed"], spec["policy"],
    )


def all_reference_specs() -> List[Dict[str, object]]:
    """Every cell any seed of any workload can deliver."""
    specs = [spec for seed in GRID_SEEDS for spec in grid_specs(seed)]
    for workload in MISS_FAMILIES:
        for seed in MISS_SEEDS:
            specs.extend(grid_specs(seed, workload))
    return specs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{int(seed)}")


def cold_seed(seed: int) -> int:
    """sweep-cold: the one application seed of the grid."""
    return _rng("sweep-cold", seed).choice(GRID_SEEDS)


def service_plan(seed: int) -> Tuple[int, List[Tuple[str, List[Dict[str, object]]]]]:
    """service-mixed: the grid seed of the seeded store, and the job sequence.

    Each job is ``("hit", [])`` -- the grid tiled ``HIT_TILES`` times -- or
    ``("miss", specs)``: 2 to 4 cells never in the store (miss seeds, every
    budget and policy), drawn without replacement.  The mix is stratified so
    that runs of different seeds do the same amount of work: each block of
    ``BLOCK`` jobs holds one miss job at a seeded place (3:1), each three
    miss jobs have 2, 3 and 4 cells in a seeded order, and the cells
    alternate between the two families.  The sequence stops early if a
    family's pool runs dry.
    """
    rng = _rng("service-mixed", seed)
    grid_seed = rng.choice(GRID_SEEDS)
    pools = []
    for workload in MISS_FAMILIES:
        pool = [spec for seed_ in MISS_SEEDS for spec in grid_specs(seed_, workload)]
        rng.shuffle(pool)
        pools.append(pool)
    drawn = 0
    sizes: List[int] = []
    jobs: List[Tuple[str, List[Dict[str, object]]]] = []
    while len(jobs) < MAX_JOBS:
        if not sizes:
            sizes = rng.sample((2, 3, 4), 3)
        size = sizes.pop()
        picks = [(drawn + k) % len(pools) for k in range(size)]
        if any(len(pool) < picks.count(index) for index, pool in enumerate(pools)):
            break
        miss = ("miss", [pools[index].pop() for index in picks])
        drawn += size
        miss_at = rng.randrange(BLOCK)
        jobs.extend(miss if place == miss_at else ("hit", []) for place in range(BLOCK))
    return grid_seed, jobs
