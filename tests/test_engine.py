"""The parallel cached sweep engine.

Covers the PR's acceptance contract: a >=32-cell sweep through a 4-wide
process pool is byte-identical to the serial path, a repeated run is served
entirely from the content-addressed cache (>=5x faster, zero simulations),
and cache keys react to every cell dimension.
"""

import json
import time

import pytest

from repro.core.mrts import MRTS
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    POLICIES,
    EngineStats,
    SweepCell,
    SweepEngine,
    cell_key,
    execute_cell,
)
from repro.experiments.fig10_speedup import run_fig10
from repro.experiments.sweep import run_sweep
from repro.util.validation import ReproError

#: Small-but-real workload: each cell is a genuine mRTS/RISC simulation.
FAST = {"frames": 2, "scale": 0.4}


def make_cells(budgets=((1, 1), (2, 2), (3, 3)), seeds=range(6),
               policies=("risc", "mrts")):
    """3 budgets x 6 seeds x 2 policies = 36 cells by default."""
    return [
        SweepCell.make(budget, seed, policy, workload_params=FAST)
        for budget in budgets
        for seed in seeds
        for policy in policies
    ]


class TestCellKeys:
    def test_key_is_stable(self):
        cell = SweepCell.make((1, 2), 7, "mrts", workload_params=FAST)
        again = SweepCell.make((1, 2), 7, "mrts", workload_params=FAST)
        assert cell_key(cell) == cell_key(again)

    def test_key_ignores_param_ordering(self):
        a = SweepCell.make((1, 1), 0, "mrts",
                           workload_params={"frames": 2, "scale": 0.4})
        b = SweepCell.make((1, 1), 0, "mrts",
                           workload_params={"scale": 0.4, "frames": 2})
        assert cell_key(a) == cell_key(b)

    @pytest.mark.parametrize("change", [
        dict(budget=(2, 1)),
        dict(seed=8),
        dict(policy="risc"),
        dict(workload_params={"frames": 3, "scale": 0.4}),
        dict(workload_params={"frames": 2, "scale": 0.5}),
        dict(workload="deblocking"),
    ])
    def test_key_changes_with_every_dimension(self, change):
        base = dict(budget=(1, 2), seed=7, policy="mrts",
                    workload="h264", workload_params=FAST)
        assert cell_key(SweepCell.make(**base)) != cell_key(
            SweepCell.make(**{**base, **change})
        )

    def test_unknown_policy_and_workload_rejected(self):
        with pytest.raises(ReproError):
            SweepCell.make((1, 1), 0, "definitely-not-a-policy")
        with pytest.raises(ReproError):
            SweepCell.make((1, 1), 0, "mrts", workload="no-such-workload")


class TestAcceptance:
    """The headline contract, on one 36-cell sweep."""

    def test_parallel_identical_and_cache_5x(self, tmp_path):
        cells = make_cells()
        assert len(cells) >= 32

        serial = SweepEngine(jobs=1, use_cache=False).run(cells)

        pool = SweepEngine(jobs=4, use_cache=True, cache_dir=tmp_path / "c")
        cold_start = time.perf_counter()
        parallel = pool.run(cells)
        cold = time.perf_counter() - cold_start
        assert pool.stats.executed == len(cells)

        assert json.dumps(serial) == json.dumps(parallel)

        warm_start = time.perf_counter()
        cached = pool.run(cells)
        warm = time.perf_counter() - warm_start
        assert pool.stats.cache_hits == len(cells)
        assert pool.stats.executed == 0
        assert json.dumps(serial) == json.dumps(cached)
        assert cold / warm >= 5.0, f"cache speedup only {cold / warm:.1f}x"


class TestCache:
    def test_second_run_skips_simulation(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        cells = make_cells(budgets=[(1, 1)], seeds=[0, 1])
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        first = eng.run(cells)
        assert len(calls) == len(cells)
        second = eng.run(cells)
        assert len(calls) == len(cells), "cache hit must not simulate again"
        assert first == second

    def test_duplicate_cells_simulated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        cell = SweepCell.make((1, 1), 0, "risc", workload_params=FAST)
        records = SweepEngine(jobs=1, cache_dir=tmp_path / "c").run([cell, cell])
        assert len(calls) == 1
        assert records[0] == records[1]

    def test_changed_cell_is_a_miss(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        eng.run([SweepCell.make((1, 1), 0, "risc", workload_params=FAST)])
        eng.run([SweepCell.make((1, 1), 1, "risc", workload_params=FAST)])
        assert len(calls) == 2

    def test_corrupt_cache_entry_reexecutes(self, tmp_path):
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        cell = SweepCell.make((1, 1), 0, "risc", workload_params=FAST)
        first = eng.run([cell])
        record_file = eng._record_path(cell_key(cell))
        record_file.write_text("{not json")
        second = eng.run([cell])
        assert eng.stats.executed == 1
        assert first == second

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        eng = SweepEngine(jobs=1, use_cache=False, cache_dir=tmp_path / "c")
        eng.run([SweepCell.make((1, 1), 0, "risc", workload_params=FAST)])
        assert not (tmp_path / "c").exists()


class TestEngineStats:
    #: The engine_payload key order stored in result-store manifests and
    #: printed by ``sweep --verbose``.
    PAYLOAD_KEYS = [
        "cells",
        "unique_cells",
        "cache_hits",
        "executed",
        "applications_built",
        "libraries_built",
        "builds_saved",
        "frames_sent",
        "worker_restarts",
        "remote_cache_hits",
        "jobs_completed",
        "bytes_sent",
        "bytes_received",
        "frames_coalesced",
        "blocks_compressed",
    ]

    def test_payload_keys_and_order_are_pinned(self):
        assert list(EngineStats().engine_payload()) == self.PAYLOAD_KEYS

    def test_reset_zeroes_every_counter(self):
        stats = EngineStats()
        for index, key in enumerate(self.PAYLOAD_KEYS):
            setattr(stats, key, index + 1)
        assert list(stats.engine_payload().values()) == list(
            range(1, len(self.PAYLOAD_KEYS) + 1)
        )
        stats.reset()
        assert stats.engine_payload() == dict.fromkeys(self.PAYLOAD_KEYS, 0)


class TestRunSweepRouting:
    def test_engine_path_matches_legacy_path(self):
        budgets, seeds = [(1, 1)], [1, 2]
        from repro.workloads.h264 import h264_application

        engine_points = run_sweep(budgets, seeds, ["mrts"]).points
        legacy_points = run_sweep(
            budgets, seeds, {"mrts": MRTS},
            application_factory=lambda seed: h264_application(frames=8, seed=seed),
        ).points
        assert engine_points == legacy_points

    def test_parallel_sweep_points_identical(self, tmp_path):
        budgets, seeds = [(1, 1), (2, 2)], [1, 2]
        serial = run_sweep(budgets, seeds, ["mrts"],
                           workload_params=FAST)
        parallel = run_sweep(budgets, seeds, ["mrts"],
                             workload_params=FAST, jobs=4,
                             use_cache=True, cache_dir=tmp_path / "c")
        assert serial.points == parallel.points

    def test_unknown_policy_name_raises(self):
        with pytest.raises(ReproError):
            run_sweep([(1, 1)], [0], ["not-a-policy"])

    def test_registry_covers_cli_policies(self):
        from repro.cli import POLICIES as cli_policies

        assert cli_policies is POLICIES


class TestFigRouting:
    def test_fig10_engine_matches_serial(self, tmp_path):
        kwargs = dict(frames=2, seed=7, max_cg=1, max_prc=1)
        serial = run_fig10(**kwargs)
        engined = run_fig10(jobs=2, use_cache=True,
                            cache_dir=tmp_path / "c", **kwargs)
        assert serial.speedups == engined.speedups
        assert [b.label for b in serial.budgets] == [
            b.label for b in engined.budgets
        ]


@pytest.mark.slow
class TestScale:
    """Larger fan-out, excluded from tier-1 (run with ``-m slow``)."""

    def test_128_cell_sweep(self, tmp_path):
        cells = make_cells(
            budgets=[(0, 1), (1, 0), (1, 1), (2, 2)],
            seeds=range(16),
            policies=("risc", "mrts"),
        )
        assert len(cells) == 128
        eng = SweepEngine(jobs=4, cache_dir=tmp_path / "c")
        records = eng.run(cells)
        assert len(records) == 128
        assert eng.run(cells) == records
        assert eng.stats.cache_hits == 128
