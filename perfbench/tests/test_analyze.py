"""The span analyzer against fixture logs with hand-computed answers."""

from pathlib import Path

import pytest

import analyze
import tracer

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def nested():
    return analyze.load([str(FIXTURES / "nested.jsonl")])


class TestSelfTime:
    def test_nested_spans_and_inner_cover(self, nested):
        spans, _ = nested
        selfs = analyze.self_times(spans)
        # engine.run 10s minus cell_key 1s and execute_cell 8s.
        assert selfs[(1, 1)] == pytest.approx(1.0)
        # execute_cell 8s minus library 1s and sim.run 6s.
        assert selfs[(1, 3)] == pytest.approx(1.0)
        # sim.run 6s minus the 3s its top-level inner calls cover; the pack
        # span opened inside on_block_entry is already in that cover.
        assert selfs[(1, 4)] == pytest.approx(3.0)
        assert selfs[(1, 6)] == pytest.approx(0.2)
        # Same ids in another process are another span.
        assert selfs[(2, 1)] == pytest.approx(2.0)

    def test_layer_table(self, nested):
        spans, _ = nested
        rows = {row["layer"]: row for row in analyze.layer_table(spans)}
        expected = {
            "engine.execute_cell": (2, 10000, 3000, 0.3),
            "sim.run": (1, 6000, 3000, 0.3),
            "ecu.execute": (50, 2500, 2000, 0.2),
            "engine.run": (1, 10000, 1000, 0.1),
            "engine.cell_key": (1, 1000, 1000, 0.1),
            "ise.library_compile": (1, 1000, 1000, 0.1),
            "fabric.ensure_configured": (5, 500, 500, 0.05),
            "selector.on_block_entry": (3, 500, 300, 0.03),
            "packed.pack": (1, 200, 200, 0.02),
        }
        assert set(rows) == set(expected)
        for layer, (count, total, own, share) in expected.items():
            row = rows[layer]
            assert row["count"] == count, layer
            assert row["total_ms"] == pytest.approx(total), layer
            assert row["self_ms"] == pytest.approx(own), layer
            assert row["share"] == pytest.approx(share), layer
        # Self times partition the root spans' wall time (10s + 2s).
        assert sum(row["self_ms"] for row in rows.values()) == pytest.approx(12000)

    def test_per_layer_metrics(self, nested):
        metrics = analyze.per_layer_metrics(*nested)
        assert metrics["engine.cache_ms"] == pytest.approx(1000)
        assert metrics["sim.self_ms"] == pytest.approx(3000)
        assert metrics["sim.run_ms"] == pytest.approx(6000)
        # Cells of 2000 and 8000 ms: interpolated between the two.
        assert metrics["sim.cell_ms_p50"] == pytest.approx(5000)
        assert metrics["sim.cell_ms_p90"] == pytest.approx(7400)
        assert metrics["sim.risc_cell_ms_p50"] == pytest.approx(2000)
        assert metrics["sim.mexec_per_s"] == pytest.approx(100 / 6 / 1e6)
        assert metrics["selector.hit_rate"] == pytest.approx(0.75)
        assert metrics["selector.calls"] == 3
        assert metrics["ecu.calls"] == 50
        assert metrics["ecu.execute_ms"] == pytest.approx(2500)
        assert metrics["ecu.fastforward_frac"] == pytest.approx(0.6)
        assert metrics["fabric.configure_ms"] == pytest.approx(500)
        assert metrics["engine.app_memo_hit_ratio"] == pytest.approx(0.75)
        assert metrics["engine.library_memo_hit_ratio"] == pytest.approx(0.5)
        assert metrics["engine.executed"] == 2
        assert metrics["packed.pack_calls"] == 1


class TestPercentiles:
    def test_linear_interpolation(self):
        values = list(range(1, 101))
        assert analyze.percentile(values, 50) == pytest.approx(50.5)
        assert analyze.percentile(values, 90) == pytest.approx(90.1)
        assert analyze.percentile([3, 1, 2], 90) == pytest.approx(2.8)
        assert analyze.percentile([4, 1, 2, 3, 5], 50) == pytest.approx(3)
        assert analyze.percentile([7], 50) == 7

    @pytest.mark.parametrize(
        "count, expected",
        [
            (19, None),               # the median sits on sample 10: 9 above
            (20, (50.0, 10.5)),       # between samples 10 and 11: 10 above
            (99, (90.0, 89.2)),       # between samples 89 and 90: 10 above
            (100, (90.0, 90.1)),      # 10 above p90; p99 has 1
            (1000, (99.0, 990.01)),   # 10 above p99; p99.9 has 1
            (10000, (99.9, 9990.001)),
        ],
    )
    def test_tail_percentile(self, count, expected):
        tail = analyze.tail_percentile(list(range(1, count + 1)))
        if expected is None:
            assert tail is None
        else:
            assert tail[0] == expected[0]
            assert tail[1] == pytest.approx(expected[1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_recorder_sums_inner_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    recorder = tracer.Recorder()
    configure = recorder.inner("fabric.ensure_configured", lambda: clock.tick(1.0))

    def execute():
        clock.tick(2.0)
        configure()
        clock.tick(1.0)

    execute = recorder.inner("ecu.execute", execute)
    # A base-class method the subclass delegates to counts once.
    delegate = recorder.inner("ecu.execute", lambda: execute())
    pack = recorder.spanned("packed.pack", lambda: clock.tick(0.5))

    def select():
        clock.tick(1.0)
        pack()
        clock.tick(1.0)

    select = recorder.inner("selector.on_block_entry", select)

    def run():
        clock.tick(1.0)
        execute()
        delegate()
        select()
        clock.tick(1.0)

    recorder.spanned("sim.run", run)()
    by_name = {span["name"]: span for span in recorder.spans}
    sim = by_name["sim.run"]
    assert sim["end"] - sim["start"] == pytest.approx(12.5)
    assert sim["cover"] == pytest.approx(10.5)
    assert sim["inner"]["ecu.execute"] == pytest.approx([2, 8.0, 6.0])
    assert sim["inner"]["fabric.ensure_configured"] == pytest.approx([2, 2.0, 2.0])
    assert sim["inner"]["selector.on_block_entry"] == pytest.approx([1, 2.5, 2.0])
    assert by_name["packed.pack"]["in_inner"] is True
    assert by_name["packed.pack"]["parent"] == sim["id"]

    rows = {row["layer"]: row for row in analyze.layer_table(recorder.spans)}
    assert rows["sim.run"]["self_ms"] == pytest.approx(2000)
    assert rows["ecu.execute"]["self_ms"] == pytest.approx(6000)
    assert rows["selector.on_block_entry"]["self_ms"] == pytest.approx(2000)
    assert sum(row["self_ms"] for row in rows.values()) == pytest.approx(12500)
