"""Turn span logs into a per-layer table and the per-layer metrics.

Input is the JSON-lines files :class:`tracer.Recorder` writes: a header
line ``{"pid", "counters"}`` followed by one span per line.  Usage::

    python3 perfbench/analyze.py SPANS.jsonl [...]

A span's self time is its duration minus the durations of its child spans
and minus the time its summed inner calls cover (a child span opened inside
an inner call is already part of that call's time).  A layer's share is its
self time over the summed ``engine.execute_cell`` span time.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie above a percentile for it to be reported.
MIN_ABOVE = 10


def load(paths: Iterable[str]) -> Tuple[List[dict], List[dict]]:
    """Spans and per-process counter headers of the given logs."""
    spans: List[dict] = []
    headers: List[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle):
                entry = json.loads(line)
                (headers if number == 0 else spans).append(entry)
    return spans, headers


# ------------------------------------------------------------ percentiles


def _position(count: int, q: float) -> float:
    """0-based position of percentile ``q`` among ``count`` sorted samples
    (the epsilon keeps 99.9% of 10000 at 9989.001, not below it)."""
    return (count - 1) * q / 100.0 + 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` with linear interpolation between the two closest
    ranks (numpy's default; ``statistics.quantiles`` ``inclusive``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = min(_position(len(ordered), q), len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_above(count: int, q: float) -> int:
    """Samples strictly above percentile ``q``'s position."""
    return count - 1 - math.floor(_position(count, q))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest candidate percentile with at least
    ``MIN_ABOVE`` samples above it; ``None`` when even the median lacks them."""
    for q in TAIL_PERCENTILES:
        if samples_above(len(values), q) >= MIN_ABOVE:
            return q, percentile(values, q)
    return None


# -------------------------------------------------------------- self time


def _key(span: dict) -> Tuple[int, int]:
    return span["pid"], span["id"]


def self_times(spans: Sequence[dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    covered: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None and not span.get("in_inner"):
            covered[(span["pid"], span["parent"])] += span["end"] - span["start"]
    return {
        _key(span): span["end"] - span["start"] - covered[_key(span)] - span.get("cover", 0.0)
        for span in spans
    }


def layer_table(spans: Sequence[dict]) -> List[Dict[str, object]]:
    """One row per span name and inner-call name: count, total and self
    time (ms) and share of cell time, sorted by self time."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    cell_time = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        row = rows[span["name"]]
        row[0] += 1
        row[1] += duration
        row[2] += selfs[_key(span)]
        if span["name"] == "engine.execute_cell":
            cell_time += duration
        for name, (count, total, own) in span.get("inner", {}).items():
            row = rows[name]
            row[0] += count
            row[1] += total
            row[2] += own
    table = [
        {
            "layer": name,
            "count": int(count),
            "total_ms": total * 1e3,
            "self_ms": own * 1e3,
            "share": own / cell_time if cell_time else None,
        }
        for name, (count, total, own) in rows.items()
    ]
    table.sort(key=lambda row: -row["self_ms"])
    return table


def render(table: Sequence[Dict[str, object]]) -> str:
    lines = [f"{'layer':28s} {'count':>9s} {'total_ms':>11s} {'self_ms':>11s} {'share':>7s}"]
    for row in table:
        share = "-" if row["share"] is None else f"{row['share']:.1%}"
        lines.append(
            f"{row['layer']:28s} {row['count']:9d} {row['total_ms']:11.1f} "
            f"{row['self_ms']:11.1f} {share:>7s}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: Sequence[dict], headers: Sequence[dict]) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced pass."""
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    selfs = self_times(spans)

    def total_ms(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name]) * 1e3

    def inner(name: str) -> Tuple[int, float]:
        count = total = 0
        for span in spans:
            acc = span.get("inner", {}).get(name)
            if acc is not None:
                count += acc[0]
                total += acc[1]
        return count, total * 1e3

    def attr_sum(name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in by_name[name])

    counters: Dict[str, float] = defaultdict(float)
    for header in headers:
        for name, value in header.get("counters", {}).items():
            counters[name] += value

    cache_ms = 0.0
    children: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["name"] in ("engine.cell_key", "engine.execute_cell") and span["parent"] is not None:
            children[(span["pid"], span["parent"])] += span["end"] - span["start"]
    for span in by_name["engine.run"]:
        cache_ms += (span["end"] - span["start"] - children[_key(span)]) * 1e3

    cells = by_name["engine.execute_cell"]
    cell_ms = [(s["end"] - s["start"]) * 1e3 for s in cells]
    risc_ms = [
        (s["end"] - s["start"]) * 1e3 for s in cells if s["attrs"].get("policy") == "risc"
    ]
    sim_seconds = total_ms("sim.run") / 1e3
    executions = attr_sum("sim.run", "executions")
    selector_calls, select_ms = inner("selector.on_block_entry")
    ecu_calls, ecu_ms = inner("ecu.execute")
    configure_calls, configure_ms = inner("fabric.ensure_configured")
    _, append_ms = inner("results.append")

    return {
        "workloads.app_build_ms": total_ms("workloads.app_build"),
        "workloads.apps_built": len(by_name["workloads.app_build"]),
        "ise.library_compile_ms": total_ms("ise.library_compile"),
        "ise.libraries_built": len(by_name["ise.library_compile"]),
        "engine.cell_key_ms": total_ms("engine.cell_key"),
        "engine.cache_ms": cache_ms,
        "engine.app_memo_hit_ratio": _ratio(
            counters["applications_saved"],
            counters["applications_saved"] + counters["applications_built"],
        ),
        "engine.library_memo_hit_ratio": _ratio(
            counters["libraries_saved"],
            counters["libraries_saved"] + counters["libraries_built"],
        ),
        "engine.cache_hits": attr_sum("engine.run", "cache_hits"),
        "engine.executed": len(cells),
        "packed.pack_ms": total_ms("packed.pack"),
        "packed.pack_calls": len(by_name["packed.pack"]),
        "sim.run_ms": total_ms("sim.run"),
        "sim.self_ms": sum(selfs[_key(s)] for s in by_name["sim.run"]) * 1e3,
        "sim.cell_ms_p50": percentile(cell_ms, 50) if cell_ms else 0.0,
        "sim.cell_ms_p90": percentile(cell_ms, 90) if cell_ms else 0.0,
        "sim.risc_cell_ms_p50": percentile(risc_ms, 50) if risc_ms else 0.0,
        "sim.mexec_per_s": _ratio(executions, sim_seconds) / 1e6,
        "sim.events_processed": attr_sum("sim.run", "events_processed"),
        "selector.select_ms": select_ms,
        "selector.calls": selector_calls,
        "selector.profit_evaluations": attr_sum("sim.run", "profit_evaluations"),
        "selector.hit_rate": _ratio(
            attr_sum("sim.run", "evaluations_saved"),
            attr_sum("sim.run", "profit_evaluations"),
        ),
        "ecu.execute_ms": ecu_ms,
        "ecu.calls": ecu_calls,
        "ecu.fastforward_frac": _ratio(attr_sum("sim.run", "fastforwarded"), executions),
        "fabric.configure_ms": configure_ms,
        "fabric.configure_calls": configure_calls,
        "fabric.reconfigurations": attr_sum("sim.run", "reconfigurations"),
        "results.write_ms": append_ms + total_ms("results.close"),
        "wire.decode_ms": total_ms("wire.decode"),
    }


def main(argv: Sequence[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    spans, headers = load(argv)
    print(render(layer_table(spans)))
    for name, value in sorted(per_layer_metrics(spans, headers).items()):
        print(f"{name:32s} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
