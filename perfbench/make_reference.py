"""Regenerate ``reference.json``: digests of every benchmark cell's record.

Runs every cell of :func:`inputs.all_reference_specs` under the reference
oracles (``REPRO_SIM=stepped``, ``REPRO_SELECTOR=naive``), without any
cache, and writes one digest per cell id.  Usage, from the repo root::

    python3 perfbench/make_reference.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402

COMMAND = "python3 perfbench/make_reference.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    # Set before repro resolves any mode; pool workers inherit it.
    for name in ("REPRO_WIRE", "REPRO_CACHE_DIR"):
        os.environ.pop(name, None)
    os.environ["REPRO_SIM"] = "stepped"
    os.environ["REPRO_SELECTOR"] = "naive"

    from repro import config_env
    from repro.experiments.engine import SweepCell, SweepEngine

    specs = inputs.all_reference_specs()
    cells = [
        SweepCell.make(
            spec["budget"], spec["seed"], spec["policy"],
            workload=spec["workload"], workload_params=spec["workload_params"],
        )
        for spec in specs
    ]
    records = SweepEngine(jobs=args.jobs, use_cache=False).run(cells)
    digests = {
        inputs.spec_id(spec): reference.record_digest(record)
        for spec, record in zip(specs, records)
    }
    document = {
        "command": COMMAND,
        "sim_engine": config_env.sim_engine_mode(),
        "selector": config_env.selector_mode(),
        "cells": len(digests),
        "digests": dict(sorted(digests.items())),
    }
    with open(reference.DEFAULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {reference.DEFAULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
