"""Run one ``repro`` command with its layer boundaries traced.

Usage, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced.py SPANS_BASE sweep --budgets 11 ...
    python3 perfbench/traced.py SPANS_BASE serve --port 0 --workers 1 ...

The command runs exactly as ``python3 -m repro ...`` would, with
:func:`tracer.install` applied first.  On exit the process writes its spans
to ``SPANS_BASE.<pid>.jsonl``; forked service workers write their own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv) -> int:
    base, command = argv[0], argv[1:]
    recorder = tracer.Recorder()
    from repro import cli

    tracer.install(recorder, dump_path=base)
    try:
        return cli.main(command)
    finally:
        recorder.dump(f"{base}.{os.getpid()}.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
