"""Per-cell reference digests and the check every delivered record passes.

``reference.json`` maps each cell id (see :mod:`inputs`) to the digest of
the record the ``stepped`` simulator and the ``naive`` selector produce for
it -- the slow oracles the repo keeps for byte-identity.  Regenerate it with
``python3 perfbench/make_reference.py`` (a few minutes on two cores).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional

DEFAULT_PATH = Path(__file__).resolve().parent / "reference.json"
DIGEST_CHARS = 32


def record_digest(record: Mapping[str, object]) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def load() -> Dict[str, str]:
    with open(DEFAULT_PATH, "r", encoding="utf-8") as handle:
        return dict(json.load(handle)["digests"])


class Checker:
    """Counts records checked and records that are wrong or missing."""

    def __init__(self, digests: Mapping[str, str]):
        self.digests = digests
        self.checked = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def reject(self, message: str) -> bool:
        """Count one checked record as failed."""
        self.checked += 1
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message
        return False

    def check(self, cell_id: str, record: Optional[Mapping[str, object]]) -> bool:
        if record is None:
            return self.reject(f"record of {cell_id} missing")
        expected = self.digests.get(cell_id)
        if expected is None:
            return self.reject(f"no reference digest for {cell_id}")
        if record_digest(record) != expected:
            return self.reject(f"record of {cell_id} does not match its reference digest")
        self.checked += 1
        return True

    def missing(self, cell_id: str) -> None:
        self.check(cell_id, None)
