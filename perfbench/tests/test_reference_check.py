"""The benchmark fails a run whose records do not match the reference."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import reference
import run

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_flipped_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    seed = 3
    document = json.loads(reference.DEFAULT_PATH.read_text(encoding="utf-8"))
    flipped = inputs.spec_id(inputs.grid_specs(inputs.cold_seed(seed))[7])
    digest = document["digests"][flipped]
    document["digests"][flipped] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.setattr(reference, "DEFAULT_PATH", tampered)
    for name in run.MODE_ENV:
        monkeypatch.delenv(name, raising=False)

    code = run.main(["--workload", "sweep-cold", "--seed", str(seed), "--seconds", "1",
                     "--trace", "0"])

    stdout = capsys.readouterr().out
    assert code == 1
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # Each cold sweep and each of its cache-served re-runs deliver the cell
    # once; every other record matches.
    assert result["failed"] == run.MIN_COLD_SWEEPS * (1 + run.RERUNS)
    assert f"record of {flipped} does not match" in stdout


def test_stray_duplicate_and_missing_service_records_fail():
    ids = ["a", "b", "c"]
    records = {cell_id: {"cell": cell_id} for cell_id in ids}
    digests = {cell_id: reference.record_digest(records[cell_id]) for cell_id in ids}
    good = run.Tally(digests)
    run.check_delivered([(i, records[ids[i]]) for i in range(3)], ids, good)
    assert (good.cells, good.failed) == (3, 0)

    bad = run.Tally(digests)
    # Index 0 twice, index 7 out of range, index 2 never delivered.
    arrived = [(0, records[ids[0]]), (0, records[ids[0]]), (1, records[ids[1]]),
               (7, records[ids[0]])]
    run.check_delivered(arrived, ids, bad)
    assert bad.cells == 2
    assert bad.failed == 3
    assert "stray record 0" in bad.checker.first_failure


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")

    out = _run("--workload", "sweep-cold", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)

    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert "no repro sources" in out.stderr
