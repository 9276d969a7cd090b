"""The repo benchmark: cold sweep and mixed service load.

Usage, from the repo root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for the rationale of each):

``sweep-cold``     ``repro sweep --store`` of the Fig. 8 H.264 grid in a fresh
                   process, from an empty cache and an empty result store,
                   then the same command served from the cache it filled.
``service-mixed``  a ``repro serve`` daemon with one worker and a seeded
                   store, driven by two closed-loop client connections with
                   store-served and miss jobs (about 3:1).

With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it makes an untraced and a traced pass and prints every
per-layer metric.  Every delivered record is checked against
``reference.json``; the last stdout line is the JSON result, and the exit
code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
sys.path.insert(0, str(HERE))

import analyze  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

#: Ambient settings that would change what the benchmark measures.
MODE_ENV = ("REPRO_SIM", "REPRO_SELECTOR", "REPRO_WIRE", "REPRO_CACHE_DIR")
#: service-mixed set-ups per run; ``setup_s`` is their median.  sweep-cold
#: sets up once before each cold sweep.
SETUP_REPEATS = 3
#: Cache-served re-runs after each sweep-cold sweep.
RERUNS = 3
#: sweep-cold makes at least this many cold sweeps, however fast the host.
MIN_COLD_SWEEPS = 3
#: service-mixed completes at least this many jobs of each kind.
MIN_JOBS_PER_KIND = 100
#: No phase of a run may outlast this, whatever ``--seconds`` says.
PHASE_LIMIT_S = 90.0
CHILD_TIMEOUT_S = 60.0
#: A service job still running after this long has timed out (jobs take
#: well under a second).
JOB_TIMEOUT_S = 30.0
#: A seed never used while tuning, kept for confirming later claims.
HOLDOUT_SEED = 7919

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_job_p50_ms": "ms",
    "hit_job_p90_ms": "ms",
    "miss_job_p50_ms": "ms",
    "miss_job_p90_ms": "ms",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "workloads.app_build_ms": "ms",
    "workloads.apps_built": "count",
    "ise.library_compile_ms": "ms",
    "ise.libraries_built": "count",
    "engine.cell_key_ms": "ms",
    "engine.cache_ms": "ms",
    "engine.app_memo_hit_ratio": "ratio",
    "engine.library_memo_hit_ratio": "ratio",
    "engine.cache_hits": "count",
    "engine.executed": "count",
    "packed.pack_ms": "ms",
    "packed.pack_calls": "count",
    "sim.run_ms": "ms",
    "sim.self_ms": "ms",
    "sim.cell_ms_p50": "ms",
    "sim.cell_ms_p90": "ms",
    "sim.risc_cell_ms_p50": "ms",
    "sim.mexec_per_s": "Mexec/s",
    "sim.events_processed": "count",
    "selector.select_ms": "ms",
    "selector.calls": "count",
    "selector.profit_evaluations": "count",
    "selector.hit_rate": "ratio",
    "ecu.execute_ms": "ms",
    "ecu.calls": "count",
    "ecu.fastforward_frac": "ratio",
    "fabric.configure_ms": "ms",
    "fabric.configure_calls": "count",
    "fabric.reconfigurations": "count",
    "results.write_ms": "ms",
    "results.stored_bytes": "bytes",
    "service.first_record_ms_p50": "ms",
    "service.remote_cache_hits": "count",
    "service.worker_restarts": "count",
    "wire.bytes_per_cell": "bytes",
    "wire.frames_coalesced": "count",
    "wire.blocks_compressed": "count",
    "wire.decode_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed check)."""


# ------------------------------------------------------------------ tally


class Tally:
    """What one pass did: jobs, their latencies, records and failures."""

    def __init__(self, digests):
        self.checker = reference.Checker(digests)
        self.jobs = 0
        self.jobs_failed = 0
        self.drains = 0
        self.drains_failed = 0
        self.hit_ms: List[float] = []
        self.miss_ms: List[float] = []
        self.first_record_ms: List[float] = []
        #: Verified cells of the timed work and the time it took.
        self.cells = 0
        self.wall = 0.0
        #: Time the completed and failed jobs took, end to end.
        self.job_wall = 0.0
        self.peak_rss_mb = 0.0
        self.counters: Dict[str, int] = {}
        self.stored_bytes = 0
        self.split: Optional[Dict[str, int]] = None
        self.setups: List[float] = []
        self.lock = threading.Lock()

    def job_failed(self, message: str) -> None:
        with self.lock:
            self.jobs_failed += 1
            self.note(message)

    def drain_failed(self, message: str) -> None:
        self.drains_failed += 1
        self.note(message)

    def note(self, message: str) -> None:
        """Keep ``message`` when it is the run's first failure."""
        if self.checker.first_failure is None:
            self.checker.first_failure = message

    @property
    def attempted(self) -> int:
        return self.checker.checked + self.jobs + self.drains

    @property
    def failed(self) -> int:
        return self.checker.failed + self.jobs_failed + self.drains_failed


# ----------------------------------------------------------- child process


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in MODE_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def kill_group(pid: int) -> None:
    """SIGKILL a child started in its own session, with any workers it has."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended just now


def run_child(argv: List[str], out_dir: Path, name: str):
    """Run ``argv`` to completion; returns ``(wall_s, code, stdout, peak_mb)``.

    ``peak_mb`` is the child's own peak resident set (``ru_maxrss``)."""
    out_path = out_dir / f"{name}.out"
    err_path = out_dir / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=str(ROOT),
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
        print(f"{name}: exit {proc.returncode}: {tail}", file=sys.stderr)
    return wall, proc.returncode, stdout, usage.ru_maxrss / 1024.0


def repro_argv(command: List[str], spans: Optional[Path]) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "repro"] + command
    return [sys.executable, str(HERE / "traced.py"), str(spans)] + command


def sweep_command(seeds, cache: Path, store: Path, sweep: str):
    command = [
        "sweep",
        "--budgets", ",".join(inputs.budget_label(b) for b in inputs.GRID),
        "--seeds", ",".join(str(s) for s in seeds),
        "--policies", ",".join(inputs.SWEEP_POLICIES),
        "--frames", str(inputs.FRAMES),
        "--cache-dir", str(cache),
    ]
    return command + ["--store", str(store), "--store-sweep", sweep]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def verify_stored(path: Path, specs, tally: Tally) -> int:
    """Check every row of a stored sweep against the reference; returns
    the number of rows that passed."""
    from repro.results import ResultReader, ResultStoreError

    expected = [inputs.spec_id(spec) for spec in specs]
    seen = [False] * len(expected)
    passed = 0
    try:
        rows = list(ResultReader(str(path)).iter_rows())
    except (ResultStoreError, OSError, ValueError) as error:
        # Every expected record then counts as missing below.
        tally.note(f"stored sweep {path} unreadable: {error}")
        rows = []
    for index, cell, record in rows:
        if not 0 <= index < len(expected) or seen[index]:
            tally.checker.reject(f"stored sweep {path} has a stray row {index}")
            continue
        seen[index] = True
        if inputs.cell_id_of_payload(cell) != expected[index]:
            tally.checker.missing(expected[index])
        else:
            passed += tally.checker.check(expected[index], record)
    for index, flag in enumerate(seen):
        if not flag:
            tally.checker.missing(expected[index])
    return passed


# ------------------------------------------------------------ sweep passes


def sweep_cold_setup(base: Path, cache: Path) -> float:
    """A fresh interpreter imports repro and confirms ``cache`` is empty."""
    wall, code, stdout, _ = run_child(
        repro_argv(["cache", "stats", "--cache-dir", str(cache)], None), base, "setup",
    )
    if code != 0 or "records:      0" not in stdout:
        raise BenchError("cold set-up: the fresh cache is not empty")
    return wall


def sweep_cold_pass(seed: int, seconds: float, work: Path, spans: Optional[Path],
                    tally: Tally) -> Tally:
    """Cold grid sweeps, each set up afresh and followed by re-runs served
    from its cache.  Set-ups are spread over the run, so their median sees
    the same host as the sweeps."""
    app_seed = inputs.cold_seed(seed)
    specs = inputs.grid_specs(app_seed)
    start = perf_counter()
    iteration = 0
    while True:
        base = work / f"cold{iteration}"
        base.mkdir(parents=True)
        cache, store = base / "cache", base / "store"
        tally.setups.append(sweep_cold_setup(base, cache))
        trace = None if spans is None else spans / f"cold{iteration}"
        wall, code, table, rss = run_child(
            repro_argv(sweep_command([app_seed], cache, store, "cold"), trace), base, "cold",
        )
        tally.jobs += 1
        if code != 0:
            tally.job_failed(f"cold sweep exited {code}")
        tally.wall += wall
        tally.job_wall += wall
        tally.miss_ms.append(wall * 1e3)
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
        tally.cells += verify_stored(store / "cold", specs, tally)
        tally.stored_bytes += dir_bytes(store / "cold")
        # The re-runs are the hit jobs: same command, every cell from cache,
        # and the same table as the cold sweep printed.
        for rerun in range(RERUNS):
            trace = None if spans is None else spans / f"rerun{iteration}-{rerun}"
            name = f"rerun{rerun}"
            wall, code, again, _ = run_child(
                repro_argv(sweep_command([app_seed], cache, store, name), trace), base, name,
            )
            tally.jobs += 1
            if code != 0 or again != table:
                tally.job_failed("cache-served re-run differs from the cold sweep")
            tally.job_wall += wall
            tally.hit_ms.append(wall * 1e3)
            verify_stored(store / name, specs, tally)
        shutil.rmtree(base)
        iteration += 1
        elapsed = perf_counter() - start
        if elapsed >= PHASE_LIMIT_S or (elapsed >= seconds and iteration >= MIN_COLD_SWEEPS):
            break
    # Cell throughput counts the cold sweeps only; the re-runs are the check.
    return tally


# ---------------------------------------------------------- service passes


class Daemon:
    """A ``repro serve`` process with one worker, its store under ``root``."""

    def __init__(self, root: Path, spans: Optional[Path]):
        root.mkdir(parents=True, exist_ok=True)
        command = ["serve", "--port", "0", "--workers", "1", "--cache-dir", str(root / "store")]
        self.log = open(root / "serve.err", "wb")
        self.proc = subprocess.Popen(
            repro_argv(command, spans), stdout=subprocess.PIPE, stderr=self.log,
            env=child_env(), cwd=str(ROOT), start_new_session=True,
        )
        self.lines: List[str] = []
        ready = threading.Event()

        def read() -> None:
            for raw in self.proc.stdout:
                self.lines.append(raw.decode("utf-8", "replace").strip())
                ready.set()
            ready.set()

        self.reader = threading.Thread(target=read, daemon=True)
        self.reader.start()
        if not ready.wait(60) or not self.lines or "listening on" not in self.lines[0]:
            self.kill()
            raise BenchError(f"service did not start: {self.lines}")
        self.address = self.lines[0].split("listening on ")[1].split()[0]

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM``; 0 once it has been killed."""
        try:
            with open(f"/proc/{self.proc.pid}/status", "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def drain(self) -> bool:
        """SIGTERM; True when the daemon drained every job and exited 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self.reader.join(timeout=10)
        self.log.close()
        drained = [line for line in self.lines if "drained:" in line]
        return code == 0 and bool(drained) and drained[-1].endswith(" 0 failed")

    def kill(self) -> None:
        """Stop the daemon if it still runs: a drain first, so it stops its
        worker, then SIGKILL to its whole process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                kill_group(self.proc.pid)
                self.proc.wait(timeout=30)
        self.log.close()

    def run_job(self, client, payloads, on_record=None):
        """``client.run_job`` under a watchdog: a job that outlasts
        ``JOB_TIMEOUT_S`` kills the daemon and its worker, so the call
        raises ``TimeoutError``."""
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            kill_group(self.proc.pid)

        watchdog = threading.Timer(JOB_TIMEOUT_S, expire)
        watchdog.start()
        try:
            records, counters = client.run_job(payloads, on_record=on_record)
        except Exception as error:
            if expired.is_set():
                raise TimeoutError(f"timed out after {JOB_TIMEOUT_S:g} s") from error
            raise
        finally:
            watchdog.cancel()
        return records, counters


def _payloads(specs):
    from repro.experiments.engine import SweepCell

    return [
        SweepCell.make(
            spec["budget"], spec["seed"], spec["policy"],
            workload=spec["workload"], workload_params=spec["workload_params"],
        ).payload()
        for spec in specs
    ]


def service_setup(seed: int, root: Path, spans: Optional[Path], tally: Tally):
    """Start a daemon, seed its store with the grid, open two clients."""
    from repro.service.client import ServiceClient
    from repro.util.validation import ReproError

    grid_seed, _ = inputs.service_plan(seed)
    specs = inputs.grid_specs(grid_seed)
    start = perf_counter()
    daemon = Daemon(root, spans)
    try:
        try:
            with ServiceClient(daemon.address, submitter="seed") as client:
                records, _ = daemon.run_job(client, _payloads(specs))
            clients = [ServiceClient(daemon.address, submitter=f"load{i}") for i in range(2)]
        except (ReproError, OSError) as error:
            raise BenchError(f"service set-up failed: {error}") from error
        for spec, record in zip(specs, records):
            tally.checker.check(inputs.spec_id(spec), record)
    except BaseException:
        daemon.kill()
        raise
    return perf_counter() - start, daemon, clients


def service_pass(seed: int, seconds: float, daemon: Daemon, clients, tally: Tally) -> Tally:
    """Two closed-loop clients walk the seeded job sequence."""
    grid_seed, jobs = inputs.service_plan(seed)
    grid = inputs.grid_specs(grid_seed)
    grid_ids = [inputs.spec_id(spec) for spec in grid]
    hit_payloads = _payloads(grid) * inputs.HIT_TILES
    hit_ids = grid_ids * inputs.HIT_TILES
    lock = threading.Lock()
    cursor = iter(jobs)
    done = {"hit": 0, "miss": 0}
    deadline = min(seconds, PHASE_LIMIT_S)
    start = perf_counter()

    def next_job():
        with lock:
            elapsed = perf_counter() - start
            enough = done["hit"] >= MIN_JOBS_PER_KIND and done["miss"] >= MIN_JOBS_PER_KIND
            if elapsed >= PHASE_LIMIT_S or (elapsed >= deadline and enough):
                return None
            return next(cursor, None)

    def drive(client) -> None:
        while True:
            job = next_job()
            if job is None:
                return
            kind, specs = job
            payloads = hit_payloads if kind == "hit" else _payloads(specs)
            ids = hit_ids if kind == "hit" else [inputs.spec_id(s) for s in specs]
            arrived: List = []
            first: List[float] = []

            def on_record(index, record):
                if not first:
                    first.append(perf_counter())
                arrived.append((index, record))

            submitted = perf_counter()
            try:
                _, counters = daemon.run_job(client, payloads, on_record=on_record)
            except Exception as error:
                with lock:
                    tally.jobs += 1
                tally.job_failed(f"{kind} job failed: {error}")
                return
            finished = perf_counter()
            # Checked after the job, outside its latency: the client's
            # think time in the closed loop.
            with lock:
                tally.jobs += 1
                done[kind] += 1
                (tally.hit_ms if kind == "hit" else tally.miss_ms).append(
                    (finished - submitted) * 1e3
                )
                if first:
                    tally.first_record_ms.append((first[0] - submitted) * 1e3)
                for name, value in counters.items():
                    tally.counters[name] = tally.counters.get(name, 0) + value
                check_delivered(arrived, ids, tally)

    def guarded(client) -> None:
        try:
            drive(client)
        except Exception as error:  # a broken check must not pass silently
            tally.job_failed(f"load client crashed: {error!r}")

    threads = [threading.Thread(target=guarded, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.wall = tally.job_wall = perf_counter() - start
    tally.split = dict(done)
    tally.peak_rss_mb = daemon.peak_rss_mb()
    shut_down(daemon, clients, tally)
    return tally


def check_delivered(arrived, ids, tally: Tally) -> None:
    """Check one job's ``(index, record)`` deliveries against ``ids``."""
    seen = [False] * len(ids)
    for index, record in arrived:
        if not 0 <= index < len(ids) or seen[index]:
            tally.checker.reject(f"service job delivered a stray record {index}")
            continue
        seen[index] = True
        tally.cells += tally.checker.check(ids[index], record)
    for index, flag in enumerate(seen):
        if not flag:
            tally.checker.missing(ids[index])


def shut_down(daemon: Daemon, clients, tally: Tally) -> None:
    """Close the clients and drain the daemon; an unclean drain fails."""
    for client in clients:
        client.close()
    tally.drains += 1
    if not daemon.drain():
        tally.drain_failed("the service did not drain cleanly on SIGTERM")


# ---------------------------------------------------------------- metrics


def end_to_end(tally: Tally) -> Dict[str, float]:
    def pct(values, q):
        return analyze.percentile(values, q) if values else 0.0

    return {
        "cells_per_s": tally.cells / tally.wall,
        "jobs_per_s": tally.jobs / tally.job_wall,
        "peak_rss_mb": tally.peak_rss_mb,
        "hit_job_p50_ms": pct(tally.hit_ms, 50),
        "hit_job_p90_ms": pct(tally.hit_ms, 90),
        "miss_job_p50_ms": pct(tally.miss_ms, 50),
        "miss_job_p90_ms": pct(tally.miss_ms, 90),
        "setup_s": statistics.median(tally.setups),
    }


def _rate(tally: Tally) -> float:
    return tally.cells / tally.wall if tally.wall else 0.0


def layer_metrics(traced: Tally, untraced: Tally, spans_dir: Path) -> Dict[str, float]:
    paths = sorted(str(p) for p in spans_dir.glob("*.jsonl"))
    spans, headers = analyze.load(paths)
    metrics = analyze.per_layer_metrics(spans, headers)
    counters = traced.counters
    delivered = max(traced.cells, 1)
    metrics.update({
        "results.stored_bytes": traced.stored_bytes,
        "service.first_record_ms_p50": (
            analyze.percentile(traced.first_record_ms, 50) if traced.first_record_ms else 0.0
        ),
        "service.remote_cache_hits": counters.get("remote_cache_hits", 0),
        "service.worker_restarts": counters.get("worker_restarts", 0),
        "wire.bytes_per_cell": counters.get("bytes_received", 0) / delivered,
        "wire.frames_coalesced": counters.get("frames_coalesced", 0),
        "wire.blocks_compressed": counters.get("blocks_compressed", 0),
        "trace.overhead_frac": (
            _rate(untraced) / _rate(traced) - 1.0 if _rate(traced) else 0.0
        ),
    })
    print(analyze.render(analyze.layer_table(spans)))
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ------------------------------------------------------------- workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, digests):
    """Returns ``(metrics, tallies)`` of one run."""
    spans = work / "spans"
    spans.mkdir(parents=True)
    untraced = Tally(digests)
    if name == "sweep-cold":
        sweep_cold_pass(seed, seconds, work, None, untraced)
        if not trace:
            return end_to_end(untraced), [untraced]
        traced = sweep_cold_pass(seed, seconds, work, spans, Tally(digests))
    else:
        repeats = 1 if trace else SETUP_REPEATS
        daemons: List[Daemon] = []
        try:
            for index in range(repeats):
                setup, daemon, clients = service_setup(
                    seed, work / f"daemon{index}", None, untraced,
                )
                daemons.append(daemon)
                untraced.setups.append(setup)
                if index < repeats - 1:
                    shut_down(daemon, clients, untraced)
            service_pass(seed, seconds, daemon, clients, untraced)
            if not trace:
                return end_to_end(untraced), [untraced]
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
            traced = Tally(digests)
            _, daemon, clients = service_setup(seed, work / "traced", spans / "daemon", traced)
            daemons.append(daemon)
            service_pass(seed, seconds, daemon, clients, traced)
            recorder.dump(str(spans / "load.jsonl"))
        finally:
            for daemon in daemons:
                daemon.kill()
    return layer_metrics(traced, untraced, spans), [untraced, traced]


# -------------------------------------------------------------- reporting


def provenance() -> Dict[str, object]:
    from repro import config_env

    def git(*args) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "modes": {
            "sim_engine": config_env.sim_engine_mode(),
            "selector": config_env.selector_mode(),
            "wire": config_env.wire_mode(),
            "cache_dir": config_env.cache_dir(),
        },
        "holdout_seed": HOLDOUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the repo benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in MODE_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = reference.load()

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, tallies = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work, digests,
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still works there

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    main_tally = tallies[0]
    facts = provenance()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  provenance: {json.dumps(facts, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':32s} {failed / max(attempted, 1):14.6g} ratio")
    print(f"  samples: {len(main_tally.hit_ms)} hit jobs, {len(main_tally.miss_ms)} miss jobs, "
          f"{main_tally.cells} cells")
    for q_name, values in (("hit", main_tally.hit_ms), ("miss", main_tally.miss_ms)):
        tail = analyze.tail_percentile(values)
        if tail is not None:
            print(f"  {q_name} job tail: p{tail[0]:g} = {tail[1]:.2f} ms")
    split = main_tally.split
    if split is not None:
        print(f"  hit/miss split: {split['hit']}/{split['miss']}")
    for tally in tallies:
        if tally.checker.first_failure:
            print(f"  FAILED: {tally.checker.first_failure}")

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": facts,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "hit_job_ms": main_tally.hit_ms,
        "miss_job_ms": main_tally.miss_ms,
        "setup_s_samples": main_tally.setups,
        "split": split,
    }
    out = RESULTS / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
