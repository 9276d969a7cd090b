"""Executor backends: registry, batch planning, the frame codec, the
daemon handshake, worker loss, coordinator-only mode, construction
memoisation, and the cross-backend byte-identity contract
(serial == pool == service)."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.experiments import engine as engine_module
from repro.experiments.backends import (
    BACKENDS,
    PoolBackend,
    SerialBackend,
    ServiceBackend,
    backend_names,
    plan_batches,
    resolve_backend,
)
from repro.experiments.backends.base import group_key
from repro.experiments.backends.worker import worker_loop
from repro.experiments.engine import (
    BUILD_COUNTERS,
    SweepCell,
    SweepEngine,
    clear_build_memo,
    execute_batch,
)
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.daemon import start_service_thread
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.util.validation import ReproError

FAST = {"frames": 2, "scale": 0.4}


def make_cells(budgets=((1, 1), (2, 1)), seeds=(0, 1),
               policies=("risc", "mrts")):
    """2 budgets x 2 seeds x 2 policies = 8 small-but-real cells."""
    return [
        SweepCell.make(budget, seed, policy, workload_params=FAST)
        for budget in budgets
        for seed in seeds
        for policy in policies
    ]


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts and ends with empty construction memos."""
    clear_build_memo()
    yield
    clear_build_memo()


class TestRegistry:
    def test_all_three_backends_registered(self):
        assert backend_names() == ["pool", "serial", "service"]
        assert set(backend_names()) == set(BACKENDS)

    def test_retired_distributed_backend_rejected(self):
        retired = "distributed"
        message = (
            rf"unknown backend '{retired}'; "
            r"registered: \['pool', 'serial', 'service'\]"
        )
        with pytest.raises(ReproError, match=message):
            resolve_backend(retired)
        with pytest.raises(ReproError, match=message):
            SweepEngine(backend=retired)

    def test_auto_selection_matches_legacy_behaviour(self):
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=4), PoolBackend)

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool", jobs=2), PoolBackend)
        assert isinstance(
            resolve_backend("service", workers=1), ServiceBackend
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend("warp")
        with pytest.raises(ReproError, match="unknown backend"):
            SweepEngine(backend="warp")


class TestPlanBatches:
    def test_batches_never_span_library_groups(self):
        cells = make_cells()
        batches = plan_batches(cells, chunk_size=3)
        for batch in batches:
            keys = {group_key(cells[i]) for i in batch}
            assert len(keys) == 1

    def test_every_cell_dispatched_exactly_once(self):
        cells = make_cells()
        batches = plan_batches(cells, parts=3)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(cells)))

    def test_groups_in_first_appearance_order(self):
        cells = make_cells()
        batches = plan_batches(cells, chunk_size=100)
        first_keys = [group_key(cells[batch[0]]) for batch in batches]
        seen = []
        for cell in cells:
            key = group_key(cell)
            if key not in seen:
                seen.append(key)
        assert first_keys == seen

    def test_chunk_size_caps_batches(self):
        cells = make_cells()
        assert all(len(b) == 1 for b in plan_batches(cells, chunk_size=1))

    def test_empty_and_plan_is_deterministic(self):
        assert plan_batches([]) == []
        cells = make_cells()
        assert plan_batches(cells, parts=2) == plan_batches(cells, parts=2)


class TestWireProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            frame = {"type": "batch", "batch": 3, "cells": [{"seed": 1}]}
            send_frame(a, frame)
            assert recv_frame(b) == frame
        finally:
            a.close()
            b.close()

    def test_length_prefix_is_big_endian(self):
        blob = encode_frame({"x": 1})
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4

    def test_oversized_incoming_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ReproError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address(None) == ("127.0.0.1", 0)
        assert parse_address("10.0.0.5:7777") == ("10.0.0.5", 7777)
        with pytest.raises(ReproError):
            parse_address("no-port")
        with pytest.raises(ReproError):
            parse_address("host:notanint")


class TestHandshake:
    """The daemon's hello/welcome exchange, spoken by a raw socket worker."""

    @pytest.fixture(scope="class")
    def daemon(self):
        # No store: every job's cells reach a worker as a batch.
        handle = start_service_thread(workers=0, wire_encoding="binary")
        yield handle
        assert handle.stop()

    def _hello(self, daemon, hello):
        conn = socket.create_connection(daemon.address, timeout=30)
        send_frame(conn, hello)
        return conn, recv_frame(conn)

    def _serve_one_batch(self, daemon, conn) -> bytes:
        """Submit a one-cell job and serve its batch on ``conn``; returns
        the batch frame's raw payload (after the length prefix)."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,), policies=("risc",))
        outcome = {}

        def submit():
            with ServiceClient(daemon.coordinator) as client:
                client._conn.settimeout(60)
                outcome["records"], _ = client.run_job(
                    [c.payload() for c in cells]
                )

        submitter = threading.Thread(target=submit)
        submitter.start()
        stream = conn.makefile("rb")
        (length,) = struct.unpack(">I", stream.read(4))
        raw = stream.read(length)
        batch = wire.decode_blob(raw)
        assert batch["type"] == "batch"
        records, built = execute_batch(
            [SweepCell.from_payload(p) for p in batch["cells"]]
        )
        send_frame(conn, {
            "type": "result", "batch": batch["batch"],
            "records": records, "built": built,
        })
        submitter.join(timeout=60)
        assert outcome["records"] == records
        return raw

    def test_matching_hello_welcomed_with_fingerprints(self, daemon):
        # No "wire" capability in the hello: welcomed, and batches reach
        # this worker as plain JSON frames.
        hello = {
            "type": "hello",
            "schema": engine_module.ENGINE_SCHEMA,
            "protocol": PROTOCOL_VERSION,
        }
        conn, reply = self._hello(daemon, hello)
        try:
            assert reply["type"] == "welcome"
            assert reply["schema"] == engine_module.ENGINE_SCHEMA
            raw = self._serve_one_batch(daemon, conn)
            assert raw[:1] == b"{"
            fingerprint = json.loads(raw)["fingerprint"]
        finally:
            conn.close()
        # Later joiners are welcomed with every fingerprint seen so far.
        conn, reply = self._hello(daemon, hello)
        conn.close()
        assert reply["type"] == "welcome"
        assert fingerprint in reply["fingerprints"]

    def test_v2_hello_negotiates_binary_wire(self, daemon):
        conn, reply = self._hello(daemon, {
            "type": "hello",
            "schema": engine_module.ENGINE_SCHEMA,
            "protocol": PROTOCOL_VERSION,
            "wire": ["v2"],
        })
        try:
            assert reply["type"] == "welcome"
            assert "v2" in reply["wire"]
            raw = self._serve_one_batch(daemon, conn)
            assert raw[0] == wire.WIRE_MAGIC
        finally:
            conn.close()

    def test_schema_mismatch_rejected(self, daemon):
        conn, reply = self._hello(daemon, {
            "type": "hello", "schema": -1, "protocol": PROTOCOL_VERSION,
        })
        conn.close()
        assert reply["type"] == "reject"
        assert "mismatch" in reply["reason"]

    def test_protocol_mismatch_rejected(self, daemon):
        conn, reply = self._hello(daemon, {
            "type": "hello",
            "schema": engine_module.ENGINE_SCHEMA,
            "protocol": PROTOCOL_VERSION + 1,
        })
        conn.close()
        assert reply["type"] == "reject"
        assert "mismatch" in reply["reason"]


class TestConstructionMemo:
    def test_batch_reuses_applications_and_libraries(self):
        cells = make_cells()
        records, built = execute_batch(cells)
        assert len(records) == len(cells)
        # 2 seeds -> 2 applications; 2 budgets -> 2 libraries; the other
        # 12 logical constructions are memo hits.
        assert built["applications_built"] == 2
        assert built["libraries_built"] == 2
        assert built["applications_saved"] == len(cells) - 2
        assert built["libraries_saved"] == len(cells) - 2

    def test_memoized_records_identical_to_cold(self):
        cells = make_cells()
        cold, _ = execute_batch(cells)
        warm, built = execute_batch(cells)  # memos still populated
        assert json.dumps(cold) == json.dumps(warm)
        assert built["applications_built"] == 0
        assert built["libraries_built"] == 0

    def test_clear_build_memo_resets_counters(self):
        execute_batch(make_cells())
        clear_build_memo()
        assert all(value == 0 for value in BUILD_COUNTERS.values())


class TestBackendIdentity:
    def test_serial_pool_service_byte_identical(self):
        cells = make_cells()
        blobs = {}
        for name in backend_names():
            engine = SweepEngine(
                jobs=2 if name == "pool" else 1,
                use_cache=False,
                backend=name,
                workers=2 if name == "service" else None,
            )
            blobs[name] = json.dumps(engine.run(cells))
            if name == "serial":
                assert engine.stats.builds_saved > 0
                assert engine.stats.frames_sent == 0
            else:
                assert engine.stats.frames_sent > 0
        assert blobs["pool"] == blobs["serial"]
        assert blobs["service"] == blobs["serial"]

    def test_engine_payload_surfaces_transport_counters(self):
        engine = SweepEngine(jobs=1, use_cache=False, backend="serial")
        engine.run(make_cells(budgets=((1, 1),), seeds=(0,)))
        payload = engine.stats.engine_payload()
        for key in ("builds_saved", "frames_sent", "worker_restarts"):
            assert key in payload


class TestDistributedRetry:
    def test_dead_worker_batch_requeued_and_rerun(self, tmp_path):
        """A worker of a multi-worker fleet crashing mid-sweep must cost a
        restart, not correctness: its batch is requeued, rerun by another
        worker, and the restart reaches the service backend's counters."""
        cells = make_cells()
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        clear_build_memo()
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}, {}], cache_dir=str(tmp_path)
        )
        try:
            # Both workers must have joined before the job is planned, so
            # the doomed worker is guaranteed to receive (and drop) a batch.
            deadline = time.monotonic() + 30
            while len(handle.service._live) < 2:
                assert time.monotonic() < deadline, "workers never joined"
                time.sleep(0.01)
            backend = ServiceBackend(coordinator=handle.coordinator)
            records = backend.run(cells)
        finally:
            assert handle.stop()
        assert records == serial
        assert backend.counters["worker_restarts"] >= 1


class TestWorkerLoss:
    def test_restart_budget_exhaustion_fails_loudly(self, tmp_path):
        """Losing the whole local fleet with no restart budget left must
        fail the job with one line, not leave the client waiting."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}], max_restarts=0,
            cache_dir=str(tmp_path),
        )
        try:
            with ServiceClient(handle.coordinator) as client:
                # Bounded wait: a hang surfaces as a socket timeout (not
                # the asserted ReproError) instead of stalling the suite.
                client._conn.settimeout(60)
                with pytest.raises(ReproError, match="restart budget"):
                    client.run_job([c.payload() for c in cells])
        finally:
            assert handle.stop()
        assert handle.service.jobs_failed == 1

    def test_replacement_still_dialing_is_waited_for(self, tmp_path):
        """The last live worker dies, but the replacement it earned is
        still dialing: the job must wait for it, not fail."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        clear_build_memo()
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}], max_restarts=1,
            cache_dir=str(tmp_path),
        )
        try:
            with ServiceClient(handle.coordinator) as client:
                client._conn.settimeout(60)
                records, counters = client.run_job(
                    [c.payload() for c in cells]
                )
        finally:
            assert handle.stop()
        assert records == serial
        assert counters["worker_restarts"] == 1

    def test_later_worker_still_served_after_fleet_loss(self, tmp_path):
        """After failing the stranded job the daemon keeps serving: a
        worker dialing in afterwards runs the next job."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        clear_build_memo()
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}], max_restarts=0,
            cache_dir=str(tmp_path),
        )
        worker = threading.Thread(
            target=worker_loop, args=(handle.address,), daemon=True
        )
        try:
            with ServiceClient(handle.coordinator) as client:
                client._conn.settimeout(60)
                with pytest.raises(ReproError, match="restart budget"):
                    client.run_job([c.payload() for c in cells])
                worker.start()
                records, _counters = client.run_job(
                    [c.payload() for c in cells]
                )
        finally:
            assert handle.stop()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert records == serial


class TestCoordinatorOnlyMode:
    def test_zero_workers_requires_an_address(self):
        # A self-hosted daemon is private: nobody could join it.
        with pytest.raises(ReproError, match="external workers"):
            resolve_backend("service", workers=0)
        with pytest.raises(ReproError, match="external workers"):
            SweepEngine(backend="service", workers=0)
        with pytest.raises(ReproError, match="workers must be >= 0"):
            SweepEngine(backend="service", workers=-1)
        # With an address the sweep goes to that daemon's fleet instead.
        backend = resolve_backend(
            "service", workers=0, coordinator="127.0.0.1:7341"
        )
        assert isinstance(backend, ServiceBackend)

    def test_external_worker_joins_and_serves(self, tmp_path):
        """A ``workers=0`` daemon spawns nothing locally; a job waits
        until a worker dials the advertised address, which then serves
        it byte-identical to serial."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        clear_build_memo()
        handle = start_service_thread(workers=0, cache_dir=str(tmp_path))
        outcome = {}

        def submit():
            with ServiceClient(handle.coordinator) as client:
                client._conn.settimeout(60)
                outcome["records"], _ = client.run_job(
                    [c.payload() for c in cells]
                )

        submitter = threading.Thread(target=submit)
        worker = threading.Thread(
            target=lambda: outcome.update(exit=worker_loop(handle.address))
        )
        try:
            submitter.start()
            deadline = time.monotonic() + 30
            while handle.service.jobs_accepted < 1:
                assert time.monotonic() < deadline, "job never accepted"
                time.sleep(0.01)
            # The job waits for a worker instead of failing.
            assert submitter.is_alive()
            assert handle.service.jobs_failed == 0
            worker.start()
            submitter.join(timeout=60)
            assert not submitter.is_alive()
        finally:
            assert handle.stop()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert outcome["records"] == serial
        assert outcome["exit"] == 0


class TestWorkerCli:
    def test_bad_coordinator_address_is_a_usage_error(self, capsys):
        from repro.experiments.backends.worker import main

        assert main(["--coordinator", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_repro_worker_subcommand_wired(self, capsys):
        from repro.cli import main

        assert main(["worker", "--coordinator", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err
