"""The binary columnar wire codec and its negotiation contract.

The codec's promise is lossless determinism: any frame or record batch
must round-trip byte-exactly through the envelope (with or without the
adaptive deflate), mixed-version connections must silently agree on
plain JSON, and a worker drain must never drop results that were queued
but not yet flushed.  Property tests drive the round-trip claims over
adversarial record shapes (mixed column kinds, unicode, ints beyond
int64, absent keys); the handshake and tail-flush claims run against
the real daemon and worker loops on loopback.
"""

import hashlib
import json
import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import engine as engine_module
from repro.experiments.backends.worker import worker_loop
from repro.experiments.engine import SweepCell, SweepEngine, clear_build_memo
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.daemon import start_service_thread
from repro.service.frames import BATCH, GOODBYE, RESULT, SHUTDOWN, WELCOME
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.util.validation import ReproError

FAST = {"frames": 2, "scale": 0.4}


def small_cells():
    """Four small-but-real cells (1 budget x 2 seeds x 2 policies)."""
    return [
        SweepCell.make((1, 1), seed, policy, workload_params=FAST)
        for seed in (0, 1)
        for policy in ("risc", "mrts")
    ]


@pytest.fixture
def fresh_memo():
    """Empty construction memos around tests that execute real cells
    (not autouse: the codec property tests never build anything, and a
    function-scoped autouse fixture trips hypothesis's health check)."""
    clear_build_memo()
    yield
    clear_build_memo()


# ------------------------------------------------------ value strategies

# Values a canonical record can carry: scalars of every column kind the
# shard codec distinguishes, plus nested JSON structure, plus ints wide
# enough to overflow the packed int64 column.
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars | st.none(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)
_records = st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=8)
_indexed = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40), _records),
    max_size=12,
)
_frames = st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=8)


# ------------------------------------------------------ record blocks


class TestRecordBlock:
    @settings(max_examples=60, deadline=None)
    @given(_indexed)
    def test_round_trip_exact(self, indexed):
        block = wire.encode_record_block(indexed)
        assert wire.decode_record_block(block) == indexed

    @settings(max_examples=30, deadline=None)
    @given(_indexed)
    def test_round_trip_survives_json_transport(self, indexed):
        # Blocks travel inside a JSON frame document: a full serialise /
        # parse of the block must not perturb the decoded rows.
        block = json.loads(json.dumps(wire.encode_record_block(indexed)))
        assert wire.decode_record_block(block) == indexed

    def test_empty_batch(self):
        assert wire.decode_record_block(wire.encode_record_block([])) == []

    def test_unicode_ids_and_big_ints(self):
        rows = [
            (0, {"id": "séquence-☃", "n": 2**80}),
            (1, {"id": "плитка", "n": -(2**80)}),
            (7, {"id": "簡体字", "n": 0}),
        ]
        block = wire.encode_record_block(rows)
        assert wire.decode_record_block(block) == rows

    def test_checksum_mismatch_raises(self):
        block = wire.encode_record_block([(0, {"a": 1})])
        block["checksum"] = "0" * 64
        with pytest.raises(ReproError, match="checksum"):
            wire.decode_record_block(block)

    def test_missing_shard_raises(self):
        with pytest.raises(ReproError, match="shard"):
            wire.decode_record_block({"checksum": "x"})


# ------------------------------------------------------ binary envelope


class TestBinaryFrame:
    @settings(max_examples=60, deadline=None)
    @given(_frames)
    def test_round_trip_exact(self, frame):
        blob = wire.encode_binary_frame(frame)
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4
        assert wire.decode_blob(blob[4:]) == frame

    def test_compressible_frame_rides_deflated(self):
        frame = {"type": "x", "payload": "abcdef" * 4000}
        blob = wire.encode_binary_blob(frame)
        assert blob[0] == wire.WIRE_MAGIC
        assert blob[1] & wire.FLAG_ZLIB
        assert len(blob) < len(wire.canonical_json(frame))
        assert wire.decode_blob(blob) == frame

    def test_plain_json_blob_still_decodes(self):
        # The receive path never needs negotiation state: a JSON payload
        # (old peer) decodes through the same entry point.
        frame = {"type": "hello", "schema": 3}
        blob = wire.canonical_json(frame).encode("utf-8")
        assert wire.decode_blob(blob) == frame

    def test_encodings_interleave_on_one_socket(self):
        server, client = socket.socketpair()
        try:
            send_frame(server, {"n": 1}, binary=False)
            send_frame(server, {"n": 2, "pad": "ab" * 600}, binary=True)
            send_frame(server, {"n": 3}, binary=False)
            assert [recv_frame(client)["n"] for _ in range(3)] == [1, 2, 3]
        finally:
            server.close()
            client.close()

    def test_truncated_envelope_raises(self):
        with pytest.raises(ReproError, match="envelope"):
            wire.decode_blob(bytes((wire.WIRE_MAGIC,)))

    def test_corrupt_deflate_raises(self):
        blob = bytes((wire.WIRE_MAGIC, wire.FLAG_ZLIB)) + b"not-deflate"
        with pytest.raises(ReproError, match="corrupt"):
            wire.decode_blob(blob)

    def test_non_object_payload_raises(self):
        with pytest.raises(ReproError, match="object"):
            wire.decode_blob(b"[1,2,3]")

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ReproError, match="exceeds"):
            wire.encode_binary_frame({"pad": hashlib.sha256(b"x").hexdigest()})

    def test_decode_counts_compressed_blocks(self):
        stats = wire.WireStats()
        blob = wire.encode_binary_blob({"pad": "abcdef" * 4000})
        wire.decode_blob(blob, stats)
        assert stats.snapshot()["blocks_compressed"] == 1


class TestAdaptiveCompression:
    def test_small_payloads_ship_raw(self):
        payload = b"x" * (wire.COMPRESS_MIN_BYTES - 1)
        assert wire.maybe_compress(payload) == (0, payload)

    def test_incompressible_payloads_ship_raw(self):
        # Concatenated digests: statistically incompressible, but fully
        # deterministic so the test never flakes.
        payload = b"".join(
            hashlib.sha256(bytes([i])).digest() for i in range(256)
        )
        flags, body = wire.maybe_compress(payload)
        assert flags == 0
        assert body is payload

    def test_compressible_payloads_deflate_round_trip(self):
        payload = b"abcdef" * 10000
        flags, body = wire.maybe_compress(payload)
        assert flags == wire.FLAG_ZLIB
        assert len(body) < len(payload)
        assert zlib.decompress(body) == payload

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=8192))
    def test_deterministic_and_lossless(self, payload):
        first = wire.maybe_compress(payload)
        assert wire.maybe_compress(payload) == first
        flags, body = first
        restored = zlib.decompress(body) if flags & wire.FLAG_ZLIB else body
        assert restored == payload


# --------------------------------------------------------- negotiation


class TestNegotiation:
    def test_both_binary_agree(self):
        assert wire.negotiate_wire(True, ["v2"]) is True
        assert wire.negotiate_wire(True, ("v2",)) is True

    def test_any_json_side_falls_back(self):
        assert wire.negotiate_wire(False, ["v2"]) is False
        assert wire.negotiate_wire(True, []) is False

    def test_old_or_malformed_peers_fall_back(self):
        assert wire.negotiate_wire(True, None) is False
        assert wire.negotiate_wire(True, "v2") is False
        assert wire.negotiate_wire(True, ["v1"]) is False
        assert wire.negotiate_wire(True, {"v2": True}) is False

    def test_capabilities_advertised_only_in_binary_mode(self):
        assert wire.wire_capabilities(True) == [wire.WIRE_V2]
        assert wire.wire_capabilities(False) == []


# ---------------------------------------------------- mixed-version legs


class TestMixedVersionService:
    """Every client/daemon encoding mix must stay byte-identical."""

    def _run_leg(self, tmp_path, daemon_mode, client_mode, leg):
        cells = small_cells()
        payloads = [cell.payload() for cell in cells]
        handle = start_service_thread(
            workers=1,
            cache_dir=str(tmp_path / leg),
            wire_encoding=daemon_mode,
        )
        try:
            with ServiceClient(
                handle.coordinator, wire_encoding=client_mode
            ) as client:
                negotiated = client.wire_binary
                # One batch for the whole job, so a binary leg resolves
                # several cells per result and actually coalesces.
                records, counters = client.run_job(
                    payloads, chunk=len(payloads)
                )
        finally:
            handle.stop()
        return negotiated, records, counters

    def test_all_mixes_byte_identical_to_serial(self, tmp_path, fresh_memo):
        serial = json.dumps(
            SweepEngine(use_cache=False, backend="serial").run(small_cells())
        )
        mixes = [
            ("binary", "binary", True),
            ("binary", "json", False),
            ("json", "binary", False),
        ]
        for daemon_mode, client_mode, expect_binary in mixes:
            clear_build_memo()
            leg = f"{daemon_mode}-{client_mode}"
            negotiated, records, counters = self._run_leg(
                tmp_path, daemon_mode, client_mode, leg
            )
            assert negotiated is expect_binary, leg
            assert json.dumps(records) == serial, leg
            if expect_binary:
                # 4 cells arrive as coalesced blocks, not single frames.
                assert counters["frames_coalesced"] > 0, leg
            else:
                assert counters["frames_coalesced"] == 0, leg
                assert counters["blocks_compressed"] == 0, leg


# -------------------------------------------------- worker drain flush


class TestWorkerTailFlush:
    def test_queued_result_precedes_goodbye_on_shutdown(self, fresh_memo):
        """A SHUTDOWN arriving while the tail result is still coalesced
        must flush the result before the GOODBYE, never drop it."""
        cells = small_cells()[:1]
        expected, _built = engine_module.execute_batch(cells)
        clear_build_memo()

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = listener.getsockname()
        outcome = {}

        def serve_worker():
            outcome["exit"] = worker_loop(address, wire_encoding="binary")

        thread = threading.Thread(target=serve_worker)
        thread.start()
        conn, _ = listener.accept()
        try:
            hello = recv_frame(conn)
            assert wire.WIRE_V2 in hello["wire"]
            send_frame(
                conn,
                {
                    "type": WELCOME,
                    "schema": engine_module.ENGINE_SCHEMA,
                    "protocol": PROTOCOL_VERSION,
                    "fingerprints": [],
                    "wire": [wire.WIRE_V2],
                },
            )
            # Batch and shutdown land back-to-back in one write: by the
            # time the worker finishes the batch the socket already holds
            # the SHUTDOWN, so the idle-flush heuristic keeps the RESULT
            # queued and only the drain path can deliver it.
            conn.sendall(
                encode_frame(
                    {"type": BATCH, "batch": 0,
                     "cells": [cells[0].payload()]}
                )
                + encode_frame({"type": SHUTDOWN})
            )
            result = recv_frame(conn)
            assert result["type"] == RESULT
            rows = wire.decode_record_block(result["block"])
            assert [record for _i, record in rows] == expected
            assert recv_frame(conn)["type"] == GOODBYE
        finally:
            conn.close()
            listener.close()
            thread.join(timeout=30)
        assert outcome["exit"] == 0
