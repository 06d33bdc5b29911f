"""Frame format, channel ordering, handshake, and TCP/in-process parity."""

import threading

import numpy as np
import pytest

from fedsplit.errors import HandshakeError, ProtocolError, TransportTimeout
from fedsplit.transport import (
    MsgType,
    ProtocolMessage,
    body_length,
    decode_frame,
    encode_frame,
    handshake,
    inproc_pair,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)

F32 = np.float32


def frame_of(msg_type, payload=None, meta=None, round_no=1):
    return encode_frame(ProtocolMessage(msg_type=msg_type, round=round_no,
                                        payload=payload, meta=meta or {}))


class TestFrameFormat:
    def test_matrix_round_trip_is_identity(self):
        payload = np.arange(6, dtype=F32).reshape(3, 2)
        raw = frame_of(MsgType.ACTIVATION, payload=payload, round_no=9)
        msg = decode_frame(raw[:22], raw[22:])
        assert msg.msg_type == MsgType.ACTIVATION
        assert msg.round == 9
        np.testing.assert_array_equal(msg.payload, payload)
        assert msg.payload.dtype == F32

    def test_header_layout(self):
        payload = np.zeros((3, 2), dtype=F32)
        raw = frame_of(MsgType.GRADIENT, payload=payload, round_no=5)
        assert raw[:4] == b"VFSD"
        assert raw[4] == 1  # version
        assert raw[5] == int(MsgType.GRADIENT)
        assert int.from_bytes(raw[6:14], "little") == 5
        assert int.from_bytes(raw[14:18], "little") == 3
        assert int.from_bytes(raw[18:22], "little") == 2
        assert len(raw) == 22 + 3 * 2 * 4

    def test_payload_bytes_little_endian(self):
        payload = np.array([[1.0]], dtype=F32)
        raw = frame_of(MsgType.ACTIVATION, payload=payload)
        assert raw[22:] == np.array([1.0], dtype="<f4").tobytes()

    def test_meta_round_trip(self):
        raw = frame_of(MsgType.HELLO, meta={"schema_hash": "abc", "role": "active"})
        msg = decode_frame(raw[:22], raw[22:])
        assert msg.meta == {"schema_hash": "abc", "role": "active"}
        assert msg.payload is None

    def test_payloadless_frame_has_zero_dims(self):
        raw = frame_of(MsgType.BYE)
        assert int.from_bytes(raw[14:18], "little") == 0
        assert int.from_bytes(raw[18:22], "little") == 0
        assert body_length(raw[:22]) == 0

    def test_bad_magic_rejected(self):
        raw = bytearray(frame_of(MsgType.BYE))
        raw[0] = ord("X")
        with pytest.raises(ProtocolError):
            decode_frame(bytes(raw[:22]), b"")

    def test_unknown_type_code_rejected_before_the_body_is_read(self):
        raw = bytearray(frame_of(MsgType.BYE))
        raw[5] = 250
        with pytest.raises(ProtocolError, match="unknown message type 250"):
            body_length(bytes(raw[:22]))
        with pytest.raises(ProtocolError, match="unknown message type 250"):
            decode_frame(bytes(raw[:22]), b"")

    def test_matrix_frame_refuses_meta(self):
        with pytest.raises(ProtocolError):
            encode_frame(ProtocolMessage(MsgType.ACTIVATION, round=1,
                                         payload=np.zeros((1, 1), F32),
                                         meta={"x": "1"}))

    def test_truncated_payload_rejected(self):
        payload = np.zeros((2, 2), dtype=F32)
        raw = frame_of(MsgType.ACTIVATION, payload=payload)
        with pytest.raises(ProtocolError):
            decode_frame(raw[:22], raw[22:-4])


class TestInProcChannel:
    def test_send_recv(self):
        a, b = inproc_pair()
        a.send_new(MsgType.CONTROL, meta={"cmd": "phase"})
        msg = b.recv()
        assert msg.msg_type == MsgType.CONTROL
        assert msg.meta["cmd"] == "phase"

    def test_rounds_increase_per_direction(self):
        a, b = inproc_pair()
        assert a.send_new(MsgType.CONTROL, meta={"cmd": "x"}) == 1
        assert a.send_new(MsgType.CONTROL, meta={"cmd": "y"}) == 2
        assert b.send_new(MsgType.CONTROL, meta={"cmd": "z"}) == 1
        b.recv(); b.recv(); a.recv()

    def test_out_of_order_round_rejected(self):
        a, b = inproc_pair()
        stale = encode_frame(ProtocolMessage(MsgType.CONTROL, round=5, meta={"cmd": "x"}))
        a._write(stale)
        a._write(encode_frame(ProtocolMessage(MsgType.CONTROL, round=5, meta={"cmd": "y"})))
        b.recv()
        with pytest.raises(ProtocolError, match="out-of-order"):
            b.recv()

    def test_timeout(self):
        a, _ = inproc_pair()
        with pytest.raises(TransportTimeout):
            a.recv(timeout=0.05)

    def test_ten_thousand_round_echo_preserves_every_bit(self):
        a, b = inproc_pair()
        rng = np.random.default_rng(0)
        for i in range(10_000):
            payload = rng.normal(size=(2, 3)).astype(F32)
            a.send_new(MsgType.ACTIVATION, payload=payload)
            got = b.recv()
            assert got.payload.tobytes() == payload.tobytes()

    def test_counters(self):
        a, b = inproc_pair()
        a.send_new(MsgType.ACTIVATION, payload=np.zeros((2, 2), F32))
        a.send_new(MsgType.CONTROL, meta={"cmd": "x"})
        b.recv(); b.recv()
        assert a.counters.sent == {"ACTIVATION": 1, "CONTROL": 1}
        assert b.counters.received == {"ACTIVATION": 1, "CONTROL": 1}
        assert a.counters.bytes_sent == b.counters.bytes_received > 0


class TestHandshake:
    def test_matching_hashes_establish_session(self):
        a, b = inproc_pair()
        results = {}

        def passive():
            results["b"] = handshake(b, role="passive", schema_hash="s1", config_hash="c1")

        t = threading.Thread(target=passive)
        t.start()
        session = handshake(a, role="active", schema_hash="s1", config_hash="c1")
        t.join()
        assert session.schema_hash == "s1"
        assert results["b"].peer_meta["role"] == "active"

    def test_hello_transcript_logs_both_config_hashes(self):
        a, b = inproc_pair()
        t = threading.Thread(
            target=lambda: handshake(b, role="passive", schema_hash="s1", config_hash="c1")
        )
        t.start()
        handshake(a, role="active", schema_hash="s1", config_hash="c1")
        t.join()
        hellos = [e for e in a.transcript if e.msg_type == int(MsgType.HELLO)]
        assert len(hellos) == 2
        assert {e.direction for e in hellos} == {"send", "recv"}
        assert all(e.meta["config_hash"] == "c1" for e in hellos)
        assert all(e.meta["schema_hash"] == "s1" for e in hellos)

    def test_config_mismatch_is_fatal_before_any_activation(self):
        a, b = inproc_pair()
        errors = []

        def passive():
            try:
                handshake(b, role="passive", schema_hash="s1", config_hash="c2")
            except HandshakeError as exc:
                errors.append(exc)

        t = threading.Thread(target=passive)
        t.start()
        with pytest.raises(HandshakeError, match="c1.*c2|c2.*c1"):
            handshake(a, role="active", schema_hash="s1", config_hash="c1")
        t.join()
        assert errors  # both ends refuse
        assert a.counters.sent.get("ACTIVATION", 0) == 0
        assert b.counters.sent.get("ACTIVATION", 0) == 0


class TestTcpChannel:
    def test_loopback_echo_and_transcript_parity_with_inproc(self):
        server = tcp_listen("127.0.0.1", 0)
        port = server.getsockname()[1]
        side = {}

        def passive():
            chan = tcp_accept(server)
            side["chan"] = chan
            for _ in range(3):
                msg = chan.recv()
                chan.send_new(MsgType.GRADIENT, payload=msg.payload * 2)
            chan.recv()  # bye

        t = threading.Thread(target=passive)
        t.start()
        active = tcp_connect("127.0.0.1", port)
        rng = np.random.default_rng(1)
        payloads = [rng.normal(size=(4, 3)).astype(F32) for _ in range(3)]
        for p in payloads:
            active.send_new(MsgType.ACTIVATION, payload=p)
            got = active.recv()
            np.testing.assert_array_equal(got.payload, p * 2)
        active.send_new(MsgType.BYE)
        t.join()
        server.close()

        # replay the same conversation in-process; transcripts must agree
        a, b = inproc_pair()
        for p in payloads:
            a.send_new(MsgType.ACTIVATION, payload=p)
            msg = b.recv()
            b.send_new(MsgType.GRADIENT, payload=msg.payload * 2)
            a.recv()
        a.send_new(MsgType.BYE)
        b.recv()

        tcp_transcript = [(e.direction, e.msg_type, e.round, e.rows, e.cols, e.digest)
                          for e in active.transcript]
        inproc_transcript = [(e.direction, e.msg_type, e.round, e.rows, e.cols, e.digest)
                             for e in a.transcript]
        assert tcp_transcript == inproc_transcript
        active.close()
        side["chan"].close()

    def test_recv_timeout_aborts_step(self):
        server = tcp_listen("127.0.0.1", 0)
        port = server.getsockname()[1]
        accepted = {}

        def passive():
            accepted["chan"] = tcp_accept(server)

        t = threading.Thread(target=passive)
        t.start()
        active = tcp_connect("127.0.0.1", port)
        t.join()
        with pytest.raises(TransportTimeout):
            active.recv(timeout=0.1)
        active.close()
        accepted["chan"].close()
        server.close()
