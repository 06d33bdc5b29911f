"""Frame format, channel ordering, handshake, and TCP/in-process parity."""

import hashlib
import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.errors import (
    FedSplitError,
    HandshakeError,
    ProtocolError,
    TransportError,
    TransportTimeout,
)
from fedsplit.transport import (
    MAX_BODY,
    InProcChannel,
    MsgType,
    ProtocolMessage,
    TcpChannel,
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
        meta = {"schema_hash": "abc", "role": "active", "eq": "a=b", "empty": ""}
        raw = frame_of(MsgType.HELLO, meta=meta)
        msg = decode_frame(raw[:22], raw[22:])
        assert msg.meta == meta
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

    @pytest.mark.parametrize("msg_type", [MsgType.HELLO, MsgType.CONTROL], ids=["HELLO", "CONTROL"])
    def test_metadata_that_is_not_utf8_is_a_protocol_error(self, msg_type):
        body = b"cmd=\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(claimed_header(msg_type, 0, len(body)), body)

    @pytest.mark.parametrize("header", [b"", b"VFSD", bytes(23)], ids=["0", "4", "23"])
    def test_header_of_the_wrong_length_is_a_protocol_error(self, header):
        with pytest.raises(ProtocolError, match="frame header has"):
            decode_frame(header, b"")
        with pytest.raises(ProtocolError, match="frame header has"):
            body_length(header)

    def test_truncated_payload_rejected(self):
        payload = np.zeros((2, 2), dtype=F32)
        raw = frame_of(MsgType.ACTIVATION, payload=payload)
        with pytest.raises(ProtocolError):
            decode_frame(raw[:22], raw[22:-4])


def claimed_header(msg_type, rows, cols):
    return struct.pack("<4sBBQII", b"VFSD", 1, int(msg_type), 1, rows, cols)


class TestOversizedHeader:
    """A header may not claim a body over MAX_BODY bytes; the channel
    refuses it before reading, on either transport."""

    @pytest.mark.parametrize("msg_type, rows, cols", [
        (MsgType.ACTIVATION, 0xFFFFFFFF, 0xFFFFFFFF),
        (MsgType.GRADIENT, 2**20, 2**10),
        (MsgType.CONTROL, 0, 2**31),
    ])
    def test_body_length_refuses_the_header(self, msg_type, rows, cols):
        with pytest.raises(ProtocolError, match="byte body"):
            body_length(claimed_header(msg_type, rows, cols))

    def test_largest_allowed_body_passes(self):
        assert MAX_BODY == 2**31 - 1
        assert body_length(claimed_header(MsgType.CONTROL, 0, MAX_BODY)) == MAX_BODY

    def test_inproc_recv_refuses_it_unread(self):
        a, b = inproc_pair(timeout=30.0)
        a._write(claimed_header(MsgType.ACTIVATION, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(ProtocolError, match="byte body"):
            b.recv()

    def test_tcp_recv_refuses_it_without_waiting(self):
        server = tcp_listen("127.0.0.1", 0)
        port = server.getsockname()[1]
        accepted = {}
        t = threading.Thread(target=lambda: accepted.update(chan=tcp_accept(server)))
        t.start()
        active = tcp_connect("127.0.0.1", port, timeout=30.0)
        t.join()
        try:
            for rows, cols in [(0xFFFFFFFF, 0xFFFFFFFF), (2**20, 2**10)]:
                active._write(claimed_header(MsgType.ACTIVATION, rows, cols))
                t0 = time.perf_counter()
                with pytest.raises(ProtocolError, match="byte body"):
                    accepted["chan"].recv()
                assert time.perf_counter() - t0 < 5.0
        finally:
            active.close()
            accepted["chan"].close()
            server.close()


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

    def test_close_ends_the_stream_after_the_frames_sent_before_it(self):
        a, b = inproc_pair(timeout=30.0)
        b.send_new(MsgType.CONTROL, meta={"cmd": "x"})
        b.close()
        assert a.recv().meta == {"cmd": "x"}
        for _ in range(2):  # every later read fails too, as on a closed socket
            t0 = time.perf_counter()
            with pytest.raises(TransportError, match="peer closed connection on 'active'"):
                a.recv()
            assert time.perf_counter() - t0 < 5.0

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
        peer = handshake(a, role="active", schema_hash="s1", config_hash="c1")
        t.join()
        assert peer["schema_hash"] == "s1"
        assert results["b"]["role"] == "active"

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

    def test_transcript_digests_the_matrix_and_the_metadata_bytes(self):
        a, b = inproc_pair()
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        a.send_new(MsgType.ACTIVATION, payload=x)
        a.send_new(MsgType.CONTROL, meta={"cmd": "eval", "tag": "x=y"})
        b.recv(), b.recv()
        want = [hashlib.sha256(x.astype("<f4").tobytes()).hexdigest()[:16],
                hashlib.sha256(b"cmd=eval\ntag=x=y").hexdigest()[:16]]
        assert [e.digest for e in a.transcript] == want
        assert [e.digest for e in b.transcript] == want
        assert a.counters.bytes_sent == b.counters.bytes_received == 2 * 22 + 24 + 16

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

    def test_both_ends_wait_the_timeout_they_were_opened_with(self):
        # neither peer ever sends, so each recv ends at the channel's own
        # timeout rather than at DEFAULT_TIMEOUT
        server = tcp_listen("127.0.0.1", 0)
        port = server.getsockname()[1]
        accepted = {}
        t = threading.Thread(
            target=lambda: accepted.update(chan=tcp_accept(server, timeout=0.4)))
        t.start()
        active = tcp_connect("127.0.0.1", port, timeout=0.3)
        t.join()
        try:
            for chan, timeout in ((active, 0.3), (accepted["chan"], 0.4)):
                assert chan.timeout == timeout
                started = time.monotonic()
                with pytest.raises(TransportTimeout, match=f"after {timeout}s"):
                    chan.recv()
                assert timeout <= time.monotonic() - started < 5.0
        finally:
            active.close()
            accepted["chan"].close()
            server.close()


# arbitrary chunks, and headers with the right magic and version whose
# fields and body are arbitrary, so that decoding gets past the magic check
_chunks = st.one_of(
    st.binary(max_size=48),
    st.builds(
        lambda type_code, round_no, rows, cols, body:
            struct.pack("<4sBBQII", b"VFSD", 1, type_code, round_no, rows, cols) + body,
        st.integers(0, 7), st.integers(0, 3), st.integers(0, 3), st.integers(0, 24),
        st.binary(max_size=48),
    ),
)


@given(st.lists(_chunks, max_size=6))
@settings(max_examples=300, deadline=None)
def test_inproc_recv_on_arbitrary_bytes_decodes_or_raises_typed(chunks):
    inbox = queue.Queue()
    for chunk in chunks:
        inbox.put(chunk)
    channel = InProcChannel(outbox=queue.Queue(), inbox=inbox, name="fuzz")
    # each recv consumes at least a header, so the stream ends in a timeout
    for _ in range(len(chunks) * 4 + 1):
        try:
            channel.recv(timeout=0)
        except TransportTimeout:
            return
        except FedSplitError:
            pass
    pytest.fail("recv never reached the end of the stream")


# the same streams over a socket, and headers that claim bodies of up to
# MAX_BODY bytes which never arrive
_socket_chunks = st.one_of(
    _chunks,
    st.builds(
        lambda type_code, rows, cols:
            struct.pack("<4sBBQII", b"VFSD", 1, type_code, 1, rows, cols),
        st.integers(0, 7), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    ),
)


@given(st.lists(_socket_chunks, max_size=6))
@settings(max_examples=150, deadline=None)
def test_tcp_recv_on_arbitrary_bytes_decodes_or_raises_typed(chunks):
    ours, theirs = socket.socketpair()
    theirs.sendall(b"".join(chunks))
    theirs.close()
    channel = TcpChannel(ours, name="fuzz", timeout=5.0)
    try:
        # each recv consumes at least a header, so the stream ends in a
        # closed connection
        for _ in range(len(chunks) * 4 + 1):
            try:
                channel.recv()
            except TransportError as exc:
                assert "peer closed connection" in str(exc)
                return
            except FedSplitError:
                pass
    finally:
        channel.close()
    pytest.fail("recv never reached the end of the stream")


def test_tcp_channel_runs_over_a_unix_socketpair():
    # TCP_NODELAY, which a Unix socket refuses, is set on TCP sockets only
    ours, theirs = socket.socketpair()
    sender, receiver = TcpChannel(ours), TcpChannel(theirs)
    try:
        sender.send_new(MsgType.GRADIENT, payload=np.ones((2, 3), dtype=F32))
        msg = receiver.expect(MsgType.GRADIENT, timeout=5.0)
        np.testing.assert_array_equal(msg.payload, np.ones((2, 3), dtype=F32))
    finally:
        sender.close()
        receiver.close()


# headers of any length, and well-formed ones (right magic and version, or
# one of them off by one) whose fields are arbitrary
_headers = st.one_of(
    st.binary(max_size=30),
    st.builds(
        lambda magic, version, type_code, round_no, rows, cols:
            struct.pack("<4sBBQII", magic, version, type_code, round_no, rows, cols),
        st.sampled_from([b"VFSD", b"VFSE"]), st.sampled_from([1, 1, 2]),
        st.integers(0, 255), st.integers(0, 2**64 - 1),
        st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
        st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)),
    ),
)


@given(_headers, st.binary(max_size=64))
@settings(max_examples=300, deadline=None)
def test_decode_frame_on_arbitrary_bytes_decodes_or_raises_typed(header, body):
    try:
        msg = decode_frame(header, body)
    except FedSplitError:
        return
    assert isinstance(msg.msg_type, MsgType)
    if msg.msg_type in (MsgType.ACTIVATION, MsgType.GRADIENT, MsgType.EVAL_ACTIVATION):
        assert msg.payload.dtype == F32 and msg.payload.nbytes == len(body)
    else:
        assert msg.payload is None and isinstance(msg.meta, dict)


@pytest.mark.parametrize("body, match", [
    (b"cmd=epoch\ncmd=phase", "'cmd' twice"),
    (b"cmd=epoch\nsegment", "has no '='"),
    (b"cmd", "has no '='"),
    (b"cmd=epoch\n", "has no '='"),
], ids=["repeated-key", "line-without-eq", "only-line-without-eq", "trailing-newline"])
def test_malformed_metadata_lines_are_protocol_errors(body, match):
    with pytest.raises(ProtocolError, match=match):
        decode_frame(claimed_header(MsgType.CONTROL, 0, len(body)), body)
