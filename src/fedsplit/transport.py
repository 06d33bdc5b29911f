"""Reliable ordered message channel between the two parties.

Wire format (one frame per message, all integers little-endian):

    magic    4 bytes  b"VFSD"
    version  1 byte
    msg_type 1 byte
    round    8 bytes unsigned   strictly increasing per direction
    rows     4 bytes unsigned
    cols     4 bytes unsigned
    payload  rows * cols * 4 bytes of float32 for matrix messages

Activation, Gradient and EvalActivation frames carry a float32 matrix and
nothing else. Hello/Control/Bye frames carry no matrix; their key=value
metadata travels as a UTF-8 block in the payload slot with rows = 0 and
cols = byte length (rows = cols = 0 when there is no metadata either). A
header claiming a payload over MAX_BODY bytes is refused before it is read.

One Channel class carries the frames over a connected stream socket: TCP
between two processes, or in one process the Unix socketpair of
`inproc_pair`, a bounded stream on which one thread can write only what the
kernel buffer holds before the peer reads. Both transports run the same
send, read, close and timeout code, so a training run cannot observe which
one it is on. Channels count frames and bytes per message type and keep a
transcript of frame headers plus payload digests.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import time
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import HandshakeError, ProtocolError, TransportError, TransportTimeout
from .numeric import F32

MAGIC = b"VFSD"
WIRE_VERSION = 1
DEFAULT_TIMEOUT = 30.0

_HEADER = struct.Struct("<4sBBQII")
# largest frame body a header may claim; a longer one is refused unread
MAX_BODY = 2**31 - 1
# most bytes one socket read asks for
RECV_CHUNK = 1 << 20


class MsgType(IntEnum):
    HELLO = 1
    ACTIVATION = 2
    GRADIENT = 3
    EVAL_ACTIVATION = 4
    CONTROL = 5
    BYE = 6


MATRIX_TYPES = frozenset({MsgType.ACTIVATION, MsgType.GRADIENT, MsgType.EVAL_ACTIVATION})


@dataclass
class ProtocolMessage:
    """Typed frame exchanged between the two parties."""

    msg_type: MsgType
    round: int | None = None  # assigned by the channel when sending
    payload: np.ndarray | None = None  # float32 matrix
    meta: dict = field(default_factory=dict)


def _encode_meta(meta: dict) -> bytes:
    if not meta:
        return b""
    for key, value in meta.items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise ProtocolError(f"meta key/value may not contain '=' or newline: {key!r}")
    return "\n".join(f"{k}={v}" for k, v in meta.items()).encode("utf-8")


def _decode_meta(body: bytes) -> dict:
    if not body:
        return {}
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame metadata is not UTF-8: {exc}") from None
    out = {}
    for line in text.split("\n"):
        key, eq, value = line.partition("=")
        if not eq:
            raise ProtocolError(f"frame metadata line {line!r} has no '='")
        if key in out:
            raise ProtocolError(f"frame metadata gives key {key!r} twice")
        out[key] = value
    return out


def encode_frame(msg: ProtocolMessage) -> bytes:
    """Serialize a message whose round has already been assigned."""
    if msg.round is None:
        raise ProtocolError("message round not assigned")
    if msg.msg_type in MATRIX_TYPES:
        if msg.payload is None:
            raise ProtocolError(f"{msg.msg_type.name} frame requires a matrix payload")
        if msg.meta:
            raise ProtocolError("matrix frames carry no metadata")
        payload = np.ascontiguousarray(msg.payload, dtype=F32)
        if payload.ndim != 2:
            raise ProtocolError(f"payload must be 2-D, got shape {payload.shape}")
        rows, cols = payload.shape
        body = payload.astype("<f4", copy=False).tobytes()
    else:
        if msg.payload is not None:
            raise ProtocolError(f"{msg.msg_type.name} frame carries no matrix")
        body = _encode_meta(msg.meta)
        rows, cols = 0, len(body)
    header = _HEADER.pack(MAGIC, WIRE_VERSION, int(msg.msg_type), msg.round, rows, cols)
    return header + body


def _unpack_header(header: bytes) -> tuple[MsgType, int, int, int]:
    """(type, round, rows, cols) of a header whose length, magic, wire
    version and type code are all valid; any other is a ProtocolError."""
    if len(header) != _HEADER.size:
        raise ProtocolError(f"frame header has {len(header)} bytes, not {_HEADER.size}")
    magic, version, type_code, round_no, rows, cols = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    try:
        return MsgType(type_code), round_no, rows, cols
    except ValueError:
        raise ProtocolError(f"unknown message type {type_code}") from None


def decode_frame(header: bytes, body: bytes) -> ProtocolMessage:
    msg_type, round_no, rows, cols = _unpack_header(header)
    if msg_type in MATRIX_TYPES:
        expected = rows * cols * 4
        if len(body) != expected:
            raise ProtocolError(f"payload length {len(body)} != rows*cols*4 = {expected}")
        payload = np.frombuffer(body, dtype="<f4").astype(F32).reshape(rows, cols)
        return ProtocolMessage(msg_type=msg_type, round=round_no, payload=payload)
    if rows != 0 or len(body) != cols:
        raise ProtocolError("non-matrix frame with inconsistent payload length")
    return ProtocolMessage(msg_type=msg_type, round=round_no, meta=_decode_meta(body))


def body_length(header: bytes) -> int:
    msg_type, _, rows, cols = _unpack_header(header)
    n = rows * cols * 4 if msg_type in MATRIX_TYPES else cols
    if n > MAX_BODY:
        raise ProtocolError(f"frame header claims a {n}-byte body, over {MAX_BODY}")
    return n


@dataclass
class TranscriptEntry:
    direction: str  # "send" or "recv"
    msg_type: int
    round: int
    rows: int
    cols: int
    digest: str
    meta: dict | None = None  # kept for control-plane frames (Hello et al.)


@dataclass
class ChannelCounters:
    sent: dict = field(default_factory=dict)  # MsgType name -> count
    received: dict = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_received: int = 0

    def count(self, direction: str, msg_type: MsgType, nbytes: int) -> None:
        table = self.sent if direction == "send" else self.received
        table[msg_type.name] = table.get(msg_type.name, 0) + 1
        if direction == "send":
            self.bytes_sent += nbytes
        else:
            self.bytes_received += nbytes

    def snapshot(self) -> tuple[int, int]:
        """(frames, bytes) counted so far, both directions together."""
        frames = sum(self.sent.values()) + sum(self.received.values())
        return frames, self.bytes_sent + self.bytes_received


class Channel:
    """Ordered exactly-once message channel over one connected stream socket.

    send() assigns the per-direction round number; recv() enforces that
    incoming rounds strictly increase. Every socket operation waits at most
    `timeout` seconds. close() ends the peer's stream after the frames sent
    before it.
    """

    def __init__(self, sock: socket.socket, name: str = "", timeout: float = DEFAULT_TIMEOUT):
        self.name = name
        self.timeout = timeout
        self.counters = ChannelCounters()
        self.transcript: list[TranscriptEntry] = []
        self._send_round = 0
        self._recv_round = 0
        self._sock = sock
        sock.settimeout(timeout)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, msg: ProtocolMessage) -> int:
        self._send_round += 1
        msg.round = self._send_round
        data = encode_frame(msg)
        self._record("send", msg, memoryview(data)[_HEADER.size:])
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed on '{self.name}': {exc}") from exc
        return msg.round

    def send_new(self, msg_type: MsgType, payload=None, meta=None) -> int:
        return self.send(ProtocolMessage(msg_type=msg_type, payload=payload, meta=meta or {}))

    def recv(self) -> ProtocolMessage:
        header = self._read_exact(_HEADER.size)
        n = body_length(header)
        body = self._read_exact(n) if n else b""
        msg = decode_frame(header, body)
        if msg.round <= self._recv_round:
            raise ProtocolError(
                f"out-of-order round {msg.round} (last seen {self._recv_round})"
            )
        self._recv_round = msg.round
        self._record("recv", msg, body)
        return msg

    def expect(self, msg_type: MsgType) -> ProtocolMessage:
        msg = self.recv()
        if msg.msg_type != msg_type:
            raise ProtocolError(f"expected {msg_type.name}, got {msg.msg_type.name}")
        return msg

    def _record(self, direction: str, msg: ProtocolMessage, body) -> None:
        """Log the frame with the digest of its body (the float32 matrix or
        the metadata block) and count its bytes, header included."""
        rows, cols = (0, 0) if msg.payload is None else msg.payload.shape
        self.transcript.append(
            TranscriptEntry(
                direction=direction,
                msg_type=int(msg.msg_type),
                round=msg.round,
                rows=rows,
                cols=cols,
                digest=hashlib.sha256(body).hexdigest()[:16],
                meta=dict(msg.meta) if msg.payload is None else None,
            )
        )
        self.counters.count(direction, msg.msg_type, _HEADER.size + len(body))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                # recv allocates its whole argument, and a header may claim
                # up to MAX_BODY bytes that never arrive
                chunk = self._sock.recv(min(remaining, RECV_CHUNK))
            except socket.timeout:
                raise TransportTimeout(
                    f"recv timed out after {self.timeout}s on channel '{self.name}'"
                ) from None
            except OSError as exc:
                raise TransportError(f"recv failed on '{self.name}': {exc}") from exc
            if not chunk:
                raise TransportError(f"peer closed connection on '{self.name}'")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


def inproc_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[Channel, Channel]:
    """A connected pair of in-process channels (active end, passive end)
    over a Unix socketpair."""
    ours, theirs = socket.socketpair()
    return (Channel(ours, name="active", timeout=timeout),
            Channel(theirs, name="passive", timeout=timeout))


def tcp_listen(host: str, port: int) -> socket.socket:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    return server


def tcp_accept(server: socket.socket, *, timeout: float = DEFAULT_TIMEOUT) -> Channel:
    server.settimeout(timeout)
    try:
        conn, _ = server.accept()
    except socket.timeout:
        raise TransportTimeout("no connection arrived before the deadline") from None
    return Channel(conn, name="passive", timeout=timeout)


def tcp_connect(host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT) -> Channel:
    last: Exception | None = None
    for _ in range(50):  # the peer may still be starting: retry for 5 s
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            return Channel(sock, name="active", timeout=timeout)
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise TransportError(f"could not connect to {host}:{port}: {last}")


def handshake(channel: Channel, *, role: str, schema_hash: str, config_hash: str) -> dict:
    """Exchange Hello frames, verify that both ends agree, and return the
    peer's Hello metadata.

    The active end sends first. Any schema or config hash difference is
    fatal and reported with both values; no training traffic may follow a
    failed handshake.
    """
    ours = {
        "wire_version": str(WIRE_VERSION),
        "schema_hash": schema_hash,
        "config_hash": config_hash,
        "role": role,
    }
    if role == "active":
        channel.send_new(MsgType.HELLO, meta=ours)
        theirs = channel.expect(MsgType.HELLO).meta
    elif role == "passive":
        theirs = channel.expect(MsgType.HELLO).meta
        channel.send_new(MsgType.HELLO, meta=ours)
    else:
        raise ValueError(f"role must be 'active' or 'passive', got '{role}'")
    for key in ("wire_version", "schema_hash", "config_hash"):
        if theirs.get(key) != ours[key]:
            raise HandshakeError(
                f"{key} mismatch: ours={ours[key]} theirs={theirs.get(key)}"
            )
    if theirs.get("role") == role:
        raise HandshakeError(f"both ends claim role '{role}'")
    return theirs
