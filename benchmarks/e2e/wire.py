"""The client side of the wire: a minimal HTTP/1.1 reader, keep-alive
connections and the closed-loop caller pool.

Deliberately not ``http.client``: the generator must cost next to
nothing per request (it shares two cores with the server it measures)
and must not paper over what a plain keep-alive caller sees — no
``TCP_NODELAY`` / ``TCP_QUICKACK`` or any other socket option is set.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
from typing import (Any, Callable, Container, Dict, Iterator, List,
                    NamedTuple, Optional, Tuple)

__all__ = ["encode_request", "parse_response", "Connection",
           "one_shot", "Request", "Reply", "ClosedLoopClient"]

HOST = "127.0.0.1"


def encode_request(method: str, path: str, payload: Any = None,
                   close: bool = False) -> bytes:
    """One request, ready for ``sendall``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = [f"{method} {path} HTTP/1.1", f"Host: {HOST}"]
    if payload is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    if close:
        head.append("Connection: close")
    return "\r\n".join(head).encode("ascii") + b"\r\n\r\n" + body


def parse_response(buffer: bytes) -> Optional[Tuple[int, bytes, bytes]]:
    """``(status, body, rest)`` for the first complete response in
    ``buffer``, or None while it is still incomplete.  Understands
    exactly what ``repro serve`` sends: a status line and a
    ``Content-Length`` body."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = buffer[:end].split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    stop = end + 4 + length
    if len(buffer) < stop:
        return None
    return status, buffer[end + 4:stop], buffer[stop:]


class Connection:
    """One persistent connection; ``request`` is send-then-wait."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._socket = socket.create_connection((HOST, port),
                                                timeout=timeout)
        self._buffer = b""

    def request(self, data: bytes) -> Tuple[int, bytes]:
        self._socket.sendall(data)
        while True:
            parsed = parse_response(self._buffer)
            if parsed is not None:
                status, body, self._buffer = parsed
                return status, body
            chunk = self._socket.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection "
                                      "mid-response")
            self._buffer += chunk

    def close(self) -> None:
        self._socket.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def one_shot(port: int, method: str, path: str, payload: Any = None,
             timeout: float = 60.0) -> Tuple[int, bytes]:
    """One request on its own connection — the control plane
    (``/healthz``, ``/metrics``), kept off the measured connections."""
    with Connection(port, timeout=timeout) as connection:
        return connection.request(
            encode_request(method, path, payload, close=True))


class Request(NamedTuple):
    """One generated operation: its kind (``search`` / ``feedback``),
    the exact bytes to send, and what the checker needs later."""

    kind: str
    data: bytes
    #: the query text (search) — parity and shape checks key on it
    query: str
    #: facade checks: "tail" / "misspelled" / "phrasal" / "" (raw path)
    flavour: str = ""


class Reply(NamedTuple):
    request: Request
    status: int
    body: bytes


class ClosedLoopClient(threading.Thread):
    """One caller: sends the next request only after the previous
    reply arrived, over one persistent connection, until ``count``
    requests are done or ``should_stop()`` turns true.

    ``samples`` holds ``(kind, finished, latency)`` per completed
    request, ``errors`` the non-2xx / transport failures per kind,
    ``kept`` the replies at the positions in ``keep`` (the parity
    sample), ``gap_seconds`` the generator's own time between a reply
    and the next send.
    """

    def __init__(self, port: int, stream: Iterator[Request],
                 count: Optional[int] = None,
                 should_stop: Callable[[], bool] = lambda: False,
                 keep: Container[int] = frozenset()) -> None:
        super().__init__(daemon=True)
        self._port = port
        self._stream = stream
        self._count = count
        self._should_stop = should_stop
        self._keep = keep
        self.samples: List[Tuple[str, float, float]] = []
        self.attempted: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.error_detail: Optional[str] = None
        self.kept: List[Reply] = []
        self.gap_seconds = 0.0

    def _fail(self, kind: str, detail: str) -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1
        if self.error_detail is None:
            self.error_detail = detail

    def run(self) -> None:
        connection: Optional[Connection] = None
        position = 0
        finished = None
        try:
            while ((self._count is None or position < self._count)
                   and not self._should_stop()):
                request = next(self._stream)
                kind = request.kind
                self.attempted[kind] = self.attempted.get(kind, 0) + 1
                try:
                    if connection is None:
                        connection = Connection(self._port)
                    started = time.perf_counter()
                    if finished is not None:
                        self.gap_seconds += started - finished
                    status, body = connection.request(request.data)
                    finished = time.perf_counter()
                except (OSError, ValueError) as error:
                    self._fail(kind, f"{type(error).__name__}: {error}")
                    if connection is not None:
                        connection.close()
                    connection, finished = None, None
                    position += 1
                    continue
                if 200 <= status < 300:
                    self.samples.append((kind, finished,
                                         finished - started))
                else:
                    self._fail(kind, f"HTTP {status}: {body[:200]!r}")
                if position in self._keep:
                    self.kept.append(Reply(request, status, body))
                position += 1
        finally:
            if connection is not None:
                connection.close()


def send_frames(port: int, frames: bytes) -> None:
    """Send length-prefixed requests strictly one at a time, each on
    its own connection — the traced replay's client."""
    offset = 0
    while offset < len(frames):
        (length,) = struct.unpack_from(">I", frames, offset)
        offset += 4
        with Connection(port) as connection:
            connection.request(frames[offset:offset + length])
        offset += length


if __name__ == "__main__":
    with open(sys.argv[2], "rb") as handle:
        send_frames(int(sys.argv[1]), handle.read())
