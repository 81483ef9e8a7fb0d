"""Length-prefixed TCP message framing and the typed remote-error taxonomy.

The :mod:`~repro.service.distributed.wire` format defines self-contained
*frames* (magic + version + JSON header + raw numpy buffers) but says nothing
about how frames travel.  Over a byte stream the missing piece is message
boundaries; this module supplies the simplest robust answer::

    u32 little-endian payload length | payload (one wire frame)

Every read is bounded (:data:`MAX_MESSAGE_BYTES` rejects absurd lengths
before allocating) and every failure mode maps to a *typed* exception, so the
client's retry logic can decide by type instead of string-matching:

* :class:`RemoteTransportError` — the connection failed (refused, reset, EOF
  mid-message, stale pooled socket).  Retryable on another worker or a fresh
  connection.
* :class:`RemoteProtocolError` — the peer spoke, but wrongly (bad frame,
  version mismatch, unexpected kind).  Not retryable: a protocol mismatch
  will not heal by retrying.
* :class:`RemoteWorkerError` — the worker executed the call and it raised.
  Deterministic, so not retryable.
* :class:`DeadlineExceeded` — the caller's per-request deadline expired.
* :class:`NoHealthyWorkers` — every configured worker is marked down.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional

#: Hard bound on a single message (1 GiB).  A length prefix beyond this is a
#: corrupt or hostile stream, rejected before any allocation.
MAX_MESSAGE_BYTES = 1 << 30

_LENGTH = struct.Struct("<I")


class RemoteError(RuntimeError):
    """Base class of every remote-solve-farm failure."""


class RemoteTransportError(RemoteError):
    """The TCP transport failed (connect, send, receive, or mid-message EOF).

    The request may not have reached (or left) the worker; the client retries
    these with backoff on the same or another worker.
    """


class RemoteProtocolError(RemoteError):
    """The peer violated the protocol (bad frame, version mismatch, wrong kind).

    Never retried: both ends must be upgraded/configured to agree first.
    """


class RemoteWorkerError(RemoteError):
    """The worker received the call and failed to execute it.

    The failure is deterministic (same call, same error), so it is surfaced
    instead of retried.
    """


class DeadlineExceeded(RemoteError, TimeoutError):
    """The per-request deadline expired before a worker answered."""


class NoHealthyWorkers(RemoteTransportError):
    """Every configured worker is unreachable or marked down."""


def send_message(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed message (raises on oversized payloads)."""
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ValueError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte transport bound"
        )
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_message(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed message.

    Returns ``None`` on a clean EOF at a message boundary (the peer closed an
    idle connection — normal teardown) and raises
    :class:`RemoteTransportError` for every other shortfall: EOF inside the
    length prefix or the payload (a mid-frame connection drop) and corrupt
    lengths beyond :data:`MAX_MESSAGE_BYTES`.  ``socket.timeout`` propagates
    to the caller, which owns the deadline policy.
    """
    prefix = _recv_exact(sock, _LENGTH.size, allow_clean_eof=True)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise RemoteTransportError(
            f"message length {length} exceeds the {MAX_MESSAGE_BYTES}-byte "
            f"transport bound (corrupt or hostile stream)"
        )
    payload = _recv_exact(sock, length, allow_clean_eof=False)
    assert payload is not None
    return payload


def _recv_exact(
    sock: socket.socket, count: int, allow_clean_eof: bool
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; EOF handling depends on position."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_clean_eof and remaining == count:
                return None
            raise RemoteTransportError(
                f"connection dropped mid-message ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def close_socket(sock: socket.socket) -> None:
    """Shut a connection down and close it, ignoring an already-dead peer."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
