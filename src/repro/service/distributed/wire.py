"""Versioned, pickle-free wire format for cross-process solve traffic.

Every payload is one *frame*::

    b"QRWF" | format_version (u8) | header_length (u32 LE) | header JSON | buffers

The JSON header carries all scalar fields plus a manifest of the numpy
buffers that follow (dtype string and shape); the buffers themselves are the
raw little-endian bytes, concatenated in manifest order.  Nothing is pickled:
a frame produced by one Python/numpy version decodes under any other, and a
hostile payload can at worst fail validation — it cannot execute code.

What travels on the wire is decided by the objects themselves
(:meth:`QUBOModel.to_wire` / :meth:`SampleSet.to_wire` — the serialization
hooks in :mod:`repro.qubo`); this module owns the framing, the engine-call
payloads and the control-plane frames of a worker connection.  Sparse models
ship their CSR triplet and are rebuilt as CSR — crossing a process boundary
never densifies a model.  Solvers travel as registry spec strings and are
re-resolved inside the receiving process.
"""

from __future__ import annotations

import json
import math
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet

MAGIC = b"QRWF"
FORMAT_VERSION = 1

#: Version of the *conversation* protocol spoken over a transport (hello /
#: stats / engine-call exchange), negotiated per connection via the hello
#: frames below.  Distinct from :data:`FORMAT_VERSION`, which versions the
#: byte layout of a single frame.
#:
#: Version history:
#:   1 — initial remote-farm protocol; no longer spoken.
#:   2 — engine-call frames may carry an optional ``trace`` header field
#:       (propagated telemetry context).  Stats-acks no longer carry the
#:       optional ``metrics`` snapshot they once did; the version stayed 2
#:       because no peer required the field.
PROTOCOL_VERSION = 2
#: Protocol versions this build can speak (negotiation picks the highest
#: version both peers support).
SUPPORTED_PROTOCOL_VERSIONS = (PROTOCOL_VERSION,)

#: Models a worker memoises for by-reference engine calls (an LRU keyed by
#: fingerprint).  Clients mirror the bound per worker, so a working set larger
#: than the memo ships full payloads instead of paying a guaranteed
#: ``model_miss`` round trip on every call.
MODEL_MEMO_LIMIT = 8

_PREFIX = struct.Struct("<4sBI")  # magic, format version, header length


class WireFormatError(ValueError):
    """A payload is not a valid frame of the supported format version."""


# --------------------------------------------------------------------- helpers
def _jsonify(value):
    """Coerce numpy scalars/arrays inside free-form metadata to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Free-form info values that are none of the above (e.g. a Path) degrade
    # to their string form rather than failing the whole frame.
    return str(value)


def _wire_buffer(buffer: np.ndarray) -> np.ndarray:
    """Contiguous little-endian view/copy of a buffer, ready to ship."""
    arr = np.ascontiguousarray(buffer)
    if arr.shape != np.shape(buffer):
        # np.ascontiguousarray promotes 0-d arrays to shape (1,); undo it so
        # the manifest records the true shape and round-trips are exact.
        arr = arr.reshape(np.shape(buffer))
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


# --------------------------------------------------------------------- framing
def encode_frame(kind: str, header: dict, buffers: Sequence[np.ndarray] = ()) -> bytes:
    """Assemble one frame from a header dict and its numpy buffers."""
    shipped = [_wire_buffer(buffer) for buffer in buffers]
    manifest = [{"dtype": arr.dtype.str, "shape": list(arr.shape)} for arr in shipped]
    payload = dict(header)
    payload["kind"] = kind
    payload["buffers"] = manifest
    header_bytes = json.dumps(_jsonify(payload), separators=(",", ":")).encode("utf-8")
    parts = [_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)), header_bytes]
    parts.extend(arr.tobytes() for arr in shipped)
    return b"".join(parts)


def decode_frame(
    data: bytes, expected_kind: Optional[str] = None
) -> Tuple[str, dict, List[np.ndarray]]:
    """Split a frame back into ``(kind, header, buffers)``, validating layout."""
    if len(data) < _PREFIX.size:
        raise WireFormatError(f"frame truncated: {len(data)} bytes")
    magic, version, header_length = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}; not a wire frame")
    if version != FORMAT_VERSION:
        raise WireFormatError(
            f"unsupported wire format version {version} (supported: {FORMAT_VERSION})"
        )
    offset = _PREFIX.size
    if len(data) < offset + header_length:
        raise WireFormatError("frame truncated inside the header")
    try:
        header = json.loads(data[offset : offset + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"invalid frame header: {exc}") from exc
    offset += header_length
    kind = header.pop("kind", None)
    if expected_kind is not None and kind != expected_kind:
        raise WireFormatError(f"expected a {expected_kind!r} frame, got {kind!r}")
    buffers: List[np.ndarray] = []
    view = memoryview(data)
    for entry in header.pop("buffers", []):
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(axis) for axis in entry["shape"])
        if any(axis < 0 for axis in shape):
            # A negative axis would make nbytes negative and rewind `offset`,
            # aliasing buffers over each other — never a valid frame.
            raise WireFormatError(f"invalid buffer shape {shape} in frame manifest")
        # Python ints cannot wrap, so an absurd crafted shape fails the
        # truncation check below instead of slipping past it via overflow.
        nbytes = dtype.itemsize * math.prod(shape)
        if len(data) < offset + nbytes:
            raise WireFormatError("frame truncated inside a buffer")
        buffers.append(np.frombuffer(view[offset : offset + nbytes], dtype=dtype).reshape(shape))
        offset += nbytes
    if offset != len(data):
        raise WireFormatError(f"{len(data) - offset} trailing bytes after the last buffer")
    return str(kind), header, buffers


# ----------------------------------------------------------- concrete payloads
def encode_sample_set(samples: SampleSet) -> bytes:
    """One sample set as a frame (assignments/energies/occurrences + info)."""
    header, buffers = samples.to_wire()
    return encode_frame("sample_set", header, buffers)


def encode_engine_call(
    model: QUBOModel,
    solver_spec: str,
    num_reads: int,
    seed: int,
    trace: Optional[dict] = None,
) -> bytes:
    """One engine call: the resolved model, a solver spec, reads and a seed.

    This is the unit of work a client ships to a worker.  The seed is
    always concrete by the time a call is encoded — the service derives child
    seeds for unseeded requests before dispatch, so the worker simply runs
    ``solver.sample(model, num_reads, rng=default_rng(seed))``.

    ``trace`` is the caller's telemetry context (``repro.obs.wire_context()``;
    protocol ≥ 2): an optional ``{"trace_id", "span_id"}`` dict the receiving
    worker re-activates so its spans stitch under the caller's.  ``None``
    omits the field entirely.
    """
    model_header, buffers = model.to_wire()
    header = {
        "solver_spec": str(solver_spec),
        "num_reads": int(num_reads),
        "seed": int(seed),
        "model": model_header,
    }
    if trace is not None:
        header["trace"] = dict(trace)
    return encode_frame("engine_call", header, buffers)


def encode_engine_call_ref(
    fingerprint: str,
    solver_spec: str,
    num_reads: int,
    seed: int,
    trace: Optional[dict] = None,
) -> bytes:
    """An engine call referencing a model by fingerprint instead of shipping it.

    Workers memoise the last :data:`MODEL_MEMO_LIMIT` decoded models, so a
    sweep of many calls against one model only pays the model transfer once
    per worker; a worker that does not hold the fingerprint answers with a
    ``model_miss`` frame (:func:`encode_model_miss`) and the caller retries
    with the full payload.  ``trace`` propagates the telemetry context exactly
    as in :func:`encode_engine_call`.
    """
    header = {
        "solver_spec": str(solver_spec),
        "num_reads": int(num_reads),
        "seed": int(seed),
        "model_ref": str(fingerprint),
    }
    if trace is not None:
        header["trace"] = dict(trace)
    return encode_frame("engine_call", header)


def encode_model_miss(fingerprint: str) -> bytes:
    """A worker's "I do not hold this model" answer to a by-reference call."""
    return encode_frame("model_miss", {"model_ref": str(fingerprint)})


# ------------------------------------------------------- control-plane frames
#
# Small header-only frames spoken over a long-lived transport (the remote
# solve farm's TCP connections): connection setup with protocol-version
# negotiation, runtime-stats probes, and typed error replies.  They ride
# the same frame layout as the data-plane payloads, so one decoder handles
# everything a peer can say.


def encode_hello(
    protocol_versions: Sequence[int] = SUPPORTED_PROTOCOL_VERSIONS,
    info: Optional[dict] = None,
) -> bytes:
    """A client's connection opener: the protocol versions it can speak."""
    return encode_frame(
        "hello",
        {
            "protocol_versions": [int(v) for v in protocol_versions],
            "info": dict(info or {}),
        },
    )


def encode_hello_ack(protocol_version: int, info: Optional[dict] = None) -> bytes:
    """A server's hello reply: the negotiated version plus server metadata."""
    return encode_frame(
        "hello_ack",
        {"protocol_version": int(protocol_version), "info": dict(info or {})},
    )


def negotiate_protocol(offered: Sequence[int]) -> Optional[int]:
    """The highest protocol version both peers speak, or ``None`` if disjoint."""
    common = set(int(v) for v in offered) & set(SUPPORTED_PROTOCOL_VERSIONS)
    return max(common) if common else None


def encode_stats_request(info: Optional[dict] = None) -> bytes:
    """A runtime-stats probe; the peer answers with a stats-ack."""
    return encode_frame("stats", {"info": dict(info or {})})


def encode_stats_ack(stats: Optional[dict] = None) -> bytes:
    """The stats answer: admission / served / shed counters of the worker."""
    return encode_frame("stats_ack", {"stats": dict(stats or {})})


def encode_error(code: str, message: str, retryable: bool = False) -> bytes:
    """A typed error reply (``overloaded``, ``version_mismatch``, ``solve_error``...).

    ``retryable`` tells the client whether the same request may succeed
    elsewhere or later (a shed is retryable, a version mismatch is not).
    """
    return encode_frame(
        "error",
        {"code": str(code), "message": str(message), "retryable": bool(retryable)},
    )


def decode_error(header: dict) -> Tuple[str, str, bool]:
    """Split a decoded error-frame header into ``(code, message, retryable)``."""
    return (
        str(header.get("code", "unknown")),
        str(header.get("message", "")),
        bool(header.get("retryable", False)),
    )
