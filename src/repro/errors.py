"""Exception hierarchy for the repro (UnivMon) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class IncompatibleSketchError(ReproError):
    """Two sketches cannot be combined (merge/subtract) because their
    geometry or seeds differ."""


class NotSketchableError(ReproError):
    """The requested g-function is not in Stream-PolyLog, so no
    polylogarithmic-space universal estimate exists for it."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed."""


class TopologyError(ReproError):
    """A network topology operation failed (unknown node, no path, ...)."""


class CodecError(TraceFormatError):
    """A sketch frame failed validation (bad magic, unknown type,
    checksum mismatch, oversized or malformed body).  The codec rejects
    such frames outright, so a hostile or corrupt frame can make a
    transfer fail but can never corrupt the receiver's sketch state."""


class RpcError(ReproError):
    """The poll-protocol peer reported a protocol-level failure."""


class TransportError(RpcError):
    """The poll-protocol transport failed (connect refused, reset, timeout,
    short read).  Unlike a plain :class:`RpcError` — which reports a
    *successful* exchange whose answer was an error — a transport failure
    is retriable: the request may never have reached the peer."""


class FrameError(TransportError):
    """A poll-protocol frame failed integrity checks (bad version byte,
    oversized length prefix, checksum mismatch).  After a frame error the
    stream can no longer be trusted, so clients reconnect and retry."""
