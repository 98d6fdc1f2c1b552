"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to distinguish the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class GeometryError(ReproError):
    """Invalid geometric construction or operation.

    Raised, for example, when a :class:`~repro.geometry.Box` is built from
    intervals of inconsistent dimensionality, or when an operation mixes
    boxes of different dimensionality.
    """


class DimensionalityError(GeometryError):
    """Two geometric operands do not share the same dimensionality."""


class MotionError(ReproError):
    """Invalid motion description (e.g. non-positive validity interval)."""


class StorageError(ReproError):
    """Failure in the simulated paged-storage layer."""


class PageOverflowError(StorageError):
    """A node serialization would not fit in a single disk page."""


class PageNotFoundError(StorageError):
    """A page id was requested that the disk manager does not hold."""


class TransientIOError(StorageError):
    """A physical page access failed transiently (injected or simulated).

    Retrying the same access may succeed; the disk layer's
    :class:`~repro.storage.faults.RetryPolicy` governs how often.
    """


class CorruptPageError(StorageError):
    """A page's stored content failed validation (torn write, bit rot).

    Unlike :class:`TransientIOError` this is *persistent*: the bytes on
    the page are wrong and re-reading cannot help.  Detected either by
    the checksummed page framing
    (:class:`~repro.index.codec.ChecksummedCodec`) or directly by the
    fault injector in object-storage mode.
    """


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class IndexStructureError(ReproError):
    """Structural failure inside the R-tree (corruption, bad arguments).

    Formerly exported as ``IndexError_`` (trailing underscore to avoid
    shadowing the built-in :class:`IndexError`); that alias finished its
    deprecation cycle and was removed (``tests/test_errors.py`` pins
    that it stays gone).
    """


class QueryError(ReproError):
    """A query was malformed or used against the wrong index flavour."""


class TrajectoryError(QueryError):
    """A predictive trajectory is malformed (unordered or < 2 snapshots)."""


class SessionError(ReproError):
    """Invalid use of the mode hand-off session driver."""


class WorkloadError(ReproError):
    """Invalid workload-generation parameters."""


class ServerError(ReproError):
    """Invalid use of the multi-client serving layer (:mod:`repro.server`)."""


class AdmissionError(ServerError):
    """The broker refused a client registration (admission control).

    Raised when the configured client capacity is exhausted or a client
    id is already registered; callers should back off or evict an
    existing session rather than retry immediately.
    """


class RemoteError(ServerError):
    """Failure in the out-of-process serving layer (:mod:`repro.server.remote`)."""


class RemoteProtocolError(RemoteError):
    """A wire frame was malformed (bad magic, version, CRC, or body).

    Raised by the frame codec on either side of the pipe; a front-end
    treats it like a worker crash (the stream position is unrecoverable)
    and respawns the worker.
    """


class RemoteWorkerError(RemoteError):
    """A shard worker failed: died, timed out, or replied with an error."""


class AnalysisError(ReproError):
    """Failure raised by the :mod:`repro.analysis` tooling."""


class LintConfigError(AnalysisError):
    """The lint engine was invoked with unusable inputs.

    Raised for non-existent lint paths and unreadable/malformed baseline
    files — usage errors, reported as exit code 2 by ``repro-dq lint``,
    distinct from exit code 1 for actual violations.
    """


class SanitizerError(AnalysisError):
    """A runtime sanitizer observed a broken invariant.

    Only raised while a :class:`~repro.analysis.sanitizers.SanitizerSuite`
    is enabled; nothing in the library catches it, so in a sanitized test
    run it propagates to the test harness and pinpoints the first
    offending call.
    """
