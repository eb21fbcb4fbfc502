"""Exception hierarchy shared across the ``repro`` package.

Every error carries a small *taxonomy* contract consumed by the serving
layer and the CLI:

``retryable``
    Whether the same request may succeed if simply sent again (transient
    overload, a locked store, a failing solver backend) — fatal errors
    (malformed requests, proven-impossible problems) must not be retried.
``http_status`` / ``error_code``
    How the error serializes onto the wire: the HTTP status the server
    answers with and a stable machine-readable code in the JSON body
    (see :func:`error_payload`).
``retry_after_s``
    Optional client back-off hint; the server emits it as a ``Retry-After``
    header on shed (429/503) responses.

The CLI maps the same taxonomy onto exit codes (:func:`exit_code_for`):
``2`` for fatal errors (the historical behaviour) and ``3`` for retryable
ones, so scripts can distinguish "fix your request" from "try again".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Whether retrying the identical request may succeed.
    retryable: bool = False
    #: HTTP status the serving layer answers with.
    http_status: int = 500
    #: Stable machine-readable code serialized into error payloads.
    error_code: str = "internal"
    #: Optional client back-off hint (seconds); ``None`` = no hint.
    retry_after_s: float | None = None


class RetryableError(ReproError):
    """Base class for transient failures: the same request may succeed later."""

    retryable = True
    http_status = 503
    error_code = "retryable"


class ModelError(ReproError, ValueError):
    """Raised when a MILP model is malformed (bad bounds, unknown variable, ...).

    Also a :class:`ValueError`: model-construction mistakes (mismatched block
    arrays, unknown senses) are argument errors, and callers validating
    inputs can catch them with a plain ``except ValueError``.
    """

    error_code = "model"


class SolverError(ReproError):
    """Raised when a MILP backend fails unexpectedly.

    A backend blowing up is transient from the caller's perspective (another
    backend — or the exhaustive fallback the engine degrades to — can still
    answer), so the taxonomy marks it retryable.
    """

    retryable = True
    error_code = "solver"


class InfeasibleError(SolverError):
    """Raised when a model is proven infeasible and the caller required a solution."""

    # A proven-infeasible model stays infeasible: retrying cannot help.
    retryable = False
    error_code = "infeasible"


class SchemaError(ReproError):
    """Raised on schema violations in the relational layer."""

    http_status = 400
    error_code = "schema"


class QueryError(ReproError):
    """Raised when a query references unknown attributes/relations or is malformed."""

    http_status = 400
    error_code = "query"


class RefinementError(ReproError):
    """Raised when a refinement cannot be applied to a query."""

    http_status = 400
    error_code = "refinement"


class ConstraintError(ReproError):
    """Raised when a cardinality constraint is malformed."""

    http_status = 400
    error_code = "constraint"


class DatasetError(ReproError):
    """Raised when a dataset generator receives invalid parameters."""

    http_status = 400
    error_code = "dataset"


class DeadlineExceeded(RetryableError):
    """Raised when a deadline-bounded request ends with no feasible incumbent.

    For portfolio races this is only raised on request
    (``raise_on_deadline=True`` / ``RefineRequest`` wire calls): the anytime
    contract prefers returning the best partial incumbent, and this error
    marks the case where there is none.  The admission layer raises it when a
    request's end-to-end deadline budget is exhausted before (or while)
    solving.
    """

    http_status = 504
    error_code = "deadline"


class AdmissionError(RetryableError):
    """Base class for load-shedding rejections issued before any solve runs."""

    error_code = "admission"


class QueueFullError(AdmissionError):
    """Raised when the admission queue is at capacity: shed with 429."""

    http_status = 429
    error_code = "queue_full"


class AdmissionTimeoutError(AdmissionError):
    """Raised when a queued request waited its whole budget without a slot."""

    http_status = 503
    error_code = "admission_timeout"


class DrainingError(AdmissionError):
    """Raised for new work while the server is draining for shutdown."""

    http_status = 503
    error_code = "draining"


class StoreError(ReproError):
    """Base class for failures of the sqlite backend's store."""

    error_code = "store"


class StoreLockedError(StoreError, RetryableError):
    """Raised when the sqlite store stays locked past the retry budget."""

    error_code = "store_locked"


class StoreCorruptionError(StoreError, RetryableError):
    """Raised when a corrupted sqlite store could not be rebuilt.

    Retryable: the store is a rebuildable cache, so a later request can
    recover.
    """

    error_code = "store_corruption"


class BodyTooLargeError(ReproError):
    """Raised when a request body exceeds the server's size guard."""

    http_status = 413
    error_code = "body_too_large"


class MalformedRequestError(ReproError):
    """Raised when a request body is not valid JSON (or not a JSON object)."""

    http_status = 400
    error_code = "malformed_request"


class NoRefinementError(ReproError):
    """Raised when no refinement within the requested maximum deviation exists.

    This corresponds to the "special value" the paper's Definition 2.7 returns
    when the Best Approximation Refinement problem has no feasible answer.
    """

    error_code = "no_refinement"


def error_payload(error: BaseException) -> dict:
    """The wire form of an error: what a server serializes into the body.

    Unknown (non-:class:`ReproError`) exceptions map to a fatal ``internal``
    payload so the handler never emits an untyped 500.
    """
    if isinstance(error, ReproError):
        payload: dict = {
            "error": str(error),
            "code": error.error_code,
            "retryable": error.retryable,
        }
        if error.retry_after_s is not None:
            payload["retry_after_s"] = error.retry_after_s
        return payload
    return {
        "error": f"{type(error).__name__}: {error}",
        "code": "internal",
        "retryable": False,
    }


def http_status_for(error: BaseException) -> int:
    """The HTTP status an error answers with (500 for unknown exceptions)."""
    if isinstance(error, ReproError):
        return error.http_status
    return 500


def exit_code_for(error: BaseException) -> int:
    """CLI exit code: 2 for fatal errors, 3 for retryable (transient) ones."""
    if isinstance(error, ReproError) and error.retryable:
        return 3
    return 2
