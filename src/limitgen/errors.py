"""Shared error types for the simulation framework."""


class LimitGenError(Exception):
    """Base class for framework errors."""


class UnboundedClosureDimension(LimitGenError):
    """Arbitrarily large finite-closure sets exist; no single dimension value."""


class SearchExhausted(LimitGenError):
    """A strategy found nothing to play: a base repeated past the probe cap,
    a chain link's core was finite, or the target lay beyond a union's
    parts. A precondition is violated."""


class BudgetViolation(LimitGenError):
    """A query-budgeted generator issued more queries than declared."""


class AdversaryRepeat(LimitGenError):
    """An adaptive source emitted the same element twice."""


class CertificateBroken(LimitGenError):
    """An adaptive source played a value it had certified never to play,
    or certified one inside its promised part."""


class StreamEnded(LimitGenError):
    """A source's reveals stopped before the horizon."""


class ModeMismatch(LimitGenError):
    """Generator, source, and mode are not compatible."""


class DuplicateSubRun(LimitGenError):
    """Two sub-runs of one experiment share a name, so one trace would
    overwrite the other."""
