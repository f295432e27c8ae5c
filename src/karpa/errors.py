"""Exception types shared across the package."""

from __future__ import annotations


class KarpaError(Exception):
    """Base class for all package errors."""


class ConfigError(KarpaError):
    """Invalid or missing configuration."""


class DataError(KarpaError):
    """Problem with input data (triple files, datasets, fixtures)."""


class ParseError(DataError):
    """Malformed text that should have followed a known format.

    For a file input the message names the line.
    """


class NotFoundError(DataError):
    """Lookup of an unknown entity, relation, or file."""


class ContractError(KarpaError):
    """A call violated an interface precondition (e.g. dimension mismatch)."""


class DomainError(KarpaError):
    """Input outside the mathematical domain of an operation."""


class ProviderError(KarpaError):
    """A remote or scripted provider failed."""


class TransportError(ProviderError):
    """Retryable transport-level failure when talking to a provider.

    ``retry_after`` is the wait in seconds that the reply asked for in its
    ``Retry-After`` header, or ``None``.
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class EmbeddingDimError(ProviderError):
    """Vectors under one provider identity came in two dims.

    A fault of the whole run, not of one question: a cached vector of
    another dim fails every question that meets it, so ``evaluate`` lets
    it end the run.
    """


class EmptyCompletionError(ProviderError):
    """Provider returned no usable completion text."""


class MissingFixtureError(ProviderError):
    """A scripted provider had no entry for the requested digest."""

    def __init__(self, digest: str):
        super().__init__(f"no scripted fixture for digest {digest}")
