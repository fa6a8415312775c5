"""Exception types shared across the package."""


class SnippetNetError(Exception):
    """Base class for the package's own errors.

    A bad argument to a library function raises ValueError instead. The
    subclasses cover unusable corpus or configuration files, the spent
    budget, a failed backend, and a URL that cannot be parsed.
    """


class BudgetExhausted(SnippetNetError):
    """The per-day query budget is spent; only cached queries can be served."""


class BackendError(SnippetNetError):
    """A search backend failed to produce a result."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class MalformedUrl(SnippetNetError):
    """A URL could not be split into scheme, host labels, and path segments."""


class CorpusError(SnippetNetError):
    """A fixture corpus file is malformed or violates ordering rules."""


class ConfigError(SnippetNetError):
    """Run configuration is invalid or references unusable inputs."""
