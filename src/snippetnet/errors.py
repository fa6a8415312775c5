"""Exception types shared across the package: one per command-line exit code."""


class SnippetNetError(Exception):
    """Base class for the package's own errors.

    A bad argument to a library function, a URL included, raises ValueError
    instead. The subclasses cover the spent budget, a failed backend, and an
    unusable actors, corpus, keywords or state file.
    """


class BudgetExhausted(SnippetNetError):
    """The per-day query budget is spent; only cached queries can be served (exit 3)."""


class BackendError(SnippetNetError):
    """A search backend failed to produce a result (exit 4)."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class ConfigError(SnippetNetError):
    """Invalid run configuration, or an input or state file that its reader refuses, naming it (exit 2)."""
