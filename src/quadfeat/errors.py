"""Exception types shared across the package."""


class QuadfeatError(Exception):
    """Base class for package-specific failures."""


class ConvergenceError(QuadfeatError):
    """An iterative solver hit its iteration budget.

    Carries the iteration count and, when available, the best iterate
    found so far (``best`` attribute).
    """

    def __init__(self, message: str, iterations: int, best=None):
        super().__init__(message)
        self.iterations = iterations
        self.best = best


class GridSizeError(QuadfeatError):
    """A requested point set or constraint system exceeds the configured cap."""

    def __init__(self, message: str, requested: int, cap: int):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class ConstructionError(QuadfeatError):
    """A rule constructor could not meet its accuracy contract.

    ``residual`` holds the achieved constraint residual so the caller can
    decide to retry with more candidate points.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EmbeddingUnsupportedError(QuadfeatError):
    """Raised when an explicit embedding is requested for a signed-weight rule."""


class CsvParseError(QuadfeatError):
    """CSV ingestion failure; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class ConfigError(QuadfeatError):
    """Invalid sweep configuration or file field; ``key`` names the offending entry."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


def config_field(raw, key: str, make, where: str):
    """``make(raw[key])``; ConfigError keyed by the field if missing or refused."""
    if not isinstance(raw, dict) or key not in raw:
        raise ConfigError(f"{where}: missing field {key!r}", key=key)
    try:
        return make(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: field {key!r}: {exc}", key=key) from None
