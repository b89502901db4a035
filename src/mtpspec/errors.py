"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class NumericError(ValueError):
    """A computation received or produced non-finite values."""


class CapacityError(RuntimeError):
    """A KV cache or sequence buffer would exceed its fixed capacity."""


class StateError(RuntimeError):
    """An operation was applied to session state it was not derived from."""


class ConsistencyError(RuntimeError):
    """Derived data (e.g. a compressed head view) no longer matches its source."""


class DeterminismError(RuntimeError):
    """Repeated evaluation of a supposedly pure function gave different results."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


class EmptyCorpusError(ValueError):
    """A corpus-level statistic was requested over an empty corpus."""
