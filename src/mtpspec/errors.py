"""Exception types shared across the package."""

from dataclasses import fields


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


def check_int_fields(config) -> None:
    """Raise ConfigError naming the first field of the dataclass `config` that
    is annotated `int` and holds anything else; a bool is not an integer.

    The config modules postpone annotations, so a field's type is its text.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{f.name} must be an integer, not {value!r}")


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


class WorkerError(RuntimeError):
    """A forked worker died, or raised an exception that is not an mtpspec error."""
