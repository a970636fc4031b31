"""Exception types shared across the engine.

Every failure mode in the public API maps onto one of these so callers
(and the CLI error reporter) can branch on type rather than message text.
"""


class ChunkvoxError(Exception):
    """Base class for all engine errors."""


class ShapeError(ChunkvoxError, ValueError):
    """An array argument has the wrong rank, dtype, or dimensions."""


class DomainError(ChunkvoxError, ValueError):
    """A value is outside the mathematical domain of an operation."""


class ConfigError(ChunkvoxError, ValueError):
    """A configuration object or weight set is inconsistent."""


def check_shapes(found, wanted) -> None:
    """Raise :class:`ConfigError` naming every tensor of ``wanted`` (name to
    shape) that ``found`` (name to shape) lacks or holds in another shape."""
    problems = [
        f"tensor {n} has shape {tuple(found[n])}, wants {s}" if n in found else f"missing tensor {n}"
        for n, s in wanted.items()
        if n not in found or tuple(found[n]) != s
    ]
    if problems:
        raise ConfigError("; ".join(problems))


class SequencingError(ChunkvoxError, RuntimeError):
    """Streaming calls arrived out of order for a stateful object."""


class FormatError(ChunkvoxError, ValueError):
    """A serialized file does not conform to its container format."""
