"""Exception types shared across the package.

``InputError`` subclasses mark malformed or out-of-contract inputs (the CLI
maps them to exit code 2). Negative mathematical verdicts are never raised;
they are ordinary return values.
"""

from __future__ import annotations


class M3CubeError(Exception):
    """Base class for all package errors."""


class InputError(M3CubeError):
    """Malformed or out-of-contract input."""


class ZeroVectorError(InputError):
    """(0, 0) has no slope."""


class IndexOutOfRangeError(InputError):
    """Boundary index beyond the block's boundary count."""


class EmptyCurveSystemError(InputError):
    """A torus was audited with no curves on either side."""


class DimensionMismatchError(InputError):
    """Vectors or matrices of incompatible shapes."""


class NotModifiedError(InputError):
    """Operation requires the modified block graph (thin blocks inserted)."""


class NotATreeError(InputError):
    """Ambient graph has a cycle or is disconnected."""


class EmptyInputError(InputError):
    """An operation was called with nothing to do."""


class NotInteriorError(InputError):
    """Charge test requested for a block that is not interior."""


class NotSeifertError(InputError):
    """Seifert-only operation applied to a hyperbolic block."""


class FiberFillingError(InputError):
    """Filling slope equals the fiber slope (p = 0)."""


class NotClosedError(InputError):
    """Euler number is defined for closed Seifert data only."""


class MissingGeometryLabelError(InputError):
    """A manifold without JSJ tori needs a geometry label to classify."""


class BudgetExceededError(M3CubeError):
    """Dual complex enumeration passed the configured budget."""

    def __init__(self, budget: int):
        super().__init__(f"more than {budget} consistent orientations")
        self.budget = budget


class NoSlopesError(InputError):
    """Torus wallspace needs at least one slope."""


class ParseError(InputError):
    """Text input rejected, with position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column
