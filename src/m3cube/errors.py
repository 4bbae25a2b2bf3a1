"""Exception types shared across the package.

Every malformed or out-of-contract input raises ``InputError`` (the CLI
maps it to exit code 2); its message says which rule the input broke.
``ParseError`` adds the line and column of text input, and
``BudgetExceededError`` the budget a dual complex, a ``homology`` report or
a ``.ws`` file's chamber count passed. Negative mathematical verdicts are
never raised; they are ordinary return values.
"""

from __future__ import annotations


class M3CubeError(Exception):
    """Base class for all package errors."""


class InputError(M3CubeError):
    """Malformed or out-of-contract input."""


class BudgetExceededError(M3CubeError):
    """A dual complex passed its budget of orientations or cubes, a block
    has more generators than ``homology`` spells, or a ``.ws`` file declares
    more chambers than the reader builds."""

    def __init__(self, budget: int, what: str = "consistent orientations"):
        super().__init__(f"more than {budget} {what}")
        self.budget = budget


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
