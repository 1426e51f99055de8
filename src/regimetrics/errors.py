"""Exception types shared across the package."""

from pathlib import Path


class RegimetricsError(Exception):
    """Base class for all errors raised by regimetrics."""


class ParseError(RegimetricsError):
    """A file does not match its documented format.

    Carries the source name and 1-based line number of the offending
    record when they are known.
    """

    def __init__(self, message: str, *, source=None, line: int | None = None):
        self.source = str(source) if source is not None else None
        self.line = line
        prefix = ""
        if self.source is not None:
            prefix = self.source
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


def not_utf8(path) -> ParseError:
    """The ParseError for a file that is not UTF-8 text, at its first bad byte's line.

    Lines end where the table reader ends them: at ``\\n``, ``\\r\\n`` and
    every lone ``\\r``.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ends = [data.count(end, 0, exc.start) for end in (b"\n", b"\r", b"\r\n")]
        # Each \r\n was counted once as \n and once as \r.
        return ParseError(message, source=path, line=ends[0] + ends[1] - ends[2] + 1)
    return ParseError("not UTF-8 text", source=path)


class ValidationError(RegimetricsError):
    """Structured data violates one of its invariants."""


class BudgetError(ValidationError):
    """Active competency costs exceed the available budget.

    ``source`` says where the budget was stated (``path:line``), when known.
    """

    def __init__(self, total_cost: float, budget: float, source: str | None = None):
        self.total_cost = float(total_cost)
        self.budget = float(budget)
        self.source = source
        prefix = f"{source}: " if source is not None else ""
        super().__init__(
            f"{prefix}competency costs {self.total_cost:g} exceed budget {self.budget:g}"
        )


class InvalidWindowError(RegimetricsError):
    """Window length is too short for the sample-covariance divisor."""


class InsufficientHistoryError(RegimetricsError):
    """Not enough preceding periods to fill a window."""
