"""Exception types shared across the package."""


class CtcsimError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CtcsimError):
    """Input file is malformed (bad syntax, wrong columns, bad literals)."""


class ValidationError(CtcsimError):
    """A value violates a documented invariant; message names the field."""


class MissingYear(CtcsimError):
    """A requested year is absent from the loaded data."""


class Unreachable(CtcsimError):
    """A benefit target exceeds the maximum attainable at any income."""


class OrderingViolation(CtcsimError):
    """Computed thresholds are not monotone; parameters are inconsistent."""


class GapError(ParseError):
    """A cell lacks an income bin, or the years are not contiguous."""


class NegativeCount(ValidationError):
    """A population count is negative."""


class EmptyHistogram(ValidationError):
    """A children histogram has no respondents."""


class EmptyGroup(ValidationError):
    """A (year, group) population has zero total."""


class ThresholdOutOfRange(ValidationError):
    """A classification boundary lies outside the representable range."""


class RankDeficient(CtcsimError):
    """Design matrix columns are collinear; message names the columns."""
