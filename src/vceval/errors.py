"""Exception types shared across the package.

Everything raised on bad input derives from :class:`VCEvalError` so the CLI
can map library failures onto its exit codes in one place.
"""


class VCEvalError(Exception):
    """Base class for all errors raised by this package."""


# --- file / wire format errors -------------------------------------------

class FormatError(VCEvalError):
    """A byte stream or text file violates its format contract."""


class MalformedLine(FormatError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class OutOfRange(FormatError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ScoreOutOfRange(FormatError):
    def __init__(self, line_no: int, score: float):
        super().__init__(f"line {line_no}: score {score!r} outside [0, 1]")
        self.line_no = line_no
        self.score = score


class BadMagic(FormatError):
    pass


class TruncatedPayload(FormatError):
    pass


class ShapeOverflow(FormatError):
    pass


class UnreadableCSV(FormatError):
    """The csv module cannot split the text, e.g. a field over its size limit."""


class NonFinitePayload(FormatError):
    """A tensor payload holds a NaN or an infinity."""


class DegenerateBox(FormatError):
    """A head decodes to a detection that is not a valid box, e.g. a
    non-finite coordinate or a side that is not > 0."""


# --- geometry / tensor shape errors --------------------------------------

class ShapeMismatch(VCEvalError):
    pass


class NotMultipleOf32(VCEvalError):
    pass


class OutOfBounds(VCEvalError):
    pass


class TileLargerThanImage(VCEvalError):
    pass


class EmptyInput(VCEvalError):
    pass


# --- dataset / metric errors ----------------------------------------------

class EmptyDataset(VCEvalError):
    pass


class NoGroundTruth(VCEvalError):
    pass


class EmptyClassSet(VCEvalError):
    pass


# --- statistics errors -----------------------------------------------------

class TooFewSamples(VCEvalError):
    pass


class TooManySamples(VCEvalError):
    pass


class ZeroVariance(VCEvalError):
    pass


class ZeroWithinVariance(VCEvalError):
    pass


class AllValuesEqual(VCEvalError):
    pass


class NoCriticalValue(VCEvalError):
    """No studentized-range critical value was found: no bracket up to
    q = 1e4 holds it, or the root finder did not converge."""


# --- configuration ----------------------------------------------------------

class ConfigError(VCEvalError):
    pass
