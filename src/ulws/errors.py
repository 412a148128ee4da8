"""Exception hierarchy shared across the pipeline.

Grouped by the stage that raises them; all inherit from UlwsError so a
driver can catch one base class per failed record.
"""


class UlwsError(Exception):
    """Base class for all errors raised by this package."""


# --- EDF parsing ---------------------------------------------------------

class EdfError(UlwsError):
    pass


class TruncatedHeader(EdfError):
    pass


class MalformedField(EdfError):
    pass


class InvariantViolation(EdfError):
    pass


class TruncatedData(EdfError):
    pass


class MalformedTal(EdfError):
    pass


class NonMonotonicOnsets(EdfError):
    pass


class MissingChannel(EdfError):
    pass


class WrongSampleRate(EdfError):
    """A wanted channel is not at the sample rate the pipeline requires."""


# --- preprocessing -------------------------------------------------------

class PreprocessError(UlwsError):
    pass


class SignalTooShort(PreprocessError):
    pass


class UnknownLabel(PreprocessError):
    pass


class AllWake(PreprocessError):
    pass


class EpochAlignmentError(PreprocessError):
    pass


class DegenerateSignal(PreprocessError):
    """A channel has zero variance over the retained epochs."""


class NonFiniteSignal(PreprocessError):
    """Epochs hold NaN or infinity."""


class InvalidDataset(PreprocessError):
    """An epoch dataset's arrays disagree in dtype, length or label range,
    or one of its names is not UTF-8 text."""


# --- binary container files (dataset cache, model checkpoint) ------------

class BadMagic(UlwsError):
    pass


class VersionMismatch(UlwsError):
    pass


class ChecksumMismatch(UlwsError):
    pass


# --- kernels / model -----------------------------------------------------

class ShapeMismatch(UlwsError):
    pass


class DegenerateBatch(UlwsError):
    pass


class BadConfig(UlwsError):
    pass


class NonFiniteOutput(UlwsError):
    """A model gave NaN or infinite class probabilities."""


# --- training ------------------------------------------------------------

class NonFiniteGradient(UlwsError):
    pass


class TooFewSubjects(UlwsError):
    pass


class WorkerDied(UlwsError):
    """A fold's worker process ended without returning the fold's outcome."""


# --- evaluation ----------------------------------------------------------

class LengthMismatch(UlwsError):
    pass


class LabelOutOfRange(UlwsError):
    pass


class EmptyMatrix(UlwsError):
    pass
