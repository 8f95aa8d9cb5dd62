"""Exception hierarchy shared across the package."""


class FakewakeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FakewakeError):
    """Invalid run configuration or data table (CLI exit code 2)."""


class MissingDataFile(ConfigError):
    """A data table is not in the data directory."""


# --- phonetics ---------------------------------------------------------------

class ParseFailure(FakewakeError):
    """A word's text does not parse in its language: ``LetterWord`` raises
    it, pinyin parsing its subclasses, ``read_words`` (and so
    ``parse_text``) one naming the text. No reader memoises a failure."""


class UnknownSyllable(ParseFailure):
    """Pinyin text that cannot be decomposed into initial + final + tone."""


class InvalidCombination(ParseFailure):
    """An (initial, final) pair outside the shipped validity table."""


class UnknownPhoneme(FakewakeError):
    """Phoneme symbol missing from the shipped inventory."""


class TooManyUnits(FakewakeError):
    """A word holds more phonetic units than the configured feature slots."""


# --- distance ----------------------------------------------------------------

class LengthMismatch(FakewakeError):
    """Operands must have equal length."""


class BothEmpty(FakewakeError):
    """Both phoneme sequences are empty; the distance denominator vanishes."""


# --- oracle ------------------------------------------------------------------

class OracleFailure(FakewakeError):
    """The wake oracle failed; the search attaches its live archive, every
    word answered before the failure, as ``partial_archive``."""


class ProtocolError(OracleFailure):
    """The external oracle replied with something other than '0' or '1'."""


class OracleTimeout(OracleFailure):
    """The external oracle did not reply within the configured timeout."""


# --- evolve ------------------------------------------------------------------

class BelowFuzzyThreshold(FakewakeError):
    """Wake rate below the minimum for calling a word fuzzy."""


# --- explain / mitigate -------------------------------------------------------

class EmptyClass(FakewakeError):
    """A dataset is missing one of the two label classes."""


class DegenerateData(FakewakeError):
    """Training data with a single label value."""


class ShapeMismatch(FakewakeError):
    """Feature vector length does not match the model."""


class NoPositiveContributions(FakewakeError):
    """Every feature contribution is non-positive; no decisive set exists."""


class TooFewSamples(FakewakeError):
    """Not enough samples per class for the requested fold count."""


class EmptyFuzzySet(FakewakeError):
    """Strengthening requires at least one fuzzy word."""


class EmptyTestSet(FakewakeError):
    """Evaluation requires a nonempty test set with both classes."""


class EmptyCollective(FakewakeError):
    """Fuzzy-rate computation requires a nonempty collective list."""
