"""Exception hierarchy shared across the package.

The CLI maps each family to a distinct exit code, so new exceptions
should subclass the closest existing family rather than Exception.
"""


class TransliterationError(Exception):
    """Base class for every error raised by this package; one raised
    with a ``path`` (and a ``line``) names them first."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConfigError(TransliterationError):
    """Bad or missing configuration: unknown key, bad value, absent path."""


class DataFormatError(TransliterationError):
    """Malformed data file (inventory, mapping table, model, corpus)."""


class AlignmentError(DataFormatError):
    """Aligned source/target rows of unequal length."""


class PipelineError(TransliterationError):
    """Text could not be pushed through the conversion pipeline."""


class _GraphemeError(PipelineError):
    """A failure at one grapheme, ``offset`` code points into its line;
    each subclass holds only the template of its message.  Pickles by
    the two fields (and any attribute set since), so it reaches a parent
    process as itself."""

    _template = ""

    def __init__(self, grapheme, offset):
        self.grapheme = grapheme
        self.offset = offset
        super().__init__(self._template.format(grapheme=grapheme, offset=offset))

    def __reduce__(self):
        return type(self), (self.grapheme, self.offset), self.__dict__


class OrphanMatraError(_GraphemeError):
    """A dependent vowel sign appeared with no consonant to attach to."""

    _template = "vowel symbol {grapheme!r} at offset {offset} has no preceding consonant"


class UnmappedGraphemeError(_GraphemeError):
    """An inventory grapheme has no row in the mapping table."""

    _template = "no mapping for grapheme {grapheme!r} at offset {offset}"


class MissingModelError(_GraphemeError):
    """Ambiguous mapping encountered but no statistical model is loaded."""

    _template = (
        "grapheme {grapheme!r} at offset {offset} has multiple candidates "
        "and no model is loaded to pick one"
    )


class UndefinedAccuracyError(TransliterationError):
    """Accuracy requested over an empty total."""
