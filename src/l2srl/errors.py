"""Exception types shared across the toolkit."""


class IllFormedTagSequence(ValueError):
    """A position-tag sequence violates the S/B/I/E grammar or the rel rules."""


class InvalidFrame(ValueError):
    """A frame cannot be encoded: bad bounds, overlapping spans, or a covered predicate."""


class ParseError(ValueError):
    """A corpus, alignment, config, or model file is malformed.

    ``line`` carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PairingError(ValueError):
    """L2 and L1 corpora could not be fully paired.

    The error is recoverable: ``pairs`` holds the successfully matched
    subset and ``problems`` lists one message per unmatched or invalid
    item, so callers may report and proceed with what matched.
    """

    def __init__(self, problems, pairs=()):
        self.problems = list(problems)
        self.pairs = list(pairs)
        super().__init__(
            "pairing failed: " + "; ".join(self.problems)
        )


class InsufficientData(ValueError):
    """A dataset split asked for more pairs than a language provides."""

    def __init__(self, lang: str, wanted: int, available: int):
        self.lang = lang
        super().__init__(
            f"language {lang}: need {wanted} dev pairs but only {available} available"
        )


class MismatchedCorpora(ValueError):
    """Two corpora being compared do not cover the same sentences."""


class MissingMetadata(ValueError):
    """Grouped scoring needs lang/side metadata that a sentence lacks."""


class EmptyCorpus(ValueError):
    """Training was asked to run on a corpus with no training sequences."""


class InvalidPredicateIndex(ValueError):
    """A predicate index passed to the tagger is out of range or duplicated."""


class NoValidPath(ValueError):
    """No grammar-valid tag sequence has a finite score under the model."""


class VersionMismatch(ValueError):
    """A model file declares a version this code does not understand."""
