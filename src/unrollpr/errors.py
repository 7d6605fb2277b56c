"""Shared error types for file parsing, checkpoint handling and shapes."""


class FormatError(ValueError):
    """Malformed file content.  ``offset`` locates the problem when known
    (byte offset for binary formats, line number for text formats)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (at offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(FormatError):
    """Recognizable file, but a variant this package does not handle."""


class UnsupportedVersionError(FormatError):
    """Valid container with a version number we cannot read."""


class ShapeError(ValueError):
    """Well-formed input whose shape the model it meets cannot take."""
