"""Exception types shared across the pipeline."""


class KftserError(Exception):
    """Base class for runtime failures (I/O, corrupt files, empty datasets)."""


class DecodeError(KftserError):
    """WAV container or codec problem; message carries the byte offset."""


class FeatureFileError(KftserError):
    """A .feat file has a bad magic, a truncated header or payload, the wrong width,
    no frames, or a non-finite value."""


class CheckpointError(KftserError):
    """Model checkpoint is missing, corrupt, or from an unknown version."""


class EmptyDatasetError(KftserError):
    """A scan or split produced zero usable records."""


class FilenameParseError(ValueError):
    """A filename does not follow the expected dash-separated code layout."""


class ConfigError(ValueError):
    """A config document contains unknown keys or malformed values."""
