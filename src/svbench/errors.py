"""Shared exception types."""


class SvbenchError(Exception):
    pass


class FormatError(SvbenchError):
    """Malformed or unsupported file content."""


class ConfigError(SvbenchError):
    """Invalid or inconsistent configuration."""


class UsageError(SvbenchError):
    """Operation called with arguments that violate its contract."""


class TrainingDivergedError(SvbenchError):
    """Non-finite loss or gradient during training."""


class SamplingError(SvbenchError):
    """Corpus too small for the requested sampling scheme."""
