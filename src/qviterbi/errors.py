"""Shared exception types and the desk-scale size bound."""


class NoPathError(Exception):
    """No admissible path exists through the trellis."""


class SizeLimitError(Exception):
    """An enumeration or dense-matrix guard was exceeded."""


# Most paths, sweep amplitudes, step-block entries or draws per row one array holds
SIZE_LIMIT = 1 << 24


class DecodeFailure(Exception):
    """Every error class in an adaptive schedule was exhausted."""
