"""Shared exception types, the desk-scale size bound and the start-state check."""
import operator


class NoPathError(Exception):
    """No admissible path exists through the trellis."""


class SizeLimitError(Exception):
    """An enumeration or dense-matrix guard was exceeded."""


# Most paths, sweep amplitudes, step-block entries or draws per row one array holds
SIZE_LIMIT = 1 << 24


class DecodeFailure(Exception):
    """Every error class in an adaptive schedule was exhausted."""


def check_state(state, num_states: int) -> int:
    """state as an int; a non-integer raises TypeError, one outside [0, num_states) ValueError."""
    state = operator.index(state)
    if not 0 <= state < num_states:
        raise ValueError("initial state out of range")
    return state
