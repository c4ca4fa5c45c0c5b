"""Shared exception types, the size bound with its guards, and the start-state check."""
import operator


class NoPathError(Exception):
    """No admissible path exists through the trellis."""


class SizeLimitError(Exception):
    """An enumeration or dense-matrix guard was exceeded."""


# Most paths, sweep amplitudes, step-block entries or draws per row one array holds
SIZE_LIMIT = 1 << 24


def check_size(count: int, what: str) -> None:
    """Refuse a count over SIZE_LIMIT with SizeLimitError("<what> exceeds the size guard")."""
    if count > SIZE_LIMIT:
        raise SizeLimitError(f"{what} exceeds the size guard")


def check_paths(fanout: int, n_steps: int) -> int:
    """fanout^n_steps, the paths of a frame; once n_steps >= SIZE_LIMIT.bit_length() and
    fanout >= 2 that is surely over SIZE_LIMIT, and SizeLimitError is raised without it."""
    if fanout >= 2 and n_steps >= SIZE_LIMIT.bit_length():
        raise SizeLimitError(f"{fanout}^{n_steps} paths exceeds the size guard")
    return fanout**n_steps


class DecodeFailure(Exception):
    """Every error class in an adaptive schedule was exhausted."""


def check_state(state, num_states: int) -> int:
    """state as an int; a non-integer raises TypeError, one outside [0, num_states) ValueError."""
    state = operator.index(state)
    if not 0 <= state < num_states:
        raise ValueError("initial state out of range")
    return state
