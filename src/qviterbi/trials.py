"""Probabilistic decoding variant: load path probabilities straight into
amplitudes, repeat single-shot trials, and extract the mode.

The trial-count planning follows the multinomial-selection analysis: with b
and b' the top-two outcome probabilities, the chance that the empirical
mode misses the most probable outcome decays like exp(-lambda * r) in the
trial count r.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .convcode import _check_epsilon
from .qva import PathSpace, _sample, mode_of

DEFAULT_TARGET_FAILURE = math.exp(-2.0)

# Absorbs last-ulp float noise so trial counts at exact integer boundaries
# do not round up spuriously.
_CEIL_GUARD = 1e-9


def amplitude_loaded_state(ps: PathSpace, epsilon: float) -> np.ndarray:
    """Statevector with amplitude proportional to sqrt(path probability).

    For code-backed spaces the path probability is epsilon^e (1-epsilon)^(B-e)
    up to the constant uniform message prior, with e the path's bit-error
    count and B the received length in bits (see amplitude_loaded_rows).
    The argmax amplitude is the classical most-likely path.
    """
    if ps.code is not None and ps.errors is not None:
        return amplitude_loaded_rows(ps.errors, epsilon, ps.n_steps * ps.code.n)
    _check_epsilon(epsilon)
    if ps.weights is None:
        raise ValueError("path space carries neither a code nor log weights")
    return _normalised_sqrt(np.exp(-ps.weights))


def amplitude_loaded_rows(errors: np.ndarray, epsilon: float, total_bits: int) -> np.ndarray:
    """Amplitude-loaded states of code-backed spaces, one per row of errors (..., L).

    Row r carries amplitudes proportional to sqrt(epsilon^e (1-epsilon)^(B-e))
    over the bit-error counts e of row r, with B = total_bits.
    """
    _check_epsilon(epsilon)
    e = errors.astype(float)
    return _normalised_sqrt(epsilon**e * (1.0 - epsilon) ** (total_bits - e))


def _normalised_sqrt(weights: np.ndarray) -> np.ndarray:
    norm = np.sqrt(weights.sum(axis=-1, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("every path has probability zero at this epsilon")
    return np.sqrt(weights).astype(complex) / norm


def mode_failure_rate(b: float, b_prime: float, symmetric: bool = False) -> float:
    """Exponential decay rate of the mode-miss probability, lambda.

    The default denominator carries the term b'(1 + (b-b')^2); symmetric=True
    uses b'(1 + (b-b'))^2 instead, mirroring the b term.
    """
    if not 0.0 <= b_prime <= b <= 1.0:
        raise ValueError("need 0 <= b' <= b <= 1")
    gap = b - b_prime
    second = (1.0 + gap) ** 2 if symmetric else 1.0 + gap**2
    denom = 2.0 * (b * (1.0 - gap) ** 2 + b_prime * second)
    if denom <= 0.0:
        raise ValueError("degenerate distribution: zero denominator")
    return gap**2 / denom


def reduced_mode_failure_rate(e0: float, n_steps: int) -> float:
    """Error-free-codeword reduction of the rate: E0^N / (2 (6 - E0^N))."""
    if not 0.0 < e0 < 1.0:
        raise ValueError("e0 must lie in (0, 1)")
    p = e0**n_steps
    return 0.5 * p / (6.0 - p)


def required_trials(
    n_steps: int,
    e0: float = 0.8,
    target_failure: float = DEFAULT_TARGET_FAILURE,
) -> int:
    """Trials needed so the mode-miss probability drops to target_failure.

    Solves exp(-lambda r) = target with the reduced rate; for e0 = 0.8 and
    target exp(-2) this is ceil(24 * 1.25^N - 4).
    """
    return _trials_for(reduced_mode_failure_rate(e0, n_steps), target_failure)


def _trials_for(rate: float, target_failure: float) -> int:
    """Smallest trial count r >= 1 with exp(-rate * r) <= target_failure."""
    if not 0.0 < target_failure <= 1.0:
        raise ValueError("target_failure must lie in (0, 1]")
    raw = -math.log(target_failure) / rate
    return max(1, math.ceil(raw - _CEIL_GUARD * max(1.0, raw)))


@dataclass(frozen=True)
class TrialPlan:
    """A planned trial campaign for a two-outcome-dominated distribution."""

    r: int
    target_failure: float
    b: float
    b_prime: float


def plan_trials(
    b: float,
    b_prime: float,
    target_failure: float = DEFAULT_TARGET_FAILURE,
    symmetric: bool = False,
) -> TrialPlan:
    """Trial count from the general rate formula for given top-two odds."""
    rate = mode_failure_rate(b, b_prime, symmetric=symmetric)
    if rate == 0.0:
        raise ValueError("b == b': no trial count separates the outcomes")
    r = _trials_for(rate, target_failure)
    return TrialPlan(r=r, target_failure=target_failure, b=b, b_prime=b_prime)


@dataclass(frozen=True)
class TrialOutcome:
    mode_index: int
    mode_count: int
    counts: Counter


def run_trials(v: np.ndarray, r: int, seed) -> TrialOutcome:
    """Draw r single-shot measurements and extract the mode (ties go to the smallest index).

    The one-row case of qva.sample_rows, through qva._sample.
    """
    counts = _sample(v, seed, r)
    return TrialOutcome(*mode_of(counts), counts=counts)


@dataclass(frozen=True)
class CostReport:
    """Oracle-call totals for the two decoding strategies at one frame size."""

    n_steps: int
    probabilistic_calls: int
    amplified_calls: int
    ratio: float


def compare_costs(
    n_steps: int,
    fanout: int = 2,
    prob_trials: int | None = None,
    qva_iterations: int | None = None,
    e0: float = 0.8,
    target_failure: float = DEFAULT_TARGET_FAILURE,
) -> CostReport:
    """Single-iteration trials versus iterated amplification call counts.

    The probabilistic strategy spends one marking pass per trial; the
    iterated strategy spends ceil(pi/4 sqrt(F^N)) passes on O(1) trials.
    """
    if prob_trials is None:
        prob_trials = required_trials(n_steps, e0, target_failure)
    if qva_iterations is None:
        qva_iterations = math.ceil(math.pi / 4.0 * math.sqrt(float(fanout**n_steps)))
    return CostReport(
        n_steps=n_steps,
        probabilistic_calls=prob_trials,
        amplified_calls=qva_iterations,
        ratio=prob_trials / qva_iterations,
    )
