import math
from collections import Counter

import numpy as np
import pytest

from qviterbi.convcode import BscChannel
from qviterbi.qva import build_path_space, build_path_space_hmm
from qviterbi.trials import (
    amplitude_loaded_state,
    compare_costs,
    mode_failure_rate,
    plan_trials,
    reduced_mode_failure_rate,
    required_trials,
    run_trials,
)
from qviterbi.viterbi import viterbi_decode


class TestAmplitudeLoading:
    def test_two_path_normalization(self, code):
        ps = build_path_space(code, "00")
        v = amplitude_loaded_state(ps, 0.1)
        # amplitudes proportional to (sqrt(0.81), sqrt(0.01))
        norm = math.hypot(math.sqrt(0.81), math.sqrt(0.01))
        assert np.allclose(np.abs(v), [0.9 / norm, 0.1 / norm], atol=1e-12)
        assert abs(v[0]) == pytest.approx(0.994, abs=1e-3)
        assert abs(v[1]) == pytest.approx(0.110, abs=1e-3)

    def test_normalized(self, code):
        ps = build_path_space(code, "01101100")
        v = amplitude_loaded_state(ps, 0.2)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_zero_epsilon_point_mass(self, code):
        ps = build_path_space(code, "0" * 8)
        v = amplitude_loaded_state(ps, 0.0)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(v[1:])) == 0.0

    def test_zero_epsilon_without_clean_path_rejected(self, code):
        ps = build_path_space(code, "10000000")  # not a codeword
        with pytest.raises(ValueError):
            amplitude_loaded_state(ps, 0.0)

    def test_argmax_is_viterbi_path(self, code, hmm01, make_instance):
        for c in range(1000):
            _msg, received, n = make_instance([81, c], n_high=8)
            ps = build_path_space(code, received)
            v = amplitude_loaded_state(ps, 0.1)
            oracle = viterbi_decode(hmm01, [received[2 * i : 2 * i + 2] for i in range(n)])
            if oracle.ties == 1:
                assert ps.message(int(np.argmax(np.abs(v) ** 2))) == oracle.message

    def test_hmm_backed_loading_matches_code_backed(self, code, hmm01):
        received = "110100"
        blocks = [received[2 * i : 2 * i + 2] for i in range(3)]
        v_code = amplitude_loaded_state(build_path_space(code, received), 0.1)
        v_hmm = amplitude_loaded_state(build_path_space_hmm(hmm01, blocks), 0.1)
        assert np.allclose(np.abs(v_code), np.abs(v_hmm), atol=1e-12)

    def test_epsilon_domain(self, code):
        ps = build_path_space(code, "00")
        with pytest.raises(ValueError):
            amplitude_loaded_state(ps, 0.5)


class TestFailureRates:
    def test_equal_top_two_gives_zero_rate(self):
        assert mode_failure_rate(0.4, 0.4) == 0.0

    def test_default_form_value(self):
        # gap 0.2: 0.04 / (2 * (0.6*0.64 + 0.4*1.04)) = 0.025
        assert mode_failure_rate(0.6, 0.4) == pytest.approx(0.025, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            mode_failure_rate(0.0, 0.0)
        with pytest.raises(ValueError):
            mode_failure_rate(0.4, 0.6)

    def test_reduced_form_single_step(self):
        # 0.5 * 0.8 / (6 - 0.8) = 1/13
        assert reduced_mode_failure_rate(0.8, 1) == pytest.approx(0.0769230769, abs=1e-9)

    def test_reduced_form_domain(self):
        with pytest.raises(ValueError):
            reduced_mode_failure_rate(1.0, 3)

    def test_rate_fit_on_two_outcome_distribution(self):
        # kappa(r) for outcomes (0.6, 0.4) via the exact binomial tail: the
        # mode misses the likelier outcome only when the rarer one wins
        def kappa(r):
            return sum(
                math.comb(r, k) * 0.4**k * 0.6 ** (r - k) for k in range(r // 2 + 1, r + 1)
            )

        rs = np.arange(100, 401, 50)
        tails = np.array([kappa(int(r)) for r in rs])
        # non-increasing in r over matching parities
        assert all(tails[i + 1] <= tails[i] for i in range(len(tails) - 1))
        slope = np.polyfit(rs, -np.log(tails), 1)[0]
        rate = mode_failure_rate(0.6, 0.4)
        assert abs(slope - rate) / rate <= 0.20
        # Monte Carlo corroboration of the exact tail at r = 100
        rng = np.random.default_rng(3)
        empirical = np.mean(rng.binomial(100, 0.4, size=200_000) > 50)
        assert empirical == pytest.approx(kappa(100), abs=0.002)


class TestRequiredTrials:
    def test_closed_form_across_frame_lengths(self):
        for n in range(1, 13):
            assert required_trials(n, 0.8, math.exp(-2)) == math.ceil(24 * 1.25**n - 4)

    def test_known_points(self):
        assert required_trials(1, 0.8, math.exp(-2)) == 26
        assert required_trials(4, 0.8, math.exp(-2)) == 55

    def test_trivial_target(self):
        assert required_trials(4, 0.8, 1.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            required_trials(4, 0.8, 0.0)
        with pytest.raises(ValueError):
            required_trials(4, 1.2, 0.5)

    def test_plan_trials(self):
        plan = plan_trials(0.6, 0.4, math.exp(-2))
        assert plan.r == 80  # ceil(2 / 0.025)
        assert plan.b == 0.6 and plan.b_prime == 0.4
        with pytest.raises(ValueError):
            plan_trials(0.5, 0.5)


class TestRunTrials:
    def test_point_mass_mode(self):
        v = np.zeros(4, dtype=complex)
        v[2] = 1.0
        outcome = run_trials(v, 9, seed=0)
        assert outcome.mode_index == 2 and outcome.mode_count == 9
        assert outcome.counts == Counter({2: 9})

    def test_deterministic_per_seed(self):
        v = np.full(4, 0.5, dtype=complex)
        a = run_trials(v, 101, seed=7)
        b = run_trials(v, 101, seed=7)
        assert (a.mode_index, a.mode_count, a.counts) == (b.mode_index, b.mode_count, b.counts)

    def test_histogram_totals(self):
        v = np.full(8, 1 / math.sqrt(8), dtype=complex)
        outcome = run_trials(v, 200, seed=5)
        assert sum(outcome.counts.values()) == 200

    def test_tie_breaks_to_smallest_outcome(self):
        # seed 3 draws two of each outcome from a uniform pair
        v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        outcome = run_trials(v, 4, seed=3)
        assert sorted(outcome.counts.values()) == [2, 2]
        assert outcome.mode_index == 0

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            run_trials(np.ones(2, dtype=complex) / math.sqrt(2), 0, seed=1)

    def test_mode_reliability_short_campaign(self, code):
        # small-scale version of the reliability experiment; the acceptance
        # suite runs the full 500-campaign variant
        r = required_trials(4, 0.8, math.exp(-2))
        failures = 0
        for c in range(100):
            rng = np.random.default_rng([91, c, 0])
            message = "".join(rng.choice(["0", "1"], 4))
            channel = BscChannel(0.1, seed=[91, c, 1])
            received, _ = channel.transmit(code.encode(message))
            ps = build_path_space(code, received)
            v = amplitude_loaded_state(ps, 0.1)
            outcome = run_trials(v, r, [91, c, 2])
            p = np.abs(v) ** 2
            if p[outcome.mode_index] < p.max() * (1 - 1e-12):
                failures += 1
        assert failures / 100 <= 0.20


class TestCompareCosts:
    def test_reference_points(self):
        report = compare_costs(10)
        assert report.probabilistic_calls == 220
        assert report.amplified_calls == 26
        assert report.ratio == pytest.approx(220 / 26)

    def test_overrides(self):
        report = compare_costs(10, prob_trials=219, qva_iterations=25)
        assert report.probabilistic_calls == 219 and report.amplified_calls == 25

    def test_amplified_strategy_cheaper_at_every_frame_length(self):
        for n in range(3, 13):
            report = compare_costs(n)
            assert report.probabilistic_calls > report.amplified_calls

    def test_cost_ratio_shrinks_with_frame_length(self):
        # the trial count grows like 1.25^N while iterations grow like
        # 2^(N/2), so the probabilistic/amplified ratio decays once the
        # ceiling noise washes out
        ratios = [compare_costs(n).ratio for n in range(3, 13)]
        assert ratios[-1] < ratios[0]
        tail = ratios[2:]
        assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))

    @pytest.mark.parametrize("n_steps", [1100, 2**40])
    def test_frames_beyond_float_range_are_refused_at_once(self, n_steps):
        # 2^1100 overflowed float(); 2^(2^40) would be a 128 GiB integer
        with pytest.raises(ValueError, match=rf"^2\^{n_steps} paths lies beyond float range$"):
            compare_costs(n_steps)

    def test_trial_count_beyond_float_range_is_refused(self):
        # 0.8^(2^40) underflows to 0, which divided by zero before
        with pytest.raises(ValueError, match="trial count lies beyond float range"):
            compare_costs(2**40, qva_iterations=5)
        assert compare_costs(1100, qva_iterations=5).probabilistic_calls > 10**100

    def test_largest_frame_in_float_range(self):
        assert compare_costs(1023).amplified_calls == math.ceil(math.pi / 4 * math.sqrt(2.0**1023))
        with pytest.raises(ValueError, match="beyond float range"):
            compare_costs(512, fanout=4)

    @pytest.mark.parametrize("n_steps, fanout", [(5, 0), (5, -2), (-3, 2), (-1, 1)])
    def test_fanout_below_one_or_negative_frame_is_refused(self, n_steps, fanout):
        # fanout 0 divided by its 0 oracle calls; N = -3 gave a fractional path count
        with pytest.raises(ValueError, match="^need a fanout of at least 1 and a non-negative n_steps$"):
            compare_costs(n_steps, fanout=fanout)
