import json
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import qviterbi.qva as qva_module
from qviterbi import cli
from qviterbi.convcode import ConvCode
from qviterbi.errors import SIZE_LIMIT, DecodeFailure, SizeLimitError
from qviterbi.hmm import Hmm
from qviterbi.qva import (
    PathSpace,
    QvaParams,
    ScheduleEntry,
    _amplify,
    adaptive_decode,
    amplify_phases,
    build_path_space,
    build_path_space_hmm,
    default_schedule,
    diffuse,
    formula_iterations,
    measure,
    phase_mark,
    representative_received,
    run_qva,
    single_iteration_prob,
    sweep_omega,
    uniform_superposition,
)
from qviterbi.viterbi import path_metric_multiset, viterbi_decode


class TestPathSpace:
    def test_one_step_errors(self, code):
        ps = build_path_space(code, "00")
        assert list(ps.errors) == [0, 2]

    def test_two_steps_has_four_paths(self, code):
        ps = build_path_space(code, "1001")
        assert ps.L == 4

    def test_exponents_match_enumeration_oracle(self, code, hmm01, make_instance):
        for c in range(20):
            _msg, received, n = make_instance([61, c], n_high=7)
            ps = build_path_space(code, received)
            oracle = path_metric_multiset(hmm01, [received[2 * i : 2 * i + 2] for i in range(n)])
            assert ps.exponent_multiset() == oracle

    def test_index_is_message_read_as_integer(self, code):
        ps = build_path_space(code, "0" * 8)
        assert ps.message(8) == "1000"
        assert ps.path(8) == (0, 2, 1, 0, 0)
        assert ps.path(0) == (0, 0, 0, 0, 0)
        # a space of error counts alone has neither a code nor a level table
        bare = PathSpace(n_steps=1, errors=np.array([0, 1]), weights=None)
        for read in (bare.path, bare.message):
            with pytest.raises(ValueError, match="^this path space carries no paths$"):
                read(0)
            with pytest.raises(IndexError):
                read(2)

    def test_per_path_errors_match_walk(self, code):
        ps = build_path_space(code, "0" * 8)
        # frozen from a hand walk of the state diagram
        assert list(ps.errors[:4]) == [0, 2, 3, 3]
        assert int(ps.errors[9]) == 7

    def test_size_guard(self, code):
        ps = build_path_space(code, "00" * 25)
        with pytest.raises(SizeLimitError):
            ps.errors

    @pytest.mark.parametrize("spec, n_steps", [("1,2,2;5,7", 62), ("3,2,1;1,2,3,1,2,3", 20)])
    def test_class_count_bound(self, spec, n_steps):
        # int64 class counts hold F^N while k*N <= 62; one step more is refused at build
        code = ConvCode.from_spec(spec)
        ps = build_path_space(code, "0" * (n_steps * code.n))
        assert ps.L == int(ps.classes().counts.sum()) == 1 << (code.k * n_steps)
        with pytest.raises(SizeLimitError, match="exceeds the class count bound$"):
            build_path_space(code, "0" * ((63 // code.k) * code.n))

    def test_hmm_space_guard(self, hmm01):
        with pytest.raises(SizeLimitError):
            build_path_space_hmm(hmm01, ["00"] * 25)

    def test_wide_code_path_space(self):
        from qviterbi.convcode import ConvCode

        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        ps = build_path_space(wide, "110010")
        assert ps.L == 16
        oracle = path_metric_multiset(wide.to_hmm(0.1), ["110", "010"])
        assert ps.exponent_multiset() == oracle
        assert ps.message(0b1101) == "1101"
        decoded = viterbi_decode(wide.to_hmm(0.1), ["110", "010"])
        assert ps.message(ps.viterbi_index) == decoded.message

    def test_input_validation(self, code):
        with pytest.raises(ValueError):
            build_path_space(code, "")
        with pytest.raises(ValueError):
            build_path_space(code, "0x")
        with pytest.raises(ValueError):
            build_path_space(code, "000")  # not divisible by n

    def test_hmm_backed_space_matches_code_space(self, code, hmm01):
        received = "001101"
        blocks = [received[2 * i : 2 * i + 2] for i in range(3)]
        ps_code = build_path_space(code, received)
        ps_hmm = build_path_space_hmm(hmm01, blocks)
        assert ps_hmm.L == ps_code.L
        assert sorted(ps_hmm.errors) == sorted(ps_code.errors)
        assert ps_hmm.weights is not None
        # weights are -log of (prior * emission) accumulated along the path
        i = ps_hmm.viterbi_index
        path = ps_hmm.path(i)
        expected = -sum(
            math.log(hmm01.joint_prob(path[t], path[t + 1], blocks[t])) for t in range(3)
        )
        assert ps_hmm.weights[i] == pytest.approx(expected, abs=1e-12)


class TestOperators:
    def test_uniform_superposition_values(self, code):
        ps = build_path_space(code, "0" * 8)
        v = uniform_superposition(ps)
        assert np.allclose(v, 0.25)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_uniform_superposition_l4(self, code):
        assert np.allclose(uniform_superposition(build_path_space(code, "0000")), 0.5)

    def test_phase_mark_identity_at_zero(self, code):
        ps = build_path_space(code, "0" * 8)
        v = uniform_superposition(ps)
        marked = phase_mark(ps, v, QvaParams(omega=0.0, iterations=1))
        assert np.array_equal(marked, v)

    def test_phase_mark_half_pi(self, code):
        ps = build_path_space(code, "00")  # errors [0, 2]
        v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        marked = phase_mark(ps, v, QvaParams(omega=math.pi / 2, iterations=1))
        assert np.allclose(marked * math.sqrt(2), [1.0, -1.0], atol=1e-12)

    def test_phase_mark_preserves_norm(self, code):
        ps = build_path_space(code, "0" * 8)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        marked = phase_mark(ps, v, QvaParams(omega=0.68, iterations=1))
        assert abs(np.linalg.norm(marked) - 1.0) <= 1e-12

    def test_phase_mark_diagonal_is_exponent_permutation(self, code):
        ps = build_path_space(code, "0" * 8)
        v = np.ones(16, dtype=complex)
        marked = phase_mark(ps, v, QvaParams(omega=0.68, iterations=1))
        phases = sorted(np.angle(marked) % (2 * math.pi))
        expected = sorted((0.68 * e) % (2 * math.pi) for e in ps.errors)
        assert np.allclose(phases, expected, atol=1e-12)

    def test_diffuse_fixes_uniform_state(self):
        s = np.full(8, 1.0 / math.sqrt(8), dtype=complex)
        assert np.allclose(diffuse(s), s, atol=1e-12)

    def test_diffuse_basis_vector_row(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert np.allclose(diffuse(v), [-0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_diffuse_is_unitary_involution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            v /= np.linalg.norm(v)
            once = diffuse(v)
            assert abs(np.linalg.norm(once) - 1.0) <= 1e-12
            assert np.allclose(diffuse(once), v, atol=1e-12)

    def test_norm_preserved_through_long_sequences(self, code):
        ps = build_path_space(code, "0" * 8)
        params = QvaParams(omega=0.68, iterations=1)
        v = uniform_superposition(ps)
        for _ in range(50):
            v = diffuse(phase_mark(ps, v, params))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10


class TestRunQva:
    def test_reference_point_value(self, code):
        ps = build_path_space(code, "0" * 8)
        result = run_qva(ps, QvaParams(omega=0.68, iterations=3))
        assert result.prob_top == pytest.approx(0.673, abs=5e-3)
        assert result.top_index == 0
        # leading amplitude reproduces the reference value to two decimals
        assert result.statevector[0] == pytest.approx(-0.76 + 0.29j, abs=0.01)

    def test_three_step_reference_row(self, code):
        ps = build_path_space(code, "0" * 6)
        result = run_qva(ps, QvaParams(omega=0.84, iterations=2))
        assert result.prob_top == pytest.approx(0.73, abs=0.02)

    def test_zero_phase_unit_keeps_uniform(self, code):
        ps = build_path_space(code, "0" * 8)
        result = run_qva(ps, QvaParams(omega=0.0, iterations=5))
        assert result.prob_top == pytest.approx(1.0 / ps.L, abs=1e-12)

    def test_marking_then_superposition_is_proposition_state(self, code, make_instance):
        # after building the superposition and marking once, path amplitudes
        # are exactly exp(i omega e(path)) / sqrt(L)
        for c in range(100):
            _msg, received, _n = make_instance([71, c], n_high=7)
            ps = build_path_space(code, received)
            params = QvaParams(omega=0.47, iterations=1)
            v = phase_mark(ps, uniform_superposition(ps), params)
            expected = np.exp(1j * 0.47 * ps.errors) / math.sqrt(ps.L)
            assert np.allclose(v, expected, atol=1e-12)

    def test_label_invariance_under_permutation(self, code):
        ps = build_path_space(code, "0" * 8)
        rng = np.random.default_rng(13)
        perm = rng.permutation(ps.L)
        shuffled = PathSpace(n_steps=ps.n_steps, errors=ps.errors[perm], weights=None)
        params = QvaParams(omega=0.68, iterations=3)
        assert run_qva(shuffled, params).prob_top == pytest.approx(
            run_qva(ps, params).prob_top, abs=1e-12
        )

    def test_neglog_rejects_zero_probability_paths(self):
        # one zero emission entry gives three paths of weight inf; their
        # neglog phase exp(i omega inf) would be NaN
        trans = {(i, j, "a"): 0.5 for i in range(2) for j in range(2)}
        emit = {**{key: 1.0 for key in trans}, (0, 1, "a"): 0.0}
        ps = build_path_space_hmm(Hmm(2, ["a"], trans, emit), ["a", "a"])
        assert np.isinf(ps.weights).sum() == 3
        with pytest.raises(ValueError, match="zero-probability"):
            run_qva(ps, QvaParams(0.5, 1, "neglog"))
        with pytest.raises(ValueError, match="zero-probability"):
            sweep_omega(ps, 1, phase_mode="neglog")

    def test_viterbi_index_of_an_all_zero_probability_space_is_zero(self):
        # every path has weight inf, so the optimum rule finds no best path
        trans = {(i, j, "a"): 0.5 for i in range(2) for j in range(2)}
        ps = build_path_space_hmm(Hmm(2, ["a"], trans, {}), ["a", "a"])
        assert ps.L == 4 and np.all(ps.weights == math.inf)
        assert ps.viterbi_index == 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            QvaParams(omega=-0.1, iterations=1)
        with pytest.raises(ValueError):
            QvaParams(omega=4.0, iterations=1)
        with pytest.raises(ValueError):
            QvaParams(omega=0.5, iterations=0)
        with pytest.raises(ValueError):
            QvaParams(omega=0.5, iterations=1, phase_mode="nope")


class TestSingleIteration:
    def test_matches_pipeline_on_random_phases(self):
        rng = np.random.default_rng(17)
        for length in (4, 8, 16, 32):
            for _ in range(25):
                g = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, length))
                v = amplify_phases(g, 1)
                for target in (0, length // 2):
                    assert single_iteration_prob(g, target) == pytest.approx(
                        abs(v[target]) ** 2, abs=1e-12
                    )

    def test_grover_special_case(self):
        g = np.ones(16, dtype=complex)
        g[0] = -1.0
        assert single_iteration_prob(g, 0) == pytest.approx(1936 / 4096, abs=1e-15)
        # closed form sin^2(3 theta) with theta = arcsin(1/4)
        theta = math.asin(0.25)
        assert single_iteration_prob(g, 0) == pytest.approx(math.sin(3 * theta) ** 2, abs=1e-12)

    def test_all_ones_is_uniform(self):
        g = np.ones(4, dtype=complex)
        assert single_iteration_prob(g, 0) == pytest.approx(0.25, abs=1e-15)

    def test_optimal_when_marked_phase_opposes_rest(self):
        # with g_0 = 1 fixed and the others at a common phase alpha, the
        # target probability peaks when alpha = pi (the standard marking)
        length = 16
        alphas = np.linspace(0.0, 2.0 * math.pi, 721)
        probs = []
        for alpha in alphas:
            g = np.full(length, np.exp(1j * alpha), dtype=complex)
            g[0] = 1.0
            probs.append(single_iteration_prob(g, 0))
        assert alphas[int(np.argmax(probs))] == pytest.approx(math.pi, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            single_iteration_prob(np.array([1.0 + 0j]), 0)
        with pytest.raises(ValueError):
            single_iteration_prob(np.array([0.5 + 0j, 1.0 + 0j]), 0)
        with pytest.raises(ValueError):
            single_iteration_prob(np.ones(4, dtype=complex), 7)

    def test_single_iteration_stays_order_one_times_random_guess(self, code):
        # one round at the tabulated phase units is only a constant factor
        # better than guessing among the 2^N paths
        reference = {3: 0.84, 4: 0.68, 5: 0.61, 6: 0.51, 7: 0.44, 8: 0.39, 9: 0.35, 10: 0.31}
        for n, omega in reference.items():
            ps = build_path_space(code, "0" * (2 * n))
            g = np.exp(1j * omega * ps.errors)
            ratio = single_iteration_prob(g, ps.viterbi_index) * ps.L
            assert ratio <= 9.0


def neglog_space():
    """A random two-state HMM's space over five emissions: one float class per path."""
    rng = np.random.default_rng(3)
    keys = [(i, j, y) for i in range(2) for j in range(2) for y in "ab"]
    trans = dict(zip(keys, rng.uniform(0.1, 1.0, len(keys)).tolist()))
    emit = dict(zip(keys, rng.uniform(0.1, 1.0, len(keys)).tolist()))
    return build_path_space_hmm(Hmm(2, "ab", trans, emit), list("abbab"))


# (path space, phase mode) builders for the shared-phase tests
SPACES = {
    "all-zero": lambda code: (build_path_space(code, "0" * 16), "errors"),
    # the all-zero word's classes in another order, and a word with classes of its own
    "erred-tail": lambda code: (build_path_space(code, "0" * 14 + "11"), "errors"),
    "erred-middle": lambda code: (build_path_space(code, "0" * 8 + "01" + "0" * 6), "errors"),
    "neglog": lambda code: (neglog_space(), "neglog"),
}


def direct_sweep(*args, **kwargs):
    """sweep_omega with its grid phases formed in one np.exp over the whole grid, no store."""
    def direct(step, x):
        omegas = np.arange(step, math.pi, step)
        return omegas, np.exp(1j * omegas[:, None] * x[None, :])

    with mock.patch.object(qva_module, "_grid_phases", direct):
        return sweep_omega(*args, **kwargs)


@pytest.fixture
def empty_store(monkeypatch):
    """An empty store of sweep grid phases for the test, the module's own put back after."""
    monkeypatch.setattr(qva_module, "_phases", {})


class TestSweep:
    def test_four_step_sweep_finds_reference_point(self, code):
        ps = build_path_space(code, "0" * 8)
        sweep = sweep_omega(ps, iterations=3)
        assert sweep.omega_star == pytest.approx(0.68, abs=0.02)
        assert sweep.prob_star >= 0.67
        assert len(sweep.omegas) == len(sweep.probs) == len(sweep.top_indices)
        assert sweep.probs.max() <= sweep.prob_star + 1e-12

    def test_grid_validation(self, code):
        ps = build_path_space(code, "0000")
        with pytest.raises(ValueError):
            sweep_omega(ps, iterations=1, grid=0.0)
        with pytest.raises(ValueError):
            sweep_omega(ps, iterations=0)

    @pytest.mark.parametrize("grid", [1e-320, 1e-300, math.pi / (SIZE_LIMIT + 2)])
    def test_grid_over_the_size_bound_is_refused(self, code, grid):
        # pi / 1e-320 is inf, and int() of it raised OverflowError before any guard
        ps = build_path_space(code, "0" * 6)
        with pytest.raises(SizeLimitError, match=r"^the grid of step \S+ exceeds the size guard$"):
            sweep_omega(ps, 3, grid=grid)

    def test_curve_matches_scalar_runs(self, code):
        ps = build_path_space(code, "0" * 6)
        sweep = sweep_omega(ps, iterations=2, grid=0.05)
        for idx in (0, 10, 30):
            w = float(sweep.omegas[idx])
            run = run_qva(ps, QvaParams(omega=w, iterations=2))
            assert sweep.probs[idx] == pytest.approx(run.prob_top, abs=1e-12)

    def test_swept_phase_unit_decreases_with_frame_length(self, code):
        # more paths pack the marking phases tighter, so the best phase unit
        # shrinks as frames lengthen
        table_iterations = {3: 2, 4: 3, 5: 5, 6: 7, 7: 9, 8: 13, 9: 19, 10: 25}
        stars = []
        for n, iterations in table_iterations.items():
            ps = build_path_space(code, "0" * (2 * n))
            stars.append(sweep_omega(ps, iterations).omega_star)
        assert all(b < a for a, b in zip(stars, stars[1:]))

    @pytest.mark.parametrize("n_steps", [14, 16])
    def test_sweep_finds_the_peak_a_fine_scan_finds(self, code, n_steps):
        # the peak narrows like 1/iterations; at N = 16 a fixed 0.005 grid
        # stepped over it and settled on a side lobe (prob 0.179 at 2.161)
        ps = build_path_space(code, "0" * (2 * n_steps))
        iterations = formula_iterations(code, n_steps)
        view = ps.classes()
        # a 5e-5 scan of (0, pi) puts the maximum within 1e-3 of pi / N here
        omegas = np.arange(math.pi / n_steps - 0.015, math.pi / n_steps + 0.015, 1e-5)
        amps = _amplify(np.exp(1j * omegas[:, None] * view.values), iterations, view.counts)
        target = ps.per_path(np.arange(len(view.first)))[ps.viterbi_index]
        oracle = float(np.max(np.abs(amps[:, target]) ** 2))
        assert abs(sweep_omega(ps, iterations).prob_star - oracle) <= 1e-3

    @staticmethod
    def assert_same_sweep(got, want):
        for name in want._fields:
            a, b = getattr(got, name), getattr(want, name)
            if name == "view":
                assert a is b, name
            else:
                a, b = np.asarray(a), np.asarray(b)
                assert np.array_equal(a, b) and a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize(
        "first, then, grid, continued",
        [
            (7, 7, 0.005, True),  # equal counts
            (18, 19, 0.005, True),  # N = 9: formula count, then the paper's
            (3, 2, 0.005, False),  # a smaller count sweeps afresh
            (50, 60, 0.005, False),  # past 54 iterations the grid step shrinks
            (2, 5, 0.05, True),
        ],
    )
    def test_resumed_sweep_equals_fresh_sweep(self, code, first, then, grid, continued):
        ps = build_path_space(code, "0" * 8 + "01" + "0" * 6)
        earlier = sweep_omega(ps, first, grid)
        kept = earlier.amplitudes.copy()
        with mock.patch.object(qva_module, "_amplify", wraps=qva_module._amplify) as kernel:
            resumed = sweep_omega(ps, then, grid, resume=earlier)
        # the grid pass is the first kernel call; the golden section follows
        assert kernel.call_args_list[0].args[1] == (then - first if continued else then)
        self.assert_same_sweep(resumed, sweep_omega(ps, then, grid))
        assert np.array_equal(earlier.amplitudes, kept)
        assert resumed.iterations == then and resumed.view is ps.classes()

    def test_resumed_neglog_sweep_on_an_hmm_space(self):
        ps = neglog_space()
        assert len(ps.classes("neglog").values) > 8
        earlier = sweep_omega(ps, 3, phase_mode="neglog")
        self.assert_same_sweep(
            sweep_omega(ps, 6, phase_mode="neglog", resume=earlier),
            sweep_omega(ps, 6, phase_mode="neglog"),
        )

    @pytest.mark.parametrize("space", list(SPACES))
    def test_shared_phases_sweep_as_the_direct_grid(self, code, empty_store, space):
        ps, mode = SPACES[space](code)
        with mock.patch.object(qva_module, "_amplify", wraps=qva_module._amplify) as kernel:
            first = sweep_omega(ps, 3, phase_mode=mode)  # computes the columns
            again = sweep_omega(ps, 3, phase_mode=mode)  # reads them from the store
            resumed = sweep_omega(ps, 6, phase_mode=mode, resume=first)
        x = ps.classes(mode).values
        direct = np.exp(1j * first.omegas[:, None] * x[None, :])
        grids = [call.args[0] for call in kernel.call_args_list if call.args[0].ndim == 2]
        assert len(grids) == 3
        assert all(g.tobytes() == direct.tobytes() for g in grids)
        self.assert_same_sweep(first, direct_sweep(ps, 3, phase_mode=mode))
        self.assert_same_sweep(again, first)
        self.assert_same_sweep(resumed, direct_sweep(ps, 6, phase_mode=mode))

    @pytest.mark.parametrize("names", [("all-zero", "erred-tail"), ("erred-tail", "all-zero"),
                                       ("all-zero", "erred-middle"), ("erred-middle", "all-zero"),
                                       ("erred-middle", "neglog"), ("neglog", "erred-middle")])
    def test_spaces_sharing_one_grid_sweep_as_the_direct_grid(self, code, empty_store, names):
        # the second space finds some of its columns stored by the first
        for name in names:
            ps, mode = SPACES[name](code)
            self.assert_same_sweep(sweep_omega(ps, 4, phase_mode=mode),
                                   direct_sweep(ps, 4, phase_mode=mode))
        assert len(qva_module._phases) == 1

    def test_table_computes_each_grid_column_once(self, empty_store, tmp_path):
        # N = 3..12 make 14 sweeps on the 0.005 grid over 20 distinct error counts
        config = tmp_path / "table.json"
        config.write_text(json.dumps({"n_range": [3, 12]}))
        with mock.patch.object(np, "exp", wraps=np.exp) as exp:
            assert cli.main(["table", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 0
        arrays = [call.args[0] for call in exp.call_args_list]
        assert sum(a.shape[1] for a in arrays if np.ndim(a) == 2) == 20
        (step, (columns, table)), = qva_module._phases.items()
        assert step == 0.005 and sorted(columns) == [0, *range(2, 21)]
        assert table.shape == (628, 20)

    def test_grid_past_the_cell_budget_sweeps_as_the_direct_grid(self, code, empty_store,
                                                                 monkeypatch):
        # room for 12 columns of the 628-point 0.005 grid: the 13 classes of N = 8
        # overflow it, and so do the 785 points x 10 classes of N = 6 on a 0.004
        # grid; both leave the store as it was, and a 0.05 grid that fits replaces it
        monkeypatch.setattr(qva_module, "PHASE_CELLS", 628 * 12)
        small, large = (build_path_space(code, "0" * (2 * n)) for n in (6, 8))
        cases = [(small, 0.005, 0.005, 10), (large, 0.005, 0.005, 10),
                 (small, 0.004, 0.005, 10), (large, 0.05, 0.05, 13)]
        for ps, grid, kept_step, kept in cases:
            self.assert_same_sweep(sweep_omega(ps, 3, grid), direct_sweep(ps, 3, grid))
            (step, (columns, table)), = qva_module._phases.items()
            assert step == kept_step and len(columns) == table.shape[1] == kept
            assert table.size <= qva_module.PHASE_CELLS

    def test_stored_phases_are_read_only(self, code, empty_store):
        sweep_omega(build_path_space(code, "0" * 8), 3)
        (_, table), = qva_module._phases.values()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_resume_from_another_space_or_phase_mode_raises(self, code, hmm01):
        word = "0" * 6
        earlier = sweep_omega(build_path_space(code, word), 2)
        with pytest.raises(ValueError, match="same path space"):
            sweep_omega(build_path_space(code, word), 3, resume=earlier)
        ps = build_path_space_hmm(hmm01, ["00"] * 3)
        with pytest.raises(ValueError, match="phase mode"):
            sweep_omega(ps, 3, phase_mode="neglog", resume=sweep_omega(ps, 2))

    def test_sweep_memory_is_per_class_not_per_path(self, code):
        # a 628 x L complex grid at N = 16 would take 0.66 GB per array
        ps = build_path_space(code, "0" * 32)
        tracemalloc.start()
        try:
            sweep_omega(ps, formula_iterations(code, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestMeasure:
    def test_point_mass(self):
        v = np.zeros(8, dtype=complex)
        v[3] = 1.0
        counts = measure(v, seed=1, shots=50)
        assert counts == Counter({3: 50})

    def test_uniform_concentration(self):
        v = np.full(4, 0.5, dtype=complex)
        counts = measure(v, seed=2, shots=100_000)
        for i in range(4):
            assert abs(counts[i] / 100_000 - 0.25) < 0.01

    def test_deterministic_per_seed(self):
        v = np.full(4, 0.5, dtype=complex)
        assert measure(v, 42, 1000) == measure(v, 42, 1000)
        assert measure(v, 42, 1000) != measure(v, 43, 1000)


class TestAdaptiveDecode:
    def test_zero_error_schedule_succeeds(self, code):
        schedule = default_schedule(code, 4, 0.1, max_errors=0, trials=7, iterations=3)
        assert len(schedule) == 1
        ok = 0
        for c in range(200):
            rng = np.random.default_rng([9, c])
            message = "".join(rng.choice(["0", "1"], 4))
            received = code.encode(message)
            try:
                result = adaptive_decode(code, received, schedule, seed=[9, c, 1])
                ok += result.message == message
            except DecodeFailure:
                pass
        assert ok / 200 >= 0.95

    def test_second_class_consulted_only_after_first_fails(self, code):
        schedule = default_schedule(code, 4, 0.1, max_errors=1, trials=15, iterations=3)
        assert [e.max_errors for e in schedule] == [0, 1]
        clean = code.encode("0110")
        res_clean = adaptive_decode(code, clean, schedule, seed=4)
        assert res_clean.accepted_class == 0
        assert len(res_clean.attempts) == 1
        # one flipped bit: the zero-budget class must reject its re-encode check
        noisy = "1" + clean[1:]
        res_noisy = adaptive_decode(code, noisy, schedule, seed=4)
        assert res_noisy.attempts[0].accepted is False
        assert res_noisy.accepted_class == 1
        assert res_noisy.message == "0110"
        assert res_noisy.metric == 1

    def test_exhaustion_raises(self, code):
        # 10000000 is not a codeword, so a zero-budget-only schedule can
        # never accept any mode
        schedule = [ScheduleEntry(omega=0.68, iterations=3, trials=7, max_errors=0)]
        with pytest.raises(DecodeFailure):
            adaptive_decode(code, "10000000", schedule, seed=0)

    def test_empty_received_rejected(self, code):
        schedule = [ScheduleEntry(omega=0.68, iterations=3, trials=7, max_errors=0)]
        with pytest.raises(ValueError):
            adaptive_decode(code, "", schedule, seed=0)
        with pytest.raises(ValueError):
            adaptive_decode(code, "00000000", [], seed=0)

    def test_decoded_message_matches_viterbi_when_clean(self, code, hmm01):
        schedule = default_schedule(code, 3, 0.1, max_errors=1, trials=21, iterations=2)
        received = code.encode("101")
        result = adaptive_decode(code, received, schedule, seed=11)
        oracle = viterbi_decode(hmm01, [received[2 * i : 2 * i + 2] for i in range(3)])
        assert result.message == oracle.message

    @pytest.mark.parametrize("spec, n_steps", [("1,2,2;5,7", 5), ("2,3,1;1,2,3,3,1,2", 3)])
    def test_result_is_the_accepted_mode_read_off_the_path_space(self, spec, n_steps):
        code = ConvCode.from_spec(spec)
        schedule = default_schedule(code, n_steps, 0.1, max_errors=2, trials=7)
        accepted = 0
        for c in range(20):
            rng = np.random.default_rng([17, c])
            sent = code.encode("".join(rng.choice(["0", "1"], n_steps * code.k)))
            received = "".join(str(int(b) ^ (rng.random() < 0.1)) for b in sent)
            try:
                result = adaptive_decode(code, received, schedule, seed=[17, c])
            except DecodeFailure:
                continue
            m = result.attempts[-1].mode_index
            ps = build_path_space(code, received)
            assert (result.message, result.path) == (ps.message(m), ps.path(m))
            assert result.attempts[-1].distance == result.metric == ps.errors[m]
            accepted += 1
        assert accepted >= 10

    def test_schedule_ordering_follows_class_probability(self, code):
        # at epsilon = 0.2 a single flip is more likely than none on 8 bits
        schedule = default_schedule(code, 4, 0.2, max_errors=2, trials=7, iterations=3)
        assert [e.max_errors for e in schedule] == [1, 2, 0]

    @pytest.mark.parametrize("bits, order", [(19, [0, 1, 2]), (39, [1, 2, 3, 0])])
    def test_schedule_puts_tied_classes_fewer_errors_first(self, bits, order):
        # at epsilon = 0.05 classes 0 and 1 of 19 bits, and 1 and 2 of 39, tie in
        # real arithmetic; their float products differ only by rounding
        one_step = ConvCode.from_spec(f"1,{bits},1;" + ",".join(["3"] * bits))
        schedule = default_schedule(one_step, 1, 0.05, max_errors=len(order) - 1)
        assert [e.max_errors for e in schedule] == order

    def test_representative_received_spreads_flips(self, code):
        rep = representative_received(code, 4, 2)
        assert rep == "10100000"
        assert representative_received(code, 4, 0) == "0" * 8

    def test_negative_error_count_rejected(self, code):
        # a negative count flips nothing and would pass for the all-zero word
        with pytest.raises(ValueError, match="^n_errors must be non-negative$"):
            representative_received(code, 4, -1)

    def test_negative_schedule_budget_rejected(self, code):
        # a negative budget leaves an empty schedule, refused only when a decode runs it
        with pytest.raises(ValueError, match="^max_errors must be non-negative$"):
            default_schedule(code, 4, 0.1, max_errors=-1)


class TestFormulaIterations:
    def test_reference_counts(self, code):
        got = {n: formula_iterations(code, n) for n in range(3, 11)}
        assert got == {3: 3, 4: 4, 5: 5, 6: 7, 7: 9, 8: 13, 9: 18, 10: 26}

    def test_counts_past_the_path_guard(self, code):
        # a closed form: no path count bounds it, only float range
        assert formula_iterations(code, 30) == 25736
        assert formula_iterations(code, 40) == 823550
