import itertools
import re

import numpy as np
import pytest

from qviterbi.convcode import ConvCode
from qviterbi.hmm import Hmm, dump_hmm, load_hmm
from qviterbi.viterbi import brute_force_decode, viterbi_decode


def uniform_hmm(num_states=2, emissions=("a",), emit_value=1.0):
    p = 1.0 / num_states
    trans = {(i, j, y): p for i in range(num_states) for j in range(num_states) for y in emissions}
    emit = {key: emit_value for key in trans}
    return Hmm(num_states, emissions, trans, emit)


class TestJointProb:
    def test_identity_case(self):
        h = Hmm(1, ("a",), {(0, 0, "a"): 1.0}, {(0, 0, "a"): 1.0})
        assert h.joint_prob(0, 0, "a") == 1.0

    def test_direct_product(self):
        h = Hmm(1, ("a",), {(0, 0, "a"): 0.5}, {(0, 0, "a"): 0.5})
        assert h.joint_prob(0, 0, "a") == 0.25

    def test_code_hmm_emission_and_joint(self, hmm01):
        # per-bit BSC independence: two clean bits carry (0.9)^2
        assert hmm01.emit[(0, 0, "00")] == pytest.approx(0.81, abs=1e-15)
        # uniform message prior 1/2 multiplies in
        assert hmm01.joint_prob(0, 0, "00") == pytest.approx(0.405, abs=1e-15)

    def test_absent_entry_reads_zero(self, hmm01):
        # state 00 cannot reach state 11 in one step
        assert hmm01.joint_prob(0, 3, "00") == 0.0

    def test_domain_errors(self, hmm01):
        with pytest.raises(ValueError):
            hmm01.joint_prob(0, 99, "00")
        with pytest.raises(ValueError):
            hmm01.joint_prob(-1, 0, "00")
        with pytest.raises(ValueError):
            hmm01.joint_prob(0, 0, "banana")

    def test_multiplicative_consistency_random_tables(self):
        rng = np.random.default_rng(5)
        emissions = ("x", "y")
        keys = [(i, j, y) for i in range(3) for j in range(3) for y in emissions]
        trans = {k: float(rng.uniform(0, 1)) for k in keys}
        emit = {k: float(rng.uniform(0, 1)) for k in keys}
        h = Hmm(3, emissions, trans, emit)
        for k in keys:
            assert h.joint_prob(*k) == trans[k] * emit[k]


class TestRowStochastic:
    def test_valid_model_passes(self):
        check = uniform_hmm().check_row_stochastic()
        assert check.passed and check.residual <= 1e-12

    def test_scaled_row_fails_with_residual(self):
        trans = {(0, 0, "a"): 0.25, (0, 1, "a"): 0.25, (1, 0, "a"): 0.5, (1, 1, "a"): 0.5}
        emit = {k: 1.0 for k in trans}
        check = Hmm(2, ("a",), trans, emit).check_row_stochastic()
        assert not check.passed
        assert check.residual == pytest.approx(0.5, abs=1e-15)
        assert check.worst_row == (0, "a")

    def test_code_hmm_passes_across_epsilon(self, code):
        for eps in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.499):
            assert code.to_hmm(eps).check_row_stochastic().passed


class TestFanout:
    def test_identity_chain(self):
        trans = {(i, (i + 1) % 4, "a"): 1.0 for i in range(4)}
        emit = {k: 1.0 for k in trans}
        assert Hmm(4, ("a",), trans, emit).fanout() == 1

    def test_code_hmm(self, hmm01):
        assert hmm01.fanout() == 2

    def test_complete_four_state(self):
        assert uniform_hmm(4).fanout() == 4

    def test_fanout_is_two_to_the_k(self):
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        assert wide.to_hmm(0.1).fanout() == 4 == wide.fanout


class TestConstruction:
    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            Hmm(1, ("a",), {(0, 0, "a"): 1.5}, {})
        with pytest.raises(ValueError):
            Hmm(1, ("a",), {}, {(0, 0, "a"): -0.1})

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            Hmm(1, ("a",), {(0, 1, "a"): 1.0}, {})
        with pytest.raises(ValueError):
            Hmm(1, ("a",), {(0, 0, "b"): 1.0}, {})

    @pytest.mark.parametrize(
        "trans, emit, message",
        [
            ({(0, 0, "a"): 1.0, (0, 2, "a"): 1.0, (0, 0, "b"): 1.0}, {},
             "trans key (0, 2, 'a') has out-of-range state"),
            ({(0, 0, "c"): 1.0, (0, 2, "a"): 1.0}, {}, "trans key (0, 0, 'c') has unknown emission"),
            ({(0, 0, "a"): float("nan"), (5, 0, "a"): 1.0}, {}, "trans[(0, 0, 'a')] = nan outside"),
            ({(5, 0, "a"): 1.0, (0, 0): 1.0}, {}, "trans key (5, 0, 'a') has out-of-range state"),
            ({(0, 1, "a"): 1.0}, {(0, 1, "a"): 1.0, (1, 0, "c"): 0.5},
             "emit key (1, 0, 'c') has unknown emission"),
            ({(0, 1.5, "a"): 1.0, (1, 0, "a"): 1.0}, {},
             "trans key (0, 1.5, 'a') has non-integer state"),
        ],
    )
    def test_first_bad_entry_names_the_error(self, trans, emit, message):
        # the bulk check finds that an entry is bad; the key-by-key scan names the first
        with pytest.raises(ValueError, match=re.escape(message)):
            Hmm(2, ("a", "b"), trans, emit)

    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match="num_states must be positive"):
            Hmm(0, ("a",), {}, {})

    def test_duplicate_emission_symbols_rejected(self):
        with pytest.raises(ValueError, match="duplicate emission symbols"):
            Hmm(1, ("a", "b", "a"), {(0, 0, "a"): 1.0}, {})

    def test_keys_that_compare_in_range_pass(self):
        h = Hmm(2, ("a",), {(np.int64(0), 1.0, "a"): 1.0}, {(True, 0, "a"): 0.5})
        assert h.successors(0, "a") == ((1.0, 1.0),)

    @pytest.mark.parametrize("dict_built", [False, True])
    def test_tables_are_read_only(self, hmm01, dict_built):
        h = Hmm.from_json_dict(hmm01.to_json_dict()) if dict_built else hmm01
        for array in (h.succ, *h.tables.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 0


class TestNormalisation:
    def test_zero_transitions_and_emissions_off_the_branches_are_dropped(self):
        trans = {(0, 1, "a"): 0.5, (0, 2, "a"): 0.5, (1, 0, "a"): 1.0, (2, 0, "a"): 1.0,
                 (0, 0, "b"): 1.0, (1, 2, "b"): 1.0, (2, 1, "b"): 1.0}
        emit = {(i, j, y): 0.2 + 0.1 * (i + 2 * j) for i, j, y in trans}
        base = Hmm(3, ("a", "b"), trans, emit)
        # a zero-transition entry with an emission, and an emission-only entry
        padded = Hmm(3, ("a", "b"), trans | {(1, 1, "a"): 0.0},
                     emit | {(1, 1, "a"): 0.5, (2, 2, "b"): 0.7})
        assert padded.trans == base.trans == trans
        assert padded.emit == base.emit == emit
        assert padded.to_json_dict() == base.to_json_dict()
        for word in itertools.product("ab", repeat=4):
            for decode in (viterbi_decode, brute_force_decode):
                assert decode(padded, word) == decode(base, word)


class TestJson:
    def test_roundtrip(self, hmm01):
        clone = Hmm.from_json_dict(hmm01.to_json_dict())
        assert clone.trans == hmm01.trans
        assert clone.emit == hmm01.emit
        assert clone.emissions == hmm01.emissions

    def test_file_roundtrip(self, hmm01, tmp_path):
        path = tmp_path / "model.json"
        dump_hmm(hmm01, path)
        clone = load_hmm(path)
        assert clone.trans == hmm01.trans
        assert clone.check_row_stochastic().passed

    def test_document_shape(self, hmm01):
        doc = hmm01.to_json_dict()
        assert set(doc) == {"num_states", "emissions", "trans", "emit"}
        i, j, y, p = doc["trans"][0]
        assert isinstance(i, int) and isinstance(y, str) and isinstance(p, float)

    def test_unknown_keys_are_refused(self, hmm01):
        doc = hmm01.to_json_dict() | {"extra": 1}
        with pytest.raises(ValueError, match=re.escape("unknown HMM document keys ['extra']")):
            Hmm.from_json_dict(doc)

    def test_legacy_initial_point_mass_on_state_zero_is_accepted(self, hmm01):
        # what earlier versions wrote for every model
        doc = hmm01.to_json_dict() | {"initial": [1.0, 0.0, 0.0, 0.0]}
        assert Hmm.from_json_dict(doc).trans == hmm01.trans

    @pytest.mark.parametrize("p", ["x", None, True, [0.5]])
    def test_a_probability_that_is_not_a_number_is_refused(self, hmm01, p):
        doc = hmm01.to_json_dict()
        doc["emit"][0][3] = p
        message = f"emit entry (0, 0, '00'): {p!r} is not a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hmm.from_json_dict(doc)

    def test_a_repeated_entry_is_refused(self, hmm01):
        doc = hmm01.to_json_dict()
        doc["trans"].append([0, 0, "00", 0.25])
        with pytest.raises(ValueError, match=re.escape("trans entry (0, 0, '00') is repeated")):
            Hmm.from_json_dict(doc)

    @pytest.mark.parametrize(
        "entry",
        [
            ["0", 1, "00", 0.5],  # a string state
            [0, 1, ["00"], 0.5],  # a list emission
            [0, 1, "00"],
            [0, 1, "00", 0.5, 0.5],
            0.5,
        ],
    )
    def test_a_malformed_entry_is_refused(self, hmm01, entry):
        doc = hmm01.to_json_dict()
        doc["emit"].append(entry)
        message = f"emit entry {entry!r} is not [state, state, symbol, p]"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hmm.from_json_dict(doc)

    def test_a_table_that_is_not_a_list_is_refused(self, hmm01):
        doc = hmm01.to_json_dict() | {"trans": 5}
        with pytest.raises(ValueError, match=re.escape("trans is 5, not a list of entries")):
            Hmm.from_json_dict(doc)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"num_states": "2"}, "num_states is '2', not an integer"),
            ({"num_states": 2.5}, "num_states is 2.5, not an integer"),
            ({"emissions": 5}, "emissions is 5, not a list of symbols"),
            ({"emissions": [1]}, "emissions is [1], not a list of symbols"),
            ({"trans": None}, "missing HMM document keys ['trans']"),
            ({"emit": None}, "missing HMM document keys ['emit']"),
        ],
        ids=["string-states", "fractional-states", "number-emissions", "number-symbol",
             "no-trans", "no-emit"],
    )
    def test_a_malformed_field_is_refused(self, hmm01, change, message):
        doc = hmm01.to_json_dict() | change
        doc = {key: value for key, value in doc.items() if value is not None}  # None drops
        with pytest.raises(ValueError, match=re.escape(message)):
            Hmm.from_json_dict(doc)

    @pytest.mark.parametrize(
        "initial", [[0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [], 1.0]
    )
    def test_any_other_legacy_initial_is_refused(self, hmm01, initial):
        # decoders start at their initial_state argument, never at this distribution
        doc = hmm01.to_json_dict() | {"initial": initial}
        with pytest.raises(ValueError, match="point mass on state 0"):
            Hmm.from_json_dict(doc)
