"""The CLI contract: every field a command is given is read or refused, size
guards run before any per-frame work, and bad input exits 2 with one line."""
import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qviterbi import circuits, cli, qva
from qviterbi.cli import DECODE_MODES, FIELDS, build_parser, main, resolve_config
from qviterbi.convcode import CODE_5_7, ConvCode
from qviterbi.errors import SIZE_LIMIT, SizeLimitError, check_paths
from qviterbi.viterbi import enumerate_paths

COMMANDS = ("table", "sweep", "decode", "verify", "circuit")

# The commands that read each field, stated apart from cli.FIELDS, which must agree
READERS = {
    "code": COMMANDS,
    "n_steps": ("table", "sweep", "decode"),
    "epsilon": ("decode",),
    "mode": ("decode",),
    "omega": ("circuit",),
    "iterations": ("sweep", "decode"),
    "trials": ("decode",),
    "seed": COMMANDS,
    "grid": ("table", "sweep"),
    "out": ("table", "sweep", "decode", "circuit"),
    "campaigns": ("decode",),
    "n_range": ("table",),
    "max_errors": ("decode",),
}

# The decode modes that read the fields only some modes read, stated apart from cli.MODE_READERS
DECODE_READERS = {
    "iterations": ("iterated-qva",),
    "trials": ("iterated-qva", "probabilistic-qva"),
    "max_errors": ("iterated-qva",),
}

# A value every reader accepts, as (flag argument or None, config value)
VALID = {
    "code": ("1,2,2;5,7", "1,2,2;5,7"),
    "n_steps": ("4", 4),
    "epsilon": ("0.05", 0.05),
    "mode": (None, "classical"),
    "omega": ("0.68", 0.68),
    "iterations": ("3", 3),
    "trials": ("5", 5),
    "seed": ("3", 3),
    "grid": ("0.05", 0.05),
    "out": ("out.csv", "out.csv"),
    "campaigns": (None, 4),
    "n_range": (None, [3, 4]),
    "max_errors": (None, 1),
}


def run(argv, doc=None):
    """main(argv) with doc as --config in the current directory: (exit code, stdout, stderr)."""
    if doc is not None:
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [*argv, "--config", "config.json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_bad_config(result, message=None):
    code, out, err = result
    assert code == 2 and out == "", result
    assert err.startswith("bad config: ") and err.count("\n") == 1 and err.endswith("\n"), err
    if message is not None:
        assert err == f"bad config: {message}\n"


class TestFieldReaders:
    def test_fields_name_their_readers(self):
        assert {key: entry[3] for key, entry in FIELDS.items()} == READERS
        assert cli.EVERY == tuple(cli.COMMANDS) == COMMANDS
        assert sum(len(readers) for readers in READERS.values()) == 28
        assert not hasattr(cli, "READ_BY")  # the readers are stated once, in FIELDS
        assert cli.MODE_READERS == DECODE_READERS
        assert all("decode" in READERS[key] for key in DECODE_READERS)

    @pytest.mark.parametrize(
        "command, key, via",
        [(c, k, via) for k in READERS for c in COMMANDS if c not in READERS[k]
         for via in ("flag", "config") if via == "config" or VALID[k][0] is not None],
    )
    def test_unread_field_exits_two(self, tmp_path, monkeypatch, command, key, via):
        monkeypatch.chdir(tmp_path)
        flag_value, config_value = VALID[key]
        if via == "flag":
            result = run([command, "--" + key.replace("_", "-"), flag_value])
        else:
            result = run([command], {key: config_value})
        readers = "/".join(READERS[key])
        assert_bad_config(result, f"{key} is for {readers} only, not {command!r}")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            # ignored before: each printed the same bytes as the run without its flags
            (["table", "--n-steps", "3", "--epsilon", "0.3", "--iterations", "2",
              "--trials", "5"], None, "epsilon is for decode only, not 'table'"),
            (["verify", "--n-steps", "7", "--epsilon", "0.3", "--iterations", "3"], None,
             "n_steps is for table/sweep/decode only, not 'verify'"),
            (["circuit", "--n-steps", "7", "--seed", "4"], None,
             "n_steps is for table/sweep/decode only, not 'circuit'"),
            # exited 0 before
            (["decode", "--n-steps", "3"], {"n_range": [3, 4]},
             "n_range is for table only, not 'decode'"),
            (["verify"], {"campaigns": 5}, "campaigns is for decode only, not 'verify'"),
        ],
    )
    def test_formerly_ignored_fields_exit_two(self, tmp_path, monkeypatch, argv, doc, message):
        monkeypatch.chdir(tmp_path)
        assert_bad_config(run(argv, doc), message)

    @pytest.mark.parametrize("command, key", [(c, k) for k in READERS for c in READERS[k]])
    def test_read_field_accepted(self, tmp_path, command, key):
        doc = {key: VALID[key][1]}
        if key == "out" and command == "decode":
            doc[key] = "out.json"  # the CSV form is probabilistic-qva's
        if command == "decode" and key in DECODE_READERS:
            doc["mode"] = DECODE_READERS[key][0]  # the default mode, classical, refuses it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = resolve_config(build_parser().parse_args([command, "--config", str(path)]))
        assert cfg.command == command

    @pytest.mark.parametrize(
        "key, mode, via",
        [(k, m, via) for k in DECODE_READERS for m in DECODE_MODES if m not in DECODE_READERS[k]
         for via in ("flag", "config") if via == "config" or VALID[k][0] is not None],
    )
    def test_field_the_decode_mode_ignores_exits_two(self, tmp_path, monkeypatch, key, mode, via):
        monkeypatch.chdir(tmp_path)
        doc = {"mode": mode, "campaigns": 2, "n_steps": 3, "out": "out.json"}
        if via == "flag":
            result = run(["decode", "--" + key.replace("_", "-"), VALID[key][0]], doc)
        else:
            result = run(["decode"], {**doc, key: VALID[key][1]})
        modes = "/".join(DECODE_READERS[key])
        assert_bad_config(result, f"{key} is for decode mode {modes} only, not {mode!r}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key, mode", [(k, m) for k in DECODE_READERS for m in DECODE_READERS[k]])
    def test_field_the_decode_mode_reads_runs(self, tmp_path, monkeypatch, key, mode):
        monkeypatch.chdir(tmp_path)
        doc = {"mode": mode, "campaigns": 2, "n_steps": 3, "out": "out.json", key: VALID[key][1]}
        code, out, err = run(["decode"], doc)
        assert code == 0 and err == "" and out.startswith("blocks=2 ")
        assert json.loads((tmp_path / "out.json").read_text())["config"][key] == VALID[key][1]

    def test_classical_decode_with_iterations_flag_exits_two(self, tmp_path, monkeypatch):
        # read by no part of a classical campaign, which used to run and exit 0
        monkeypatch.chdir(tmp_path)
        assert_bad_config(run(["decode", "--iterations", "3"]),
                          "iterations is for decode mode iterated-qva only, not 'classical'")

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for k, entry in FIELDS.items() if entry[0] is not None for c in READERS[k]],
    )
    def test_null_config_key_resolves_as_omitted(self, tmp_path, command, key):
        # {"n_steps": null} exited 2 ("n_steps must be int, got null")
        def resolve(doc):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            return resolve_config(build_parser().parse_args([command, "--config", str(path)]))

        assert resolve({key: None}) == resolve({})

    def test_null_config_key_is_not_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["circuit"], {"mode": None, "iterations": None, "n_range": None})
        assert code == 0 and err == "" and "match=yes" in out


class TestTableFrameLength:
    def test_config_n_steps_is_the_flag(self, tmp_path, monkeypatch):
        # the config key used to be dropped, printing the default N = 3..10 rows
        monkeypatch.chdir(tmp_path)
        by_flag = run(["table", "--n-steps", "5"])
        assert by_flag[0] == 0 and by_flag[1].count("\n") == 3
        assert run(["table"], {"n_steps": 5}) == by_flag

    def test_n_steps_wins_over_n_range(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        by_flag = run(["table", "--n-steps", "4"])
        assert run(["table"], {"n_steps": 4, "n_range": [3, 12]}) == by_flag
        assert run(["table", "--n-steps", "4"], {"n_range": [3, 12]}) == by_flag

    def test_config_n_steps_outside_the_table_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert_bad_config(run(["table"], {"n_steps": 13}), "table n_range must lie within [3, 12]")


class TestPathCountGuard:
    def test_returns_the_path_count_below_the_bound(self):
        assert check_paths(2, 24) == 1 << 24
        assert check_paths(4, 20) == 1 << 40  # a count over SIZE_LIMIT is still returned
        assert check_paths(1, 10**9) == 1

    @pytest.mark.parametrize("fanout, n_steps", [(2, 25), (2, 2**40), (4, 10**100)])
    def test_refuses_without_computing_the_count(self, fanout, n_steps):
        with pytest.raises(SizeLimitError, match=rf"^{fanout}\^{n_steps} paths exceeds"):
            check_paths(fanout, n_steps)

    def test_library_callers_refuse_huge_frames(self):
        for call in (
            lambda: qva.codeword_table(CODE_5_7, 2**40),
            lambda: enumerate_paths(CODE_5_7.to_hmm(0.1), ["00"] * 25, 0, ("errors",)),
        ):
            with pytest.raises(SizeLimitError):
                call()
        # the formula is a closed form, refused only where F^N leaves float range
        with pytest.raises(ValueError, match=rf"^2\^{2**40} paths lies beyond float range$"):
            qva.formula_iterations(CODE_5_7, 2**40)
        # 4^20 paths are over SIZE_LIMIT, but their count is computed
        assert qva.formula_iterations(ConvCode.from_spec("2,3,1;1,2,3,3,1,2"), 20) == 823550

    def test_iterated_decode_at_1100_steps_exits_two(self, tmp_path, monkeypatch):
        # was an OverflowError traceback from path_iterations
        monkeypatch.chdir(tmp_path)
        result = run(["decode", "--n-steps", "1100"], {"mode": "iterated-qva"})
        assert_bad_config(result, "2^1100 paths exceeds the size guard")

    @pytest.mark.parametrize("mode", DECODE_MODES[1:])
    def test_qva_decode_at_2_to_the_40_steps_exits_two(self, tmp_path, monkeypatch, mode):
        monkeypatch.chdir(tmp_path)
        result = run(["decode", "--n-steps", str(2**40)], {"mode": mode, "campaigns": 1})
        assert_bad_config(result, f"2^{2**40} paths exceeds the size guard")

    @pytest.mark.parametrize("argv, paths", [
        (["sweep", "--n-steps", "9", "--iterations", "1"], "8^9"),
        (["table"], "8^9"),  # the first frame of N = 3..10 over the bound
        (["decode", "--n-steps", "9"], "8^9"),
    ])
    def test_frames_over_the_bound_under_25_steps_exit_two(self, tmp_path, monkeypatch,
                                                           argv, paths):
        # a code path space reads its classes at any size, but the CLI keeps the path bound
        monkeypatch.chdir(tmp_path)
        doc = {"mode": "iterated-qva"} if argv[0] == "decode" else None
        result = run([*argv, "--code", "3,2,1;1,2,3,1,2,3"], doc)
        assert_bad_config(result, f"{paths} paths exceeds the size guard")

    def test_resolve_refuses_a_sweep_of_10_to_the_8_steps(self):
        # main used to build the 2e8-bit received word before any guard ran
        args = build_parser().parse_args(["sweep", "--n-steps", "100000000", "--iterations", "1"])
        with pytest.raises(SizeLimitError, match=r"^2\^100000000 paths exceeds the size guard$"):
            resolve_config(args)

    def test_resolve_refuses_a_campaign_over_the_bound(self, tmp_path):
        # the seed tables of 10^9 blocks took 7.45 GiB before
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"campaigns": 1_000_000_000}), encoding="utf-8")
        args = build_parser().parse_args(["decode", "--config", str(path), "--n-steps", "3"])
        with pytest.raises(SizeLimitError, match=r"^1000000000 x 3 x 2 received bits exceeds"):
            resolve_config(args)

    def test_campaign_at_the_bound_is_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"campaigns": SIZE_LIMIT // 8}), encoding="utf-8")
        args = build_parser().parse_args(["decode", "--config", str(path), "--n-steps", "4"])
        assert resolve_config(args).campaigns == SIZE_LIMIT // 8

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["sweep", "--n-steps", "2", "--iterations", str(10**400)], None),
            (["decode", "--n-steps", "2"], {"mode": "iterated-qva", "iterations": 10**400}),
        ],
    )
    def test_iterations_past_float_range_exit_two(self, tmp_path, monkeypatch, argv, doc):
        # PEAK_STEP / iterations overflowed in sweep_omega
        monkeypatch.chdir(tmp_path)
        assert_bad_config(run(argv, doc))

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n-steps", "3", "--grid", "1e-309"],
            ["table", "--grid", "1e-320"],
            ["sweep", "--n-steps", "3", "--grid", "1e-300"],
        ],
    )
    def test_grid_of_more_points_than_the_bound_exits_two(self, tmp_path, monkeypatch, argv):
        # the first two were an OverflowError traceback and exit 1 (pi / grid is
        # inf); the third printed a 301-digit point count in a 361-character line
        monkeypatch.chdir(tmp_path)
        result = run(argv)
        assert_bad_config(result, f"the grid of step {argv[-1]} exceeds the size guard")
        assert len(result[2]) < 80


def test_config_file_that_is_not_utf8_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_bytes(b"\xff\xfe{}")
    code, out, err = run(["decode", "--config", "config.json"])
    assert_bad_config((code, out, err))
    assert err.startswith("bad config: cannot read config file: ")


# ---------------------------------------------------------------------------
# The property: any mix of fields, flags and config keys exits 0 or 2, and 2
# is one line with nothing on stdout.  Accepted draws stay small (N <= 6,
# campaigns <= 4); the huge values drawn are all on the refused side.

HUGE = [2**24 + 1, 2**40, 10**400]
WRONG_TYPES = [True, "4", 1.5, [1], {"a": 1}]

# field -> (flag arguments, extra config values); flag arguments parse, so
# a config value is drawn from both lists
DRAWS = {
    "code": (["1,2,2;5,7", "1,2,2;05,07", "1,3,2;5,7,3", "junk", "1,2,40;1,20000000000000",
              "1,65,1;" + ",".join(["3"] * 65)], [5, None]),
    "n_steps": (["1", "2", "4", "6", "0", "-3", *map(str, HUGE)], WRONG_TYPES + [None]),
    "epsilon": (["0", "0.05", "0.2", "0.5", "-0.1", "1e400", "nan"], ["x", True, None, 10**400]),
    "mode": ([], [*DECODE_MODES, "annealing", 3, None]),
    "omega": (["0", "0.68", "3", "5", "-1", "nan"], ["x", None, 10**400]),
    "iterations": (["1", "3", "0", *map(str, HUGE)], WRONG_TYPES + [None]),
    "trials": (["1", "5", "0", *map(str, HUGE)], WRONG_TYPES + [None]),
    "seed": (["0", "7", "-1", str(2**70)], WRONG_TYPES + [None]),
    "grid": (["0.005", "0.05", "3", "0", "4", "1e-300", "1e-320", "nan"], ["x", None, 10**400]),
    "out": (["out.csv", "out.json", "step", "missing/x.csv"], [5, None]),
    "campaigns": ([], [1, 4, 0, *HUGE, *WRONG_TYPES, None]),
    "n_range": ([], [[3, 4], [5, 4], [6, 6], [2, 9], [3, 13], ["a", 5], [3], 5, None]),
    "max_errors": ([], [0, 1, 2, -1, 10**400, *WRONG_TYPES, None]),
}


@pytest.fixture(scope="module")
def in_tmp_dir(tmp_path_factory):
    # module scope: Hypothesis reruns the test body, and out files land here
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("cli-contract"))
        yield


@st.composite
def requests(draw):
    """(command, argv, config document or None, the fields given)."""
    command = draw(st.sampled_from(COMMANDS))
    argv, doc = [command], {}
    # up to three fields the command reads, and maybe one of any
    keys = draw(st.sets(st.sampled_from([k for k in DRAWS if command in READERS[k]]), max_size=3))
    for key in keys | draw(st.sets(st.sampled_from(list(DRAWS)), max_size=1)):
        flags, extra = DRAWS[key]
        if flags and draw(st.booleans()):
            argv += ["--" + key.replace("_", "-"), draw(st.sampled_from(flags))]
        else:
            value = draw(st.sampled_from([*flags, *extra]))
            # a flag argument goes in the document as the JSON number it spells
            if key != "code" and isinstance(value, str) and value[0] in "-0123456789":
                value = json.loads(value)
            doc[key] = value
    if command == "decode" and "campaigns" not in doc:
        doc["campaigns"] = 4  # the default 100 would slow the property down
    given_keys = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    given_keys |= {key for key, value in doc.items() if value is not None}
    return command, argv, doc or None, given_keys


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
# a grid step whose point count overflows is refused on every run, not only
# when the draws land on it with every other field valid
@example(("table", ["table", "--grid", "1e-320"], None, {"grid"}))
@example(("sweep", ["sweep"], {"grid": 1e-320}, {"grid"}))
def test_cli_exits_zero_or_one_bad_config_line(in_tmp_dir, request_):
    command, argv, doc, given_keys = request_
    code, out, err = run(argv, doc)
    assert code in (0, 2), (argv, doc, code, err)
    if code == 2:
        assert_bad_config((code, out, err))
    else:
        assert err == ""
    if any(command not in READERS[key] for key in given_keys):
        assert code == 2, (argv, doc)
    mode = (doc or {}).get("mode") or DECODE_MODES[0]
    if command == "decode" and any(mode not in DECODE_READERS.get(key, (mode,))
                                   for key in given_keys):
        assert code == 2, (argv, doc)


# ---------------------------------------------------------------------------
# The sibling property: a verify run whose check is made to fail exits 1 and
# names that check in a [FAIL] line.  The faults are those of
# tests/test_cli.py's test_fault_injected_check_fails, each drawn with codes
# the faulted check applies to.

FAULTS = [
    # the DP decoder reports one bit error more than the oracle
    ("decoder-oracle-equivalence", cli, "viterbi_decode",
     lambda healthy: lambda h, blocks: healthy(h, blocks)._replace(
         metric=healthy(h, blocks).metric + 1),
     ["1,2,2;5,7", "1,3,2;5,7,3", "1,2,3;13,17"]),
    ("step-block-unitarity", circuits, "step_blocks",
     lambda healthy: lambda *args: 1.01 * healthy(*args),
     ["1,2,2;5,7", "1,3,2;5,7,3", "1,2,3;13,17"]),
    # the gate-level circuit is defined for the (5,7) code only
    ("circuit-vs-block", circuits, "step_circuit_00",
     lambda healthy: lambda omega: healthy(omega + 0.01),
     ["1,2,2;5,7", "1,2,2;05,07"]),
]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FAULTS), st.data())
def test_verify_with_a_failing_check_exits_one(in_tmp_dir, fault, data):
    name, owner, attr, inject, specs = fault
    argv, doc = ["verify"], {}
    # None leaves the field out: the default code, (5,7), suits every fault
    for key, values in (("code", specs), ("seed", [0, 5, 7])):
        value = data.draw(st.sampled_from([None, *values]))
        if value is None:
            continue
        if data.draw(st.booleans()):
            argv += ["--" + key, str(value)]
        else:
            doc[key] = value
    with mock.patch.object(owner, attr, inject(getattr(owner, attr))):
        code, out, err = run(argv, doc or None)
    assert code == 1 and err == "", (argv, doc, code, err)
    assert any(line.startswith(f"[FAIL] {name} ") for line in out.splitlines()), out
