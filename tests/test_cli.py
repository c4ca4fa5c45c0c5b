import hashlib
import json

import pytest

import qviterbi.qva as qva_module
from qviterbi import circuits, cli
from qviterbi.cli import (
    ConfigError,
    build_parser,
    load_reference,
    main,
    resolve_config,
    run_decode_campaign,
)
from qviterbi.convcode import ConvCode
from qviterbi.errors import SizeLimitError


def parse(argv):
    return build_parser().parse_args(argv)


def config_file(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestConfigResolution:
    def test_defaults_applied(self):
        cfg = resolve_config(parse(["decode"]))
        assert cfg.code == "1,2,2;5,7"
        assert cfg.mode == "classical"
        assert cfg.seed == 0

    def test_flags_override_config_file(self, tmp_path):
        path = config_file(tmp_path, {"n_steps": 6, "epsilon": 0.2})
        cfg = resolve_config(parse(["decode", "--config", path, "--epsilon", "0.05"]))
        assert cfg.n_steps == 6  # from file
        assert cfg.epsilon == 0.05  # flag wins

    def test_decode_mode_from_config(self, tmp_path):
        path = config_file(tmp_path, {"mode": "probabilistic-qva"})
        cfg = resolve_config(parse(["decode", "--config", path]))
        assert cfg.mode == "probabilistic-qva"

    def test_unknown_key_rejected(self, tmp_path):
        path = config_file(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError):
            resolve_config(parse(["decode", "--config", path]))

    def test_wrong_mode_for_command_rejected(self, tmp_path):
        path = config_file(tmp_path, {"mode": "classical"})
        with pytest.raises(ConfigError):
            resolve_config(parse(["table", "--config", path]))

    @pytest.mark.parametrize(
        "command, mode",
        [("table", "table-reproduction"), ("sweep", "omega-sweep"),
         ("verify", "circuit-verify"), ("circuit", "circuit-verify")],
    )
    def test_mode_outside_decode_exits_two(self, tmp_path, capsys, command, mode):
        # mode is a decode field: the other commands refuse any value, their old labels too
        path = config_file(tmp_path, {"mode": mode})
        assert main([command, "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"bad config: mode is for decode only, not {command!r}\n"

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            *(([command, "--omega", "0.5"], None, f"omega is for circuit only, not {command!r}")
              for command in ["table", "sweep", "decode", "verify"]),
            *(([command, "--grid", "0.3"], None, f"grid is for table/sweep only, not {command!r}")
              for command in ["decode", "verify", "circuit"]),
            # a config key counts as given even at its default value
            (["decode"], {"grid": 0.005}, "grid is for table/sweep only, not 'decode'"),
            (["verify"], {"omega": 0.68}, "omega is for circuit only, not 'verify'"),
            (["verify", "--out", "v.txt"], None,
             "out is for table/sweep/decode/circuit only, not 'verify'"),
        ],
    )
    def test_field_the_command_does_not_read_exits_two(
        self, tmp_path, monkeypatch, capsys, argv, doc, message
    ):
        # a field the command would ignore is refused, not echoed or dropped
        monkeypatch.chdir(tmp_path)
        if doc is not None:
            argv = argv + ["--config", config_file(tmp_path, doc)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"bad config: {message}\n"
        assert not (tmp_path / "v.txt").exists()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            resolve_config(parse(["decode", "--config", str(path)]))

    def test_bad_values_exit_code_two(self, capsys, tmp_path):
        assert main(["decode", "--epsilon", "0.7"]) == 2
        assert "bad config" in capsys.readouterr().err
        assert main(["decode", "--code", "junk"]) == 2
        assert main(["sweep", "--grid", "-1"]) == 2
        capsys.readouterr()
        bad_docs = [
            {"n_steps": "4"},
            {"seed": 1.5},
            {"campaigns": True},
            {"seed": -5},
            {"out": 5},
            {"mode": "probabilistic-qva", "n_steps": 30},
            {"mode": "iterated-qva", "iterations": 0},
            {"mode": "iterated-qva", "n_steps": 3, "max_errors": 50, "campaigns": 2},
            # the schedule's sweep grid would hold billions of amplitudes
            {"mode": "iterated-qva", "n_steps": 2, "iterations": 1_000_000_000},
            # a grid that fits in memory, but whose iterations would take hours
            {"mode": "iterated-qva", "n_steps": 2, "iterations": 100_000},
            # a billion shot draws per block, refused before they are allocated
            {"mode": "iterated-qva", "trials": 1_000_000_000},
            {"mode": "probabilistic-qva", "trials": 1_000_000_000},
        ]
        for i, doc in enumerate(bad_docs):
            path = config_file(tmp_path, doc, name=f"bad{i}.json")
            assert main(["decode", "--config", path]) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("bad config: ") and err.count("\n") == 1, err
        assert main(["sweep", "--iterations", "0"]) == 2
        assert main(["sweep", "--n-steps", "2", "--iterations", "1000000000"]) == 2
        capsys.readouterr()
        assert main(["sweep", "--n-steps", "2", "--iterations", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad config: ") and err.count("\n") == 1, err
        # 65 outputs do not fit the int64 output blocks
        wide = "1,65,1;" + ",".join(["3"] * 65)
        for command in ("table", "sweep", "decode", "verify"):
            assert main([command, "--code", wide]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("bad config: ") and err.count("\n") == 1, err
        assert main(["circuit", "--omega", "5"]) == 2
        assert main(["decode", "--seed", "-1", "--n-steps", "3"]) == 2
        assert main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_code_without_a_trellis_exits_two(self, capsys):
        # 2^40 states: the trellis tables are refused before any array is built
        huge = "1,2,40;1,20000000000000"
        for argv in (["table", "--n-steps", "3"], ["sweep", "--n-steps", "2"],
                     ["decode", "--n-steps", "2"]):
            assert main(argv + ["--code", huge]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "bad config: 1099511627776 x 2 trellis edges exceeds the size guard\n"

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["decode", "--n-steps", "3", "--out"], "{}"),
            (["table", "--n-steps", "4", "--out"], "{}"),
            (["sweep", "--n-steps", "3", "--out"], "{}"),
            (["circuit", "--out"], "{}.circuit.csv"),
        ],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, argv, written):
        target = str(tmp_path / "missing" / "x.json")
        assert main(argv + [target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"bad config: cannot write {written.format(target)}: "), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([4], "config document must be a JSON object"),
            ({"mode": "annealing"}, "mode 'annealing' not valid for 'decode'; expected one of "
                                    "('classical', 'iterated-qva', 'probabilistic-qva')"),
            ({"n_steps": 0}, "n_steps must be at least 1"),
            ({"campaigns": 0}, "campaigns must be at least 1"),
            ({"max_errors": -1}, "max_errors must be non-negative"),
        ],
    )
    def test_decode_config_refusals_exit_two(self, tmp_path, capsys, doc, message):
        assert main(["decode", "--config", config_file(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"bad config: {message}\n"

    @pytest.mark.parametrize("mode", ["classical", "iterated-qva"])
    def test_csv_out_refused_outside_probabilistic_mode(self, tmp_path, capsys, mode):
        # only probabilistic-qva has a CSV form; the others would write JSON into a .csv
        target = tmp_path / "campaign.csv"
        config = config_file(tmp_path, {"mode": mode, "campaigns": 3})
        assert main(["decode", "--config", config, "--n-steps", "3", "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"bad config: mode {mode!r} writes a JSON record, not CSV\n"
        assert not target.exists()

    def test_table_range_validation(self, tmp_path):
        path = config_file(tmp_path, {"n_range": [2, 9]})
        assert main(["table", "--config", path]) == 2
        path = config_file(tmp_path, {"n_range": ["a", 5]}, name="letters.json")
        assert main(["table", "--config", path]) == 2


# sha256 of `table` stdout for the default range (N = 3..10) and for n_range
# [3, 12], computed when every (frame, source) row ran its own sweep
GOLDEN_TABLE_SHA256 = {
    "default": "6a11baf98d3048498edfef51b7489a773d3cabd2f9794afba45fd21c4b85e5a9",
    "3-12": "a0a5bc722450b54b34521ddc69da25a8a0eb77a4226c968046e6763e067c8edb",
}


class TestTable:
    @pytest.mark.parametrize("n_range", sorted(GOLDEN_TABLE_SHA256))
    def test_output_matches_golden_digest(self, tmp_path, capsys, n_range):
        argv = ["table"]
        if n_range != "default":
            doc = {"n_range": [int(n) for n in n_range.split("-")]}
            argv += ["--config", config_file(tmp_path, doc)]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_TABLE_SHA256[n_range]

    def test_empty_range_emits_header_only(self, tmp_path, capsys):
        path = config_file(tmp_path, {"n_range": [5, 4]})
        assert main(["table", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out == "n_steps,iterations,source,omega_star,prob_top,ref_omega_star,ref_prob_top\n"

    def test_single_row_matches_reference(self, capsys):
        assert main(["table", "--n-steps", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        reference = [r for r in rows if r["source"] == "reference"][0]
        assert abs(float(reference["omega_star"]) - 0.68) <= 0.02
        assert float(reference["prob_top"]) >= 0.67
        assert float(reference["ref_omega_star"]) == 0.68
        # formula row carries no reference columns
        formula = [r for r in rows if r["source"] == "formula"][0]
        assert formula["ref_omega_star"] == ""

    def test_default_range_emits_both_sources_per_frame_length(self, capsys):
        assert main(["table"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 16  # one reference and one formula row for N = 3..10
        by_key = {(int(r["n_steps"]), r["source"]): r for r in rows}
        three = by_key[(3, "reference")]
        assert int(three["iterations"]) == 2
        assert abs(float(three["prob_top"]) - 0.73) <= 0.02
        # the swept value at every reference row must sit within the
        # diffable tolerance of its reference column
        for n in range(3, 11):
            row = by_key[(n, "reference")]
            assert abs(float(row["omega_star"]) - float(row["ref_omega_star"])) <= 0.03

    def test_table_reads_no_path_errors(self, capsys, monkeypatch):
        # every frame's classes come off the trellis: no error vector is built
        calls, real = [], qva_module.path_error_rows
        monkeypatch.setattr(qva_module, "path_error_rows",
                            lambda *args: calls.append(args) or real(*args))
        assert main(["table"]) == 0
        assert calls == [] and capsys.readouterr().out.count("\n") == 17

    def test_table_output_deterministic(self, capsys):
        assert main(["table", "--n-steps", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["table", "--n-steps", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_reference_rows_follow_the_code_not_its_spelling(self, capsys):
        assert main(["table", "--n-steps", "4"]) == 0
        canonical = capsys.readouterr().out
        assert main(["table", "--code", "1,2,2;05,07", "--n-steps", "4"]) == 0
        assert capsys.readouterr().out == canonical


class TestSweep:
    def test_csv_deterministic_and_lf_only(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--n-steps", "3", "--iterations", "2", "--seed", "5", "--grid", "0.02"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        data = out_a.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"omega,iterations,prob_top,top_index\n")

    def test_summary_record_emitted_with_out(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--n-steps", "4", "--iterations", "3", "--out", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["iterations"] == 3
        assert record["exponent_multiset"] == {
            "0": 1, "2": 1, "3": 3, "4": 5, "5": 4, "6": 1, "7": 1
        }
        assert abs(record["omega_star"] - 0.68) <= 0.02

    def test_summary_record_floats_have_csv_precision(self, tmp_path, capsys):
        # a full repr would change with the summation order of the class mean
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--n-steps", "6", "--out", str(out)]) == 0
        record = json.loads(capsys.readouterr().out, parse_float=str)
        for key in ("omega_star", "prob_star"):
            mantissa = record[key].lower().split("e")[0].lstrip("-").replace(".", "")
            assert len(mantissa.strip("0")) <= 12, (key, record[key])


class TestDeterminism:
    # decode is pinned by GOLDEN_DECODE_SHA256; these commands by run-to-run equality
    @pytest.mark.parametrize(
        "argv, files",
        [
            (["table", "--n-steps", "6", "--seed", "3"], []),
            (["table", "--n-steps", "4", "--out", "{dir}/table.csv"], ["table.csv"]),
            (["sweep", "--n-steps", "7", "--seed", "3", "--out", "{dir}/sweep.csv"], ["sweep.csv"]),
            (["sweep", "--code", "2,3,1;1,2,3,3,1,2", "--n-steps", "3", "--iterations", "4"], []),
            (["verify", "--seed", "5"], []),
            (
                ["circuit", "--omega", "0.9", "--out", "{dir}/step"],
                ["step.circuit.csv", "step.block.csv"],
            ),
        ],
    )
    def test_fixed_seed_runs_are_byte_identical(self, tmp_path, capsys, argv, files):
        runs = []
        for run in range(2):
            directory = tmp_path / str(run)
            directory.mkdir()
            assert main([arg.format(dir=directory) for arg in argv]) == 0
            out = capsys.readouterr().out
            runs.append([out.encode()] + [(directory / name).read_bytes() for name in files])
        assert b"".join(runs[0])
        assert runs[0] == runs[1]


# sha256 of json.dumps([rows, summary], sort_keys=True) for N = 6, eps = 0.05,
# 100 blocks, seed 11, computed by the string-walking encoder and channel and
# Generator.choice sampling that the table-driven code replaced
GOLDEN_DECODE_SHA256 = {
    "classical": "004300cf1d9567e41331c8ea9956f3e1b77ea6675dd24b684cc156a0d1665a0e",
    "iterated-qva": "a33f76bf865a445036eecb040ea58cfe67046b0fa0b73d9497ce7684126d1e98",
    "probabilistic-qva": "79f79a6dec3f94d51eaf2476dce07e2b661b867793a793e532ca12523d51d36d",
}


# The same digest at two more corners, computed before campaigns drew their
# generators from seed tables, when every block built its own
# np.random.default_rng: the k = 2 code 2,2,1;1,2,3,1 at N = 4 (40 blocks,
# seed 3), and seed 5e9, which takes two 32-bit entropy words (N = 5, 60
# blocks).  Both at eps = 0.05; keys are (code, n_steps, campaigns, seed).
CORNER_DECODE_SHA256 = {
    ("2,2,1;1,2,3,1", 4, 40, 3): {
        "classical": "6b4abe4fea5c3a0f075d2f6a4e970592539b0825974392e1c880ef28bb0deab9",
        "iterated-qva": "15ded00a511a5f165cb816f4e6b8096ce277c9e539c3206296dad0b3a43322ba",
        "probabilistic-qva": "2cebb13d602f4f0bc8b212ab10c99673bf81f5ec4ac8be23cf285e5852f302e0",
    },
    ("1,2,2;5,7", 5, 60, 5_000_000_000): {
        "classical": "b7719948dd9328ca5e78c097f7cb7fe0607f50e2ad11d2aa7ff1493397175a1c",
        "iterated-qva": "2c33945ab4dbbceb644b84ca31c05d483891269aed6f3f9863c40cbc67e3f8ab",
        "probabilistic-qva": "3904c7a32acd46694e3e42d8b42f34133dcceb029387c036f5bfe1309eddd2b4",
    },
    # all 600 blocks in one sampling chunk (at most 1024 rows of 16 paths),
    # computed by the integer-tick sampler that looked them up 511 at a time
    ("1,2,2;5,7", 4, 600, 19): {
        "classical": "5d79967081a520bf638246465cbfd2f1eacd5e2056dda75faedc9f92c4ce032c",
        "iterated-qva": "b5ffa29024d19b24e13b08b3d0cd4f13ae26c4e54a3fd7edddfe630bea02241a",
        "probabilistic-qva": "e5d6a66fcc854ba822f9325e4b919d6d51837423aebb20f7041a08e4d44584e6",
    },
}


class TestDecode:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_DECODE_SHA256))
    @pytest.mark.parametrize("corner", sorted(CORNER_DECODE_SHA256))
    def test_campaign_corners_match_golden_digest(self, tmp_path, corner, mode):
        code, n_steps, campaigns, seed = corner
        doc = {"code": code, "mode": mode, "n_steps": n_steps, "epsilon": 0.05,
               "campaigns": campaigns, "seed": seed}
        cfg = resolve_config(parse(["decode", "--config", config_file(tmp_path, doc)]))
        digest = hashlib.sha256(
            json.dumps(list(run_decode_campaign(cfg)), sort_keys=True).encode()
        ).hexdigest()
        assert digest == CORNER_DECODE_SHA256[corner][mode]

    @pytest.mark.parametrize("mode", sorted(GOLDEN_DECODE_SHA256))
    def test_fixed_seed_campaign_matches_golden_digest(self, tmp_path, mode):
        doc = {"mode": mode, "n_steps": 6, "epsilon": 0.05, "campaigns": 100, "seed": 11}
        cfg = resolve_config(parse(["decode", "--config", config_file(tmp_path, doc)]))
        digests = [
            hashlib.sha256(
                json.dumps(list(run_decode_campaign(cfg)), sort_keys=True).encode()
            ).hexdigest()
            for _ in range(2)
        ]
        assert digests == [GOLDEN_DECODE_SHA256[mode]] * 2

    def test_classical_noiseless_campaign_is_error_free(self, tmp_path):
        cfg = resolve_config(parse(["decode", "--epsilon", "0", "--n-steps", "4", "--seed", "3"]))
        results, summary = run_decode_campaign(cfg)
        assert summary["block_error_rate"] == 0.0
        assert len(results) == cfg.campaigns

    def test_record_results_reproduce_byte_exactly(self, tmp_path):
        path = config_file(tmp_path, {"mode": "probabilistic-qva", "campaigns": 25})
        cfg = resolve_config(parse(["decode", "--config", path, "--seed", "11"]))
        first = json.dumps(run_decode_campaign(cfg)[0], sort_keys=True)
        second = json.dumps(run_decode_campaign(cfg)[0], sort_keys=True)
        assert first == second

    def test_record_file_shape(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        argv = ["decode", "--epsilon", "0", "--n-steps", "3", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        record = json.loads(out.read_text())
        assert record["config"]["seed"] == 2
        assert record["config"]["mode"] == "classical"
        assert record["summary"]["blocks"] == 100
        assert {"block", "seed", "flips", "truth", "decoded", "correct"} <= set(record["results"][0])
        assert "rate=" in capsys.readouterr().out

    def test_record_goes_to_stdout_without_out(self, tmp_path, capsys):
        config = config_file(tmp_path, {"campaigns": 5})
        assert main(["decode", "--config", config, "--n-steps", "3", "--seed", "2"]) == 0
        record = json.loads(capsys.readouterr().out)  # the record alone, no summary line
        assert record["config"]["out"] is None and record["config"]["seed"] == 2
        assert len(record["results"]) == record["summary"]["blocks"] == 5

    def test_iterated_mode_noiseless_five_hundred_blocks(self, tmp_path):
        path = config_file(
            tmp_path, {"mode": "iterated-qva", "campaigns": 500, "iterations": 3, "trials": 7}
        )
        cfg = resolve_config(parse(["decode", "--config", path, "--epsilon", "0", "--seed", "0"]))
        _results, summary = run_decode_campaign(cfg)
        assert summary["block_error_rate"] <= 0.05
        # exhausted schedules are counted, never fatal
        assert summary["decode_failures"] <= summary["block_errors"]

    def test_record_alone_reproduces_itself(self, tmp_path):
        out = tmp_path / "record.json"
        argv = [
            "decode", "--epsilon", "0.1", "--n-steps", "5", "--seed", "9", "--out", str(out)
        ]
        assert main(argv) == 0
        record = json.loads(out.read_text())
        # rebuild the config from nothing but the persisted record
        from qviterbi.cli import ExperimentConfig

        echoed = dict(record["config"])
        echoed["n_range"] = tuple(echoed["n_range"])
        cfg = ExperimentConfig(**echoed)
        results, summary = run_decode_campaign(cfg)
        assert json.dumps(results, sort_keys=True) == json.dumps(record["results"], sort_keys=True)
        assert summary == record["summary"]

    def test_probabilistic_mode_smoke(self, tmp_path):
        path = config_file(tmp_path, {"mode": "probabilistic-qva", "campaigns": 30})
        cfg = resolve_config(parse(["decode", "--config", path, "--seed", "1"]))
        results, summary = run_decode_campaign(cfg)
        assert summary["decode_failures"] == 0
        assert summary["block_error_rate"] <= 0.3
        assert all(r["decoded"] is not None for r in results)

    def test_probabilistic_campaign_csv(self, tmp_path, capsys):
        config = config_file(tmp_path, {"mode": "probabilistic-qva", "campaigns": 12})
        out = tmp_path / "campaign.csv"
        assert main(["decode", "--config", config, "--seed", "4", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "campaign_id,seed,r,mode,mode_count,correct"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "4-0"
        assert int(first[2]) == 55  # required trials at four steps
        assert first[5] in ("0", "1")

    def test_classical_campaign_matches_brute_force_oracle(self, tmp_path):
        # block-error decisions of the DP decoder and the enumeration oracle
        # are identical, so the campaign error rates agree exactly
        from qviterbi.convcode import CODE_5_7, split_blocks
        from qviterbi.viterbi import brute_force_decode

        cfg = resolve_config(
            parse(["decode", "--epsilon", "0.05", "--n-steps", "8", "--seed", "6"])
        )
        results, summary = run_decode_campaign(cfg)
        h = CODE_5_7.to_hmm(0.05)
        oracle_errors = 0
        for row in results:
            received = row["received"].replace(" ", "")
            oracle = brute_force_decode(h, split_blocks(received, 2))
            oracle_errors += int(oracle.message != row["truth"])
        assert oracle_errors / len(results) == summary["block_error_rate"]


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        assert main(["verify", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[PASS]") == 8
        assert "8/8 checks passed" in out

    def test_fault_injected_diffusion_detected(self, capsys, monkeypatch):
        healthy = qva_module.diffuse

        def broken(v):
            return -healthy(v)

        monkeypatch.setattr(qva_module, "diffuse", broken)
        assert main(["verify", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] diffusion-row-form" in out

    @pytest.mark.parametrize(
        "name, owner, attr, fault",
        [
            # the DP decoder reports one bit error more than the oracle
            ("decoder-oracle-equivalence", cli, "viterbi_decode",
             lambda healthy: lambda h, blocks: healthy(h, blocks)._replace(
                 metric=healthy(h, blocks).metric + 1)),
            ("step-block-unitarity", circuits, "step_blocks",
             lambda healthy: lambda *args: 1.01 * healthy(*args)),
            ("circuit-vs-block", circuits, "step_circuit_00",
             lambda healthy: lambda omega: healthy(omega + 0.01)),
        ],
    )
    def test_fault_injected_check_fails(self, capsys, monkeypatch, name, owner, attr, fault):
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        assert main(["verify", "--seed", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"[FAIL] {name} ") for line in lines), lines

    def test_other_code_skips_instead_of_passing(self, capsys):
        assert main(["verify", "--code", "1,2,3;13,17", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "[PASS] exponent-multiset-n4" in out
        assert out.count("[SKIP]") == 2 and "skipped:" not in out
        assert out.endswith("6/6 checks passed, 2 skipped\n")

    def test_chain_over_qubit_guard_skips(self, capsys):
        # state_bits = 7: even the N = 1 chain needs 14 qubits, over the 12-qubit guard
        assert main(["verify", "--code", "1,2,7;247,371", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "[SKIP] chain-vs-path" in out and "N = 1 chain needs 14 qubits" in out
        assert out.endswith("5/5 checks passed, 3 skipped\n")

    def test_chain_checked_at_the_longest_frame_that_fits(self, capsys):
        # state_bits = 5: the N = 2 chain needs 15 qubits, the N = 1 chain 10
        assert main(["verify", "--code", "1,2,5;53,75", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] chain-vs-path" in out
        assert out.endswith("6/6 checks passed, 2 skipped\n")

    def test_wide_input_code_finishes(self, capsys):
        # k = 3: random instances keep 2^(k N) brute-force paths small
        assert main(["verify", "--code", "3,3,1;1,2,3,2,3,1,3,1,2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] decoder-oracle-equivalence" in out
        assert out.endswith("6/6 checks passed, 2 skipped\n")

    def test_constraint_length_seven_code(self, capsys):
        # the standard (171,133) code: 64 states, checked block by block
        assert main(["verify", "--code", "1,2,6;171,133", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] step-block-unitarity" in out and "[PASS] chain-vs-path" in out
        assert out.endswith("6/6 checks passed, 2 skipped\n")

    def test_wide_output_code_samples_received_words(self, capsys):
        # 2^16 received words at N = 2; all 2^8 blocks and N = 1 words are still checked
        assert main(["verify", "--code", "1,8,1;3,3,3,3,3,3,3,3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] step-block-unitarity (tol=1e-10): all receive blocks unitary\n" in out
        assert "[PASS] chain-vs-path" in out and ", 256 of 2^16 words at N = 2\n" in out
        assert out.endswith("6/6 checks passed, 2 skipped\n")

    def test_step_blocks_sampled_beyond_256(self):
        code = ConvCode.from_spec("1,9,1;" + ",".join(["3"] * 9))
        assert cli._check_block_unitarity(code, 5, 1e-10) == (
            True, "256 of 2^9 receive blocks unitary"
        )

    def test_checked_words_are_all_words_or_a_seeded_sample(self):
        assert cli._checked_words(8, [5, 7]) == ([format(v, "08b") for v in range(256)], "")
        words, note = cli._checked_words(9, [5, 7])
        assert note == "256 of 2^9" and len(set(words)) == 256 and words == sorted(words)
        assert all(len(w) == 9 and set(w) <= {"0", "1"} for w in words)
        assert cli._checked_words(9, [5, 7]) == (words, note) != cli._checked_words(9, [6, 7])

    def test_step_block_stack_over_guard_skips(self, capsys, monkeypatch):
        # K = 10: the (512, 512, 512) stack would be 2 GiB; a full verify is too slow here
        checks = [c for c in cli.VERIFY_CHECKS if c[0] == "step-block-unitarity"]
        monkeypatch.setattr(cli, "VERIFY_CHECKS", checks)
        assert main(["verify", "--code", "1,2,9;1001,1777", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[SKIP] step-block-unitarity (tol=1e-10): 512^3 step-block entries")
        assert out.endswith("0/0 checks passed, 1 skipped\n")

    def test_code_without_a_trellis_skips_its_checks(self, capsys):
        assert main(["verify", "--code", "1,2,40;1,20000000000000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] decoder-oracle-equivalence (tol=exact): 1099511627776 x 2 x 2^2 Hmm" in out
        assert "[SKIP] exponent-multiset-n4 (tol=exact): 1099511627776 x 2 trellis edges" in out
        assert out.endswith("2/2 checks passed, 6 skipped\n")

    def test_hmm_checks_of_a_wide_output_code_skip(self, capsys):
        # 2^24 receive blocks: the Hmm would hold 2 x 2 x 2^24 entries
        assert main(["verify", "--code", "1,24,1;" + ",".join(["3"] * 24), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for name in ("decoder-oracle-equivalence", "exponent-multiset-n4"):
            assert f"[SKIP] {name} (tol=exact): 2 x 2 x 2^24 Hmm entries exceeds" in out
        assert "[PASS] step-block-unitarity" in out and "[PASS] chain-vs-path" in out
        assert out.endswith("4/4 checks passed, 4 skipped\n")

    def test_multiset_check_skips_before_building_the_path_space(self, monkeypatch):
        built = []
        monkeypatch.setattr(qva_module, "build_path_space", lambda *args: built.append(args))
        code = ConvCode.from_spec("1,24,1;" + ",".join(["3"] * 24))
        with pytest.raises(SizeLimitError, match=r"2 x 2 x 2\^24 Hmm entries"):
            cli._check_multiset(code, 5, 0.0)
        assert built == []

    def test_multiset_check_builds_no_codeword_table(self, monkeypatch, capsys):
        # its guards are the F^4 path count and the trellis, with no F^4 table filled
        tables = []
        monkeypatch.setattr(qva_module, "codeword_table", lambda *args: tables.append(args))
        assert main(["verify", "--code", "5,1,1;2,1,1,1,1"]) == 0
        assert main(["verify", "--code", "7,1,1;2,1,1,1,1,1,1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] exponent-multiset-n4" in out
        assert "[SKIP] exponent-multiset-n4 (tol=exact): 128^4 paths exceeds the size guard\n" in out
        assert tables == []

    def test_checks_list_tolerances(self, capsys):
        main(["verify", "--seed", "5"])
        out = capsys.readouterr().out
        assert "(tol=1e-10)" in out and "(tol=1e-12)" in out and "(tol=exact)" in out


class TestCircuit:
    def test_match_and_matrix_dumps(self, tmp_path, capsys):
        prefix = tmp_path / "step"
        assert main(["circuit", "--omega", "0.9", "--out", str(prefix)]) == 0
        assert "match=yes" in capsys.readouterr().out
        circuit_csv = (tmp_path / "step.circuit.csv").read_text()
        block_csv = (tmp_path / "step.block.csv").read_text()
        assert circuit_csv == block_csv
        assert len(circuit_csv.strip().split("\n")) == 16
        first_cell = circuit_csv.split(",", 2)
        assert first_cell[0].startswith('"')

    def test_non_default_code_rejected(self, capsys):
        assert main(["circuit", "--code", "1,2,1;1,3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "bad config: the gate-level circuit is defined for code 1,2,2;5,7\n"

    def test_other_spelling_of_the_code_accepted(self, capsys):
        assert main(["circuit", "--code", "1,2,2;05,07"]) == 0
        assert "match=yes" in capsys.readouterr().out


class TestReferenceFixture:
    def test_fixture_is_versioned_and_complete(self):
        reference = load_reference()
        assert reference["version"] == 1
        assert len(reference["rows"]) == 8
        assert {row["n_steps"] for row in reference["rows"]} == set(range(3, 11))
        point = reference["point_value"]
        assert point["omega"] == 0.68 and point["prob_top"] == 0.673
