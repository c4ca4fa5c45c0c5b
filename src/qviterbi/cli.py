"""Command-line experiment harness.

Subcommands: table (reference-table reproduction), sweep (phase-unit sweep
curve), decode (Monte Carlo decode campaigns), verify (cross-module checks),
circuit (gate-level versus block-matrix comparison).  A run is described by
a JSON config document; flags override config fields which override
defaults.  Exit codes: 0 success, 1 check failure, 2 bad config.

A decode campaign draws each block from its own seeds, as rows of seed
tables, and hands the whole campaign to the library's row functions
(viterbi.trellis_decode, qva.adaptive_decode_rows and qva.sample_modes),
which split their own arrays into chunks (see run_decode_campaign).

CSV output uses 12 significant digits, '.' decimals, and LF line endings so
identical configs reproduce byte-identical files across platforms.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import __version__, circuits, qva, streams, trials
from .convcode import (
    BscChannel,
    CODE_5_7,
    ConvCode,
    bsc_weights,
    check_epsilon,
    pack_blocks,
    split_blocks,
    transmit_rows,
    unpack_blocks,
)
from .errors import SizeLimitError, check_paths, check_size
from .viterbi import brute_force_decode, path_metric_multiset, trellis_decode, viterbi_decode

DECODE_MODES = ("classical", "iterated-qva", "probabilistic-qva")

# verify goes over every received word (or block) of a length while it has at
# most this many, and over this many drawn from the seed beyond: chain-vs-path
# on all 2^16 words of a rate-1/8 code at N = 2 took 11 s
CHECK_WORDS = 256

# Command -> its help line; COMMANDS maps each to its function
COMMAND_HELP = {
    "table": "reproduce the reference operating-point table as CSV",
    "sweep": "sweep the phase unit and emit the probability curve as CSV",
    "decode": "run a Monte Carlo decode campaign and persist a JSON record",
    "verify": "run the cross-module verification checks",
    "circuit": "compare the gate-level step circuit against the block matrix",
}
EVERY = tuple(COMMAND_HELP)

# Config field -> (default, JSON types it accepts, flag help or None for a
# config-only field, the commands that read it; the others refuse it, given
# by flag or non-null config key).  table takes a seed so one config can seed
# every command.  A null config key is not given: the field keeps its default.
# n_range, with no types here, is checked where table reads it.  A field with
# a default takes its default's type, so JSON 0 for epsilon becomes 0.0.
FIELDS = {
    "code": ("1,2,2;5,7", (str,), "code spec string 'k,n,m;g11,...' (octal masks)", EVERY),
    "n_steps": (4, (int,), "decode frame length in blocks", ("table", "sweep", "decode")),
    "epsilon": (0.1, (int, float), "channel crossover probability", ("decode",)),
    "mode": (None, (str,), None, ("decode",)),
    "omega": (None, (int, float), "phase unit in radians", ("circuit",)),
    "iterations": (None, (int,), "amplification iterations", ("sweep", "decode")),
    "trials": (None, (int,), "measurement trials per block", ("decode",)),
    "seed": (0, (int,), "master seed", EVERY),
    "grid": (0.005, (int, float), "sweep grid step", ("table", "sweep")),
    "out": (None, (str,), "output path (CSV or JSON record)",
            ("table", "sweep", "decode", "circuit")),
    "campaigns": (100, (int,), None, ("decode",)),
    "n_range": (None, (), None, ("table",)),
    "max_errors": (2, (int,), None, ("decode",)),
}

# decode fields that only some modes read -> those modes; the others refuse them
MODE_READERS = {
    "iterations": ("iterated-qva",),
    "trials": ("iterated-qva", "probabilistic-qva"),
    "max_errors": ("iterated-qva",),
}


class ConfigError(Exception):
    """Configuration that cannot be run; maps to exit code 2."""


# A resolved run: the command, then every FIELDS entry in order
ExperimentConfig = NamedTuple("ExperimentConfig", [(key, object) for key in ("command", *FIELDS)])


def load_reference() -> dict:
    """Versioned fixture with the reference operating points."""
    text = resources.files("qviterbi").joinpath("data/reference_table.json").read_text()
    return json.loads(text)


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {key: default for key, (default, *_) in FIELDS.items()}
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - set(FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update((key, value) for key, value in doc.items() if value is not None)
    given = set()
    for key, (default, types, _, readers) in FIELDS.items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
        if value is not None or doc.get(key) is not None:
            if args.command not in readers:
                raise ConfigError(f"{key} is for {'/'.join(readers)} only, not {args.command!r}")
            given.add(key)
        value = merged[key]
        # type(), not isinstance(): JSON true/false must not pass as an integer
        if types and value is not None and type(value) not in types:
            raise ConfigError(f"{key} must be {types[-1].__name__}, got {json.dumps(value)}")

    mode = merged["mode"] or DECODE_MODES[0]
    if mode not in DECODE_MODES:
        raise ConfigError(f"mode {mode!r} not valid for 'decode'; expected one of {DECODE_MODES}")
    try:
        code = ConvCode.from_spec(merged["code"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, low in (("n_steps", 1), ("campaigns", 1), ("iterations", 1), ("trials", 1),
                     ("seed", 0), ("max_errors", 0)):
        if merged[key] is not None and merged[key] < low:
            raise ConfigError(f"{key} must be " + ("at least 1" if low else "non-negative"))
    if args.command == "decode":
        for key, modes in MODE_READERS.items():
            if key in given and mode not in modes:
                raise ConfigError(f"{key} is for decode mode {'/'.join(modes)} only, not {mode!r}")
    n_steps = merged["n_steps"]
    if mode == "iterated-qva" and merged["max_errors"] > n_steps * code.n:
        raise ConfigError("max_errors exceeds the frame's bit count (n_steps * n)")
    try:
        check_epsilon(merged["epsilon"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 < merged["grid"] < math.pi:
        raise ConfigError("grid must lie in (0, pi)")
    if merged["omega"] is not None and not 0.0 <= merged["omega"] <= math.pi:
        raise ConfigError("omega must lie in [0, pi]")
    # size guards on integers, before any per-frame work: the F^N paths of a
    # sweep or QVA decode frame, and the received bits of a decode campaign
    if args.command == "sweep" or mode != "classical":
        check_paths(code.fanout, n_steps)
    if args.command == "decode":
        check_size(merged["campaigns"] * n_steps * code.n,
                   f"{merged['campaigns']} x {n_steps} x {code.n} received bits")
    n_range = (n_steps, n_steps)
    if args.command == "table":
        if "n_steps" not in given:  # n_steps, by flag or config key, is the range [N, N]
            raw = [3, 10] if merged["n_range"] is None else merged["n_range"]
            if not (isinstance(raw, list) and [type(x) for x in raw] == [int, int]):
                raise ConfigError("n_range must be a [low, high] pair of integers")
            n_range = tuple(raw)
        if n_range[0] <= n_range[1] and (n_range[0] < 3 or n_range[1] > 12):
            raise ConfigError("table n_range must lie within [3, 12]")
    # after the range checks: float() of a huge JSON integer overflows
    for key, (default, *_) in FIELDS.items():
        if default is not None:
            merged[key] = type(default)(merged[key])
    return ExperimentConfig(command=args.command, **{**merged, "mode": mode, "n_range": n_range})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 canonicalizes negative zero
    return str(value)


def _write_csv(stream, header, rows) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(cell) for cell in row) + "\n")


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _out_stream(cfg: ExperimentConfig):
    return _open_out(cfg.out) if cfg.out else nullcontext(sys.stdout)


def _decode_epsilon(epsilon: float) -> float:
    # It orders the iterated-qva schedule and weights the probabilistic-qva draws
    # (classical ignores it); both need one inside (0, 0.5), so noiseless runs use 0.1.
    return epsilon if 0.0 < epsilon < 0.5 else 0.1


# ---------------------------------------------------------------------------
# table


def cmd_table(cfg: ExperimentConfig) -> int:
    code = ConvCode.from_spec(cfg.code)
    reference = load_reference()
    ref_rows = (
        {row["n_steps"]: row for row in reference["rows"]}
        if reference.get("code") == code.to_spec()
        else {}
    )
    lo, hi = cfg.n_range
    rows = []
    for n in range(lo, hi + 1):
        ps = qva.build_path_space(code, "0" * (n * code.n))
        ref = ref_rows.get(n)
        plans = [("reference", ref["iterations"])] if ref is not None else []
        plans.append(("formula", qva.formula_iterations(code, n)))
        # each distinct count is swept once, in ascending order, resuming the one
        # before; only its optimum is kept
        optima, sweep = {}, None
        for iterations in sorted({iterations for _, iterations in plans}):
            sweep = qva.sweep_omega(ps, iterations, cfg.grid, resume=sweep)
            optima[iterations] = (sweep.omega_star, sweep.prob_star)
        for source, iterations in plans:
            refs = (ref["omega_star"], ref["prob_top"]) if source == "reference" else (None, None)
            rows.append((n, iterations, source, *optima[iterations], *refs))
    header = ["n_steps", "iterations", "source", "omega_star", "prob_top",
              "ref_omega_star", "ref_prob_top"]
    with _out_stream(cfg) as stream:
        _write_csv(stream, header, rows)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(cfg: ExperimentConfig) -> int:
    code = ConvCode.from_spec(cfg.code)
    ps = qva.build_path_space(code, "0" * (cfg.n_steps * code.n))
    iterations = cfg.iterations or qva.formula_iterations(code, cfg.n_steps)
    sweep = qva.sweep_omega(ps, iterations, cfg.grid)
    header = ["omega", "iterations", "prob_top", "top_index"]
    rows = [
        (float(w), iterations, float(p), int(t))
        for w, p, t in zip(sweep.omegas, sweep.probs, sweep.top_indices)
    ]
    with _out_stream(cfg) as stream:
        _write_csv(stream, header, rows)
    if cfg.out:
        record = {
            "artifact_version": __version__,
            "seed": cfg.seed,
            "params": {
                "code": cfg.code,
                "n_steps": cfg.n_steps,
                "iterations": iterations,
                "grid": cfg.grid,
            },
            # 12 significant digits, as in the CSV; a full repr would change
            # with the summation order of the class mean
            "omega_star": float(_fmt(sweep.omega_star)),
            "prob_star": float(_fmt(sweep.prob_star)),
            "exponent_multiset": {
                str(k): v for k, v in sorted(ps.exponent_multiset().items())
            },
        }
        print(json.dumps(record, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# decode


def _bit_strings(bits: np.ndarray, block: int = 0) -> list[str]:
    """The rows of a (rows, width) array of 0/1 values as strings of '0' and '1',
    with a space between blocks of `block` bits when block > 0: one ASCII
    decode of a character array with a newline ending each row."""
    rows, width = bits.shape
    block = block or width
    chars = np.full((rows, width // block, block + 1), ord(" "), dtype=np.uint8)
    chars[:, :, :block] = (bits + ord("0")).reshape(rows, width // block, block)
    chars[:, -1, block] = ord("\n")
    return chars.tobytes().decode("ascii").splitlines()


def run_decode_campaign(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Run the campaign described by cfg; deterministic in (config, seed).

    Block b draws from np.random.default_rng([seed, b, stream]): stream 0
    for its message, 1 for its channel and 2 for its measurements ([2, c]
    for class c of an iterated-qva schedule).  streams.bits and
    streams.uniforms compute those draws for the rows of one seed table per
    stream as arrays, so results are identical however blocks are grouped.
    Messages, encoding and channel run over the whole campaign as arrays,
    and so do the record strings and decoding: classical is one
    trellis_decode call, iterated-qva one qva.adaptive_decode_rows call,
    which amplifies every pending block at once per schedule entry, and
    probabilistic-qva one qva.sample_modes pass per row group of
    qva.path_error_groups, with the path weights of convcode.bsc_weights
    shared by every block.  Each block's path errors are computed once.
    Those functions bound their own working sets (viterbi.CHUNK_CELLS,
    errors.SIZE_LIMIT).
    """
    code = ConvCode.from_spec(cfg.code)
    eps_dec = _decode_epsilon(cfg.epsilon)

    def stream_table(*stream):
        return streams.seed_table([cfg.seed], np.arange(cfg.campaigns), stream)

    if cfg.mode == "iterated-qva":
        schedule = qva.default_schedule(
            code,
            cfg.n_steps,
            eps_dec,
            max_errors=cfg.max_errors,
            trials=cfg.trials or 7,
            iterations=cfg.iterations,
        )
        tables = [stream_table(2, cls) for cls in range(len(schedule))]

    messages = streams.bits(stream_table(0), cfg.n_steps * code.k)
    codewords = unpack_blocks(code.encode_rows(pack_blocks(messages, code.k)), code.n)
    uniforms = streams.uniforms(stream_table(1), codewords.shape[1])
    received, flips = transmit_rows(codewords, cfg.epsilon, uniforms)
    ys = pack_blocks(received, code.n)
    results = [
        {
            "block": block,
            "seed": [cfg.seed, block],
            "flips": n_flips,
            "received": word,
            "truth": truth,
        }
        for block, n_flips, word, truth in zip(
            range(cfg.campaigns), flips.tolist(), _bit_strings(received, code.n),
            _bit_strings(messages),
        )
    ]

    if cfg.mode == "classical":
        inputs = trellis_decode(code.trellis(), ys)[0]
        for row, decoded in zip(results, _bit_strings(unpack_blocks(inputs, code.k))):
            row["decoded"] = decoded
    elif cfg.mode == "iterated-qva":
        found = qva.adaptive_decode_rows(code, ys, schedule, tables)
        accepted = found[:, 3] == 1  # (entries, blocks): at most one entry accepts a block
        classes = np.where(accepted.any(axis=0), accepted.argmax(axis=0), -1)
        modes = found[classes, 0, np.arange(cfg.campaigns)]
        decoded = _bit_strings(unpack_blocks(qva.input_blocks(code, cfg.n_steps, modes), code.k))
        for row, cls, bits in zip(results, classes.tolist(), decoded):
            row["decoded"], row["accepted_class"] = (bits, cls) if cls >= 0 else (None, None)
    else:
        weights = bsc_weights(eps_dec, cfg.n_steps * code.n)
        weights = np.broadcast_to(weights, (cfg.campaigns, len(weights)))
        prob_r = cfg.trials or trials.required_trials(cfg.n_steps)
        seeds = stream_table(2)
        modes, mode_counts, _ = np.concatenate([
            qva.sample_modes(errors, weights[rows], seeds[rows], prob_r)
            for rows, errors in qva.path_error_groups(code, ys)
        ], axis=1)
        decoded = _bit_strings(unpack_blocks(qva.input_blocks(code, cfg.n_steps, modes), code.k))
        for row, bits, mode, count in zip(results, decoded, modes.tolist(), mode_counts.tolist()):
            row["decoded"], row["mode_index"], row["mode_count"] = bits, mode, count
    for row in results:
        row["correct"] = int(row["decoded"] == row["truth"])

    n_errors = sum(1 - row["correct"] for row in results)
    summary = {
        "blocks": cfg.campaigns,
        "block_errors": n_errors,
        "block_error_rate": n_errors / cfg.campaigns,
        "decode_failures": sum(row["decoded"] is None for row in results),
    }
    if cfg.mode == "probabilistic-qva":
        summary["trials_per_block"] = prob_r
    return results, summary


def cmd_decode(cfg: ExperimentConfig) -> int:
    csv = (cfg.out or "").endswith(".csv")
    if csv and cfg.mode != "probabilistic-qva":
        raise ConfigError(f"mode {cfg.mode!r} writes a JSON record, not CSV")
    started = time.perf_counter()
    results, summary = run_decode_campaign(cfg)
    if csv:
        # probabilistic-qva's flat campaign table instead of the full JSON record
        header = ["campaign_id", "seed", "r", "mode", "mode_count", "correct"]
        rows = [
            (
                row["block"],
                "-".join(str(s) for s in row["seed"]),
                summary["trials_per_block"],
                row["mode_index"],
                row["mode_count"],
                row["correct"],
            )
            for row in results
        ]
        with _open_out(cfg.out) as fh:
            _write_csv(fh, header, rows)
    else:
        record = {
            "artifact_version": __version__,
            "config": cfg._asdict(),
            "results": results,
            "summary": summary,
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
        with _out_stream(cfg) as stream:
            stream.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    if cfg.out:
        print(
            f"blocks={summary['blocks']} errors={summary['block_errors']} "
            f"rate={_fmt(summary['block_error_rate'])} failures={summary['decode_failures']}"
        )
    return 0


# ---------------------------------------------------------------------------
# verify


def _random_instance(code: ConvCode, seed) -> list[str]:
    rng = np.random.default_rng(seed)
    # brute force walks 2^(k N) paths; keep k N <= 8 where N >= 2 allows
    n = int(rng.integers(2, max(2, 8 // code.k) + 1))
    message = "".join(map(str, rng.integers(0, 2, n * code.k).tolist()))
    channel = BscChannel(0.1, seed=[*seed, 1])
    received, _ = channel.transmit(code.encode(message))
    return split_blocks(received, code.n)


def _checked_words(bits: int, seed) -> tuple[list[str], str]:
    """The bit strings of length `bits` a check goes over, and how they cover all 2^bits.

    Every one, in ascending order, while there are at most CHECK_WORDS, with
    an empty note; beyond that CHECK_WORDS distinct ones drawn from
    np.random.default_rng(seed), ascending, noted "CHECK_WORDS of 2^bits".
    """
    if 1 << bits <= CHECK_WORDS:
        return [format(value, f"0{bits}b") for value in range(1 << bits)], ""
    rng = np.random.default_rng(seed)
    drawn: set[str] = set()
    while len(drawn) < CHECK_WORDS:
        drawn.add("".join(map(str, rng.integers(0, 2, bits).tolist())))
    return sorted(drawn), f"{CHECK_WORDS} of 2^{bits}"


def _check_oracle_equivalence(code, seed, _tol) -> tuple[bool, str]:
    h = code.to_hmm(0.1)
    for c in range(40):
        blocks = _random_instance(code, [seed, c])
        a = viterbi_decode(h, blocks)
        b = brute_force_decode(h, blocks)
        if a.metric != b.metric or a.path != b.path:
            return False, f"mismatch on instance {c}: {a.metric} vs {b.metric}"
    return True, "40 random instances agree"


def _check_multiset(code, _seed, _tol) -> tuple[bool, str]:
    reference = load_reference()
    received = "0" * (4 * code.n)
    qva.codeword_table(code, 4)  # the path space's size guards, then to_hmm's, before any work
    if reference["code"] == code.to_spec():
        expected = {int(k): v for k, v in reference["exponent_multiset_n4"].items()}
    else:
        expected = dict(path_metric_multiset(code.to_hmm(0.1), split_blocks(received, code.n)))
    got = dict(qva.build_path_space(code, received).exponent_multiset())
    return got == expected, f"multiset {sorted(got.items())}"


def _check_diffusion_row(code, _seed, tol) -> tuple[bool, str]:
    length = 16
    row0 = np.array([qva.diffuse(basis)[0] for basis in np.eye(length, dtype=complex)])
    expected = np.full(length, 2.0 / length)
    expected[0] = -(length - 2) / length
    worst = float(np.max(np.abs(row0 - expected)))
    return worst <= tol, f"worst row deviation {worst:.2e}"


def _check_single_iteration(code, seed, tol) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for length in (4, 8, 16, 32):
        for _ in range(10):
            g = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, length))
            v = qva.amplify_phases(g, 1)
            worst = max(worst, abs(abs(v[0]) ** 2 - qva.single_iteration_prob(g, 0)))
    return worst <= tol, f"worst closed-form deviation {worst:.2e}"


def _check_block_unitarity(code, seed, tol) -> tuple[bool | None, str]:
    blocks, sampled = _checked_words(code.n, [seed, 7])
    for block in blocks:
        if not all(circuits.is_unitary(b, tol) for b in circuits.step_blocks(code, block, 0.68)):
            return False, f"step block for {block} not unitary"
    return True, f"{sampled or 'all'} receive blocks unitary"


def _only_5_7(code: ConvCode, subject: str) -> str | None:
    """Why `subject`, defined for the (5,7) code only, does not apply to code; None if it does."""
    return None if code == CODE_5_7 else f"{subject} is defined for code {CODE_5_7.to_spec()}"


def _check_circuit_vs_block(code, _seed, tol) -> tuple[bool | None, str]:
    if reason := _only_5_7(code, "the gate-level circuit"):
        return None, reason
    for w in (0.1, 0.68, 1.3, 2.2, 3.0):
        if not circuits.equal_up_to_global_phase(
            circuits.step_circuit_00(w), circuits.step_block(code, "00", w), tol
        ):
            return False, f"circuit differs from block at omega={w}"
    return True, "5 phase units agree"


def _check_chain_vs_path(code, seed, tol) -> tuple[bool | None, str]:
    # an N-step chain holds N + 1 state registers; check N = 1, 2 as far as they fit
    limit = circuits.CHAIN_QUBIT_LIMIT
    longest = min(2, limit // code.state_bits - 1)
    if longest < 1:
        return None, f"N = 1 chain needs {2 * code.state_bits} qubits, over the {limit}-qubit guard"
    worst, notes = 0.0, ""
    for n in range(1, longest + 1):
        words, sampled = _checked_words(n * code.n, [seed, 7, n])
        notes += f", {sampled} words at N = {n}" if sampled else ""
        for received in words:
            state = circuits.chain_state(code, received, 0.68)
            reference = circuits.path_reference(code, received, 0.68)
            worst = max(worst, float(np.max(np.abs(state - reference))))
    return worst <= tol, f"worst amplitude deviation {worst:.2e}{notes}"


def _check_point_value(code, _seed, tol) -> tuple[bool | None, str]:
    if reason := _only_5_7(code, "the reference point"):
        return None, reason
    point = load_reference()["point_value"]
    ps = qva.build_path_space(code, "0" * (point["n_steps"] * code.n))
    run = qva.run_qva(ps, qva.QvaParams(point["omega"], point["iterations"]))
    gap = abs(run.prob_top - point["prob_top"])
    return gap <= tol, f"prob_top={run.prob_top:.4f} reference={point['prob_top']}"


# (name, tolerance as printed, body(code, seed, tol)); "exact" passes tol = 0
VERIFY_CHECKS = [
    ("decoder-oracle-equivalence", "exact", _check_oracle_equivalence),
    ("exponent-multiset-n4", "exact", _check_multiset),
    ("diffusion-row-form", "1e-12", _check_diffusion_row),
    ("single-iteration-consistency", "1e-12", _check_single_iteration),
    ("step-block-unitarity", "1e-10", _check_block_unitarity),
    ("circuit-vs-block", "1e-10", _check_circuit_vs_block),
    ("chain-vs-path", "1e-10", _check_chain_vs_path),
    ("reference-point-value", "5e-3", _check_point_value),
]


def cmd_verify(cfg: ExperimentConfig) -> int:
    code = ConvCode.from_spec(cfg.code)
    statuses = []
    for name, tolerance, fn in VERIFY_CHECKS:
        try:
            ok, detail = fn(code, cfg.seed, 0.0 if tolerance == "exact" else float(tolerance))
        except SizeLimitError as exc:  # a check too big for this code does not apply to it
            ok, detail = None, str(exc)
        statuses.append("SKIP" if ok is None else "PASS" if ok else "FAIL")
        print(f"[{statuses[-1]}] {name} (tol={tolerance}): {detail}")
    passed, failed, skipped = (statuses.count(s) for s in ("PASS", "FAIL", "SKIP"))
    print(f"{passed}/{passed + failed} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# circuit


def _matrix_csv(path: str, matrix: np.ndarray) -> None:
    with _open_out(path) as fh:
        for row in matrix:
            cells = [f'"{z.real + 0.0:.12g},{z.imag + 0.0:.12g}"' for z in row]
            fh.write(",".join(cells) + "\n")


def cmd_circuit(cfg: ExperimentConfig) -> int:
    code = ConvCode.from_spec(cfg.code)
    if reason := _only_5_7(code, "the gate-level circuit"):
        raise ConfigError(reason)
    omega = cfg.omega if cfg.omega is not None else 0.68
    tolerance = next(tol for name, tol, _ in VERIFY_CHECKS if name == "circuit-vs-block")
    circuit = circuits.step_circuit_00(omega)
    block = circuits.step_block(code, "00", omega)
    match = circuits.equal_up_to_global_phase(circuit, block, float(tolerance))
    deviation = float(np.max(np.abs(circuit - block)))
    if cfg.out:
        _matrix_csv(f"{cfg.out}.circuit.csv", circuit)
        _matrix_csv(f"{cfg.out}.block.csv", block)
    print(
        f"omega={_fmt(omega)} match={'yes' if match else 'no'} "
        f"max_entry_deviation={deviation:.3e} (tol={tolerance}, up to global phase)"
    )
    return 0 if match else 1


COMMANDS = {
    "table": cmd_table,
    "sweep": cmd_sweep,
    "decode": cmd_decode,
    "verify": cmd_verify,
    "circuit": cmd_circuit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qviterbi",
        description="Experiment harness for amplitude-amplified trellis decoding.",
    )
    # the shared flags are declared once: every add_argument call builds a
    # HelpFormatter, which probes the terminal size
    flags = argparse.ArgumentParser(add_help=False)
    for key, (_, types, flag_help, _) in FIELDS.items():
        if flag_help:
            flag = "--" + key.replace("_", "-")
            flags.add_argument(flag, dest=key, type=types[-1], help=flag_help)
    flags.add_argument("--config", help="JSON config file; flags override its fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMAND_HELP.items():
        sub.add_parser(name, help=help_text, parents=[flags])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, SizeLimitError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
