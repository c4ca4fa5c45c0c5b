"""Command-line experiment harness.

Subcommands: table (reference-table reproduction), sweep (phase-unit sweep
curve), decode (Monte Carlo decode campaigns), verify (cross-module checks),
circuit (gate-level versus block-matrix comparison).  A run is described by
a JSON config document; flags override config fields which override
defaults.  Exit codes: 0 success, 1 check failure, 2 bad config.

A decode campaign draws each block from its own seeds, as rows of seed
tables, and decodes the blocks in chunks, as arrays with a leading block
axis (see run_decode_campaign).

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
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__, circuits, qva, streams, trials
from .convcode import (
    BscChannel,
    CODE_5_7,
    ConvCode,
    pack_blocks,
    split_blocks,
    transmit_rows,
    unpack_blocks,
)
from .errors import SizeLimitError
from .viterbi import brute_force_decode, path_metric_multiset, trellis_decode, viterbi_decode

DECODE_MODES = ("classical", "iterated-qva", "probabilistic-qva")

# Paths a decode chunk holds at once: a campaign decodes
# max(1, CHUNK_PATHS // F^N) blocks per array pass, so its working set does
# not grow with the number of blocks.
CHUNK_PATHS = 1 << 14

COMMAND_MODES = {
    "table": ("table-reproduction",),
    "sweep": ("omega-sweep",),
    "decode": DECODE_MODES,
    "verify": ("circuit-verify",),
    "circuit": ("circuit-verify",),
}

DEFAULTS = {
    "code": "1,2,2;5,7",
    "n_steps": 4,
    "epsilon": 0.1,
    "mode": None,
    "omega": None,
    "iterations": None,
    "trials": None,
    "seed": 0,
    "grid": 0.005,
    "out": None,
    "campaigns": 100,
    "n_range": None,
    "max_errors": 2,
}


# JSON types each config field accepts; null is accepted where the default is None.
FIELD_TYPES = {
    **dict.fromkeys(("n_steps", "iterations", "trials", "seed", "campaigns", "max_errors"), (int,)),
    **dict.fromkeys(("epsilon", "omega", "grid"), (int, float)),
    **dict.fromkeys(("code", "mode", "out"), (str,)),
}


class ConfigError(Exception):
    """Configuration that cannot be run; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    code: str
    n_steps: int
    epsilon: float
    mode: str
    omega: float | None
    iterations: int | None
    trials: int | None
    seed: int
    grid: float
    out: str | None
    campaigns: int
    n_range: tuple[int, int]
    max_errors: int


def load_reference() -> dict:
    """Versioned fixture with the reference operating points."""
    text = resources.files("qviterbi").joinpath("data/reference_table.json").read_text()
    return json.loads(text)


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key in FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, types in FIELD_TYPES.items():
        value = merged[key]
        # type(), not isinstance(): JSON true/false must not pass as an integer
        if type(value) not in types and not (value is None and DEFAULTS[key] is None):
            raise ConfigError(f"{key} must be {types[-1].__name__}, got {json.dumps(value)}")

    mode = merged["mode"] or COMMAND_MODES[args.command][0]
    if mode not in COMMAND_MODES[args.command]:
        raise ConfigError(
            f"mode {mode!r} not valid for {args.command!r}; "
            f"expected one of {COMMAND_MODES[args.command]}"
        )
    try:
        code = ConvCode.from_spec(merged["code"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if merged["n_steps"] < 1:
        raise ConfigError("n_steps must be at least 1")
    if not 0.0 <= merged["epsilon"] < 0.5:
        raise ConfigError("epsilon must lie in [0, 0.5)")
    if not 0.0 < merged["grid"] < math.pi:
        raise ConfigError("grid must lie in (0, pi)")
    if merged["campaigns"] < 1:
        raise ConfigError("campaigns must be at least 1")
    if merged["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    if merged["max_errors"] < 0:
        raise ConfigError("max_errors must be non-negative")
    if mode == "iterated-qva" and merged["max_errors"] > merged["n_steps"] * code.n:
        raise ConfigError("max_errors exceeds the frame's bit count (n_steps * n)")
    for key in ("iterations", "trials"):
        if merged[key] is not None and merged[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    if merged["omega"] is not None and not 0.0 <= merged["omega"] <= math.pi:
        raise ConfigError("omega must lie in [0, pi]")
    if args.command == "table":
        if args.n_steps is not None:
            n_range = (args.n_steps, args.n_steps)
        elif merged["n_range"] is not None:
            raw = merged["n_range"]
            if not (isinstance(raw, (list, tuple)) and [type(x) for x in raw] == [int, int]):
                raise ConfigError("n_range must be a [low, high] pair of integers")
            n_range = (int(raw[0]), int(raw[1]))
        else:
            n_range = (3, 10)
        if n_range[0] <= n_range[1] and (n_range[0] < 3 or n_range[1] > 12):
            raise ConfigError("table n_range must lie within [3, 12]")
    else:
        n_range = (merged["n_steps"], merged["n_steps"])

    return ExperimentConfig(
        command=args.command,
        code=merged["code"],
        n_steps=int(merged["n_steps"]),
        epsilon=float(merged["epsilon"]),
        mode=mode,
        omega=merged["omega"],
        iterations=merged["iterations"],
        trials=merged["trials"],
        seed=int(merged["seed"]),
        grid=float(merged["grid"]),
        out=merged["out"],
        campaigns=int(merged["campaigns"]),
        n_range=n_range,
        max_errors=int(merged["max_errors"]),
    )


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
    # Branch metrics are error counts, so any valid channel parameter gives
    # the same decodes; noiseless campaigns still need one inside (0, 0.5).
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
        plans = []
        ref = ref_rows.get(n)
        if ref is not None:
            plans.append(("reference", ref["iterations"], ref))
        plans.append(("formula", qva.formula_iterations(code, n), ref))
        for source, iterations, ref_row in plans:
            sweep = qva.sweep_omega(ps, iterations, cfg.grid)
            rows.append(
                (
                    n,
                    iterations,
                    source,
                    sweep.omega_star,
                    sweep.prob_star,
                    ref_row["omega_star"] if source == "reference" else None,
                    ref_row["prob_top"] if source == "reference" else None,
                )
            )
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


def run_decode_campaign(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Run the campaign described by cfg; deterministic in (config, seed).

    Block b draws from np.random.default_rng([seed, b, stream]): stream 0
    for its message, 1 for its channel and 2 for its measurements ([2, c]
    for class c of an iterated-qva schedule).  These generators come from
    one seed table per stream (see streams), so results are identical
    however blocks are grouped.  Messages, encoding and channel run over
    the whole campaign as arrays; decoding runs in chunks of
    max(1, CHUNK_PATHS // F^N) rows: one trellis Viterbi pass, or one
    path-error matrix with one amplification and one sampling pass per
    schedule entry, serves every block of a chunk.
    """
    code = ConvCode.from_spec(cfg.code)
    eps_dec = _decode_epsilon(cfg.epsilon)

    def stream_table(*stream):
        return streams.seed_table([cfg.seed], np.arange(cfg.campaigns), stream)

    # one generator for the whole campaign: each seed-table row overwrites its state
    gen = np.random.Generator(np.random.PCG64())
    prob_r = None
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
    elif cfg.mode == "probabilistic-qva":
        prob_r = cfg.trials or trials.required_trials(cfg.n_steps)
        draw_table = stream_table(2)

    message_bits = cfg.n_steps * code.k
    messages = np.empty((cfg.campaigns, message_bits), dtype=np.uint8)
    for row, rng in zip(messages, streams.generators(stream_table(0), gen)):
        row[:] = rng.integers(0, 2, message_bits)
    codewords = unpack_blocks(code.encode_rows(pack_blocks(messages, code.k)), code.n)
    channels = streams.generators(stream_table(1), gen)
    received, flips = transmit_rows(codewords, cfg.epsilon, channels)
    ys = pack_blocks(received, code.n)
    results = [
        {
            "block": block,
            "seed": [cfg.seed, block],
            "flips": n_flips,
            "received": " ".join(split_blocks(word.tobytes().decode("ascii"), code.n)),
            "truth": truth.tobytes().decode("ascii"),
        }
        for block, n_flips, word, truth in zip(
            range(cfg.campaigns), flips.tolist(), received + ord("0"), messages + ord("0")
        )
    ]

    chunk = max(1, CHUNK_PATHS // code.fanout**cfg.n_steps)
    for start in range(0, cfg.campaigns, chunk):
        stop = min(start + chunk, cfg.campaigns)
        rows = results[start:stop]
        if cfg.mode == "classical":
            inputs, _ = trellis_decode(code.trellis(), ys[start:stop])
            for row, steps in zip(rows, inputs.tolist()):
                row["decoded"] = "".join(format(u, f"0{code.k}b") for u in steps)
        elif cfg.mode == "iterated-qva":
            errors = qva.path_error_rows(code, ys[start:stop])
            chunk_tables = [table[start:stop] for table in tables]
            for row, attempts in zip(
                rows, qva.adaptive_decode_rows(errors, schedule, chunk_tables, gen)
            ):
                last = attempts[-1]
                accepted = last.accepted
                row["decoded"] = format(last.mode_index, f"0{message_bits}b") if accepted else None
                row["accepted_class"] = last.class_index if accepted else None
        else:
            errors = qva.path_error_rows(code, ys[start:stop])
            states = trials.amplitude_loaded_rows(errors, eps_dec, cfg.n_steps * code.n)
            counts = qva.sample_rows(
                np.abs(states) ** 2, streams.generators(draw_table[start:stop], gen), prob_r
            )
            for row, mode, mode_count in zip(
                rows, counts.argmax(axis=1).tolist(), counts.max(axis=1).tolist()
            ):
                row["decoded"] = format(mode, f"0{message_bits}b")
                row["mode_index"] = mode
                row["mode_count"] = mode_count
        for row in rows:
            row["correct"] = int(row["decoded"] == row["truth"])

    n_errors = sum(1 - row["correct"] for row in results)
    summary = {
        "blocks": cfg.campaigns,
        "block_errors": n_errors,
        "block_error_rate": n_errors / cfg.campaigns,
        "decode_failures": sum(row["decoded"] is None for row in results),
    }
    if prob_r is not None:
        summary["trials_per_block"] = prob_r
    return results, summary


def cmd_decode(cfg: ExperimentConfig) -> int:
    started = time.perf_counter()
    results, summary = run_decode_campaign(cfg)
    if cfg.out and cfg.out.endswith(".csv") and cfg.mode == "probabilistic-qva":
        # flat campaign table instead of the full JSON record
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
            "config": asdict(cfg),
            "results": results,
            "summary": summary,
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
        payload = json.dumps(record, sort_keys=True, indent=2) + "\n"
        if cfg.out:
            with _open_out(cfg.out) as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
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


def _check_oracle_equivalence(code, seed) -> tuple[bool, str]:
    h = code.to_hmm(0.1)
    for c in range(40):
        blocks = _random_instance(code, [seed, c])
        a = viterbi_decode(h, blocks)
        b = brute_force_decode(h, blocks)
        if a.metric != b.metric or a.path != b.path:
            return False, f"mismatch on instance {c}: {a.metric} vs {b.metric}"
    return True, "40 random instances agree"


def _check_multiset(code, _seed) -> tuple[bool, str]:
    reference = load_reference()
    received = "0" * (4 * code.n)
    got = dict(qva.build_path_space(code, received).exponent_multiset())
    if reference["code"] == code.to_spec():
        expected = {int(k): v for k, v in reference["exponent_multiset_n4"].items()}
    else:
        expected = dict(path_metric_multiset(code.to_hmm(0.1), split_blocks(received, code.n)))
    return got == expected, f"multiset {sorted(got.items())}"


def _check_diffusion_row(code, _seed) -> tuple[bool, str]:
    length = 16
    worst = 0.0
    for j in range(length):
        basis = np.zeros(length, dtype=complex)
        basis[j] = 1.0
        row0 = qva.diffuse(basis)[0]
        expected = -(length - 2) / length if j == 0 else 2.0 / length
        worst = max(worst, abs(row0 - expected))
    return worst <= 1e-12, f"worst row deviation {worst:.2e}"


def _check_single_iteration(code, seed) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for length in (4, 8, 16, 32):
        for _ in range(10):
            g = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, length))
            v = qva.amplify_phases(g, 1)
            worst = max(worst, abs(abs(v[0]) ** 2 - qva.single_iteration_prob(g, 0)))
    return worst <= 1e-12, f"worst closed-form deviation {worst:.2e}"


def _check_block_unitarity(code, _seed) -> tuple[bool, str]:
    for value in range(1 << code.n):
        block = format(value, f"0{code.n}b")
        if not all(map(circuits.is_unitary, circuits.step_blocks(code, block, 0.68))):
            return False, f"step block for {block} not unitary"
    return True, "all receive blocks unitary"


def _check_circuit_vs_block(code, _seed) -> tuple[bool | None, str]:
    if code != CODE_5_7:
        return None, "gate-level circuit is defined for the (5,7) code"
    for w in (0.1, 0.68, 1.3, 2.2, 3.0):
        if not circuits.equal_up_to_global_phase(
            circuits.step_circuit_00(w), circuits.step_block(code, "00", w)
        ):
            return False, f"circuit differs from block at omega={w}"
    return True, "5 phase units agree"


def _check_chain_vs_path(code, _seed) -> tuple[bool | None, str]:
    qubits, limit = 3 * code.state_bits, circuits.CHAIN_QUBIT_LIMIT
    if qubits > limit:
        return None, f"N = 2 chain needs {qubits} qubits, over the {limit}-qubit guard"
    worst = 0.0
    for n in (1, 2):
        for value in range(1 << (n * code.n)):
            received = format(value, f"0{n * code.n}b")
            state = circuits.chain_state(code, received, 0.68)
            reference = circuits.path_reference(code, received, 0.68)
            worst = max(worst, float(np.max(np.abs(state - reference))))
    return worst <= 1e-10, f"worst amplitude deviation {worst:.2e}"


def _check_point_value(code, _seed) -> tuple[bool | None, str]:
    if code != CODE_5_7:
        return None, "reference point is defined for the (5,7) code"
    point = load_reference()["point_value"]
    ps = qva.build_path_space(code, "0" * (point["n_steps"] * code.n))
    run = qva.run_qva(ps, qva.QvaParams(point["omega"], point["iterations"]))
    return (
        abs(run.prob_top - point["prob_top"]) <= 5e-3,
        f"prob_top={run.prob_top:.4f} reference={point['prob_top']}",
    )


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
        ok, detail = fn(code, cfg.seed)
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
    if code != CODE_5_7:
        print("bad config: the gate-level circuit is defined for code 1,2,2;5,7", file=sys.stderr)
        return 2
    omega = cfg.omega if cfg.omega is not None else 0.68
    circuit = circuits.step_circuit_00(omega)
    block = circuits.step_block(code, "00", omega)
    match = circuits.equal_up_to_global_phase(circuit, block)
    deviation = float(np.max(np.abs(circuit - block)))
    if cfg.out:
        _matrix_csv(f"{cfg.out}.circuit.csv", circuit)
        _matrix_csv(f"{cfg.out}.block.csv", block)
    print(
        f"omega={_fmt(omega)} match={'yes' if match else 'no'} "
        f"max_entry_deviation={deviation:.3e} (tol=1e-10, up to global phase)"
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
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "table": "reproduce the reference operating-point table as CSV",
        "sweep": "sweep the phase unit and emit the probability curve as CSV",
        "decode": "run a Monte Carlo decode campaign and persist a JSON record",
        "verify": "run the cross-module verification checks",
        "circuit": "compare the gate-level step circuit against the block matrix",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--code", help="code spec string 'k,n,m;g11,...' (octal masks)")
        sp.add_argument("--n-steps", dest="n_steps", type=int, help="decode frame length in blocks")
        sp.add_argument("--epsilon", type=float, help="channel crossover probability")
        sp.add_argument("--omega", type=float, help="phase unit in radians")
        sp.add_argument("--iterations", type=int, help="amplification iterations")
        sp.add_argument("--trials", type=int, help="measurement trials per block")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--grid", type=float, help="sweep grid step")
        sp.add_argument("--out", help="output path (CSV or JSON record)")
        sp.add_argument("--config", help="JSON config file; flags override its fields")
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
