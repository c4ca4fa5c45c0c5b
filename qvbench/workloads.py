"""The four benchmark workloads.

Each workload has a setup (input generation from the seed, done before any
timing) and a run (one repetition: the library calls being measured plus the
checks of their outputs).  Every workload stresses a different layer; see
README.md for why each one exists and which metric each layer should move.

A run returns a RepResult.  Its digests must be identical across repetitions
of one seed; the runner turns that into checks of its own.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

CODE_SPEC = "1,2,2;5,7"

# Acceptance-suite tolerances for the reference table (criterion 02).
OMEGA_TOL = 0.03
PROB_TOL = 0.02
DRIFT_TOL = 1e-9
CHAIN_TOL = 1e-10

# Fixed phase unit of deep-run; sweeping at N=18 would need GBs.
DEEP_OMEGA = 0.2
CHAIN_OMEGA = 0.68
CHANNEL_EPSILON = 0.05

SIZES = {
    "table": {"full": (3, 12), "tiny": (3, 5)},
    "deep-run": {"full": (14, 16, 18), "tiny": (6, 8)},
    # (frame length N, blocks, blocks checked against brute force)
    "decode-campaign": {"full": (10, 500, 20), "tiny": (6, 20, 4)},
    # (frame length N, received words)
    "verify-chain": {"full": (5, 3), "tiny": (2, 2)},
}

DECODE_MODES = ("classical", "iterated-qva", "probabilistic-qva")


@dataclass
class RepResult:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _run_cli(m, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = m.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# table: the (5,7) reference table through the CLI; sweep_omega does the work


def setup_table(m, seed: int, size: str, scratch: Path):
    lo, hi = SIZES["table"][size]
    config = scratch / f"table-config-{size}.json"
    config.write_text(json.dumps({"n_range": [lo, hi], "seed": seed}))
    reference = m.cli.load_reference()
    rows = {row["n_steps"]: row for row in reference["rows"]}
    return SimpleNamespace(argv=["table", "--config", str(config)], n_range=(lo, hi), rows=rows)


def run_table(m, inp) -> RepResult:
    out = RepResult()
    code, text = _run_cli(m, inp.argv)
    out.check("table-exit-0", code == 0, f"exit {code}")
    lines = text.strip().split("\n")
    body = [line.split(",") for line in lines[1:]]
    lo, hi = inp.n_range
    expected_rows = sum(2 if n in inp.rows else 1 for n in range(lo, hi + 1))
    out.check("table-row-count", len(body) == expected_rows, f"{len(body)} rows")
    for cells in body:
        n, source, omega_star, prob = int(cells[0]), cells[2], float(cells[3]), float(cells[4])
        if source != "reference":
            continue
        ref = inp.rows[n]
        ok = abs(omega_star - ref["omega_star"]) <= OMEGA_TOL and prob >= ref["prob_top"] - PROB_TOL
        out.check(f"table-reference-n{n}", ok, f"omega*={omega_star} prob={prob}")
    out.digests["table-csv"] = _sha(text)
    return out


# ---------------------------------------------------------------------------
# deep-run: one long statevector through hundreds of run_qva iterations


def setup_deep_run(m, seed: int, size: str, scratch: Path):
    code = m.convcode.ConvCode.from_spec(CODE_SPEC)
    frames = []
    for n in SIZES["deep-run"][size]:
        rng = np.random.default_rng([seed, n])
        message = "".join(rng.choice(["0", "1"], n * code.k))
        channel = m.convcode.BscChannel(CHANNEL_EPSILON, seed=[seed, n, 1])
        received, _ = channel.transmit(code.encode(message))
        frames.append((n, received, m.qva.formula_iterations(code, n)))
    return SimpleNamespace(code=code, frames=frames, hmm=code.to_hmm(CHANNEL_EPSILON))


def run_deep_run(m, inp) -> RepResult:
    out = RepResult()
    parts = []
    for n, received, iterations in inp.frames:
        ps = m.qva.build_path_space(inp.code, received)
        res = m.qva.run_qva(ps, m.qva.QvaParams(omega=DEEP_OMEGA, iterations=iterations))
        drift = abs(1.0 - float(np.sum(np.abs(res.statevector) ** 2)))
        out.check(f"deep-norm-drift-n{n}", drift <= DRIFT_TOL, f"drift {drift:.2e}")
        vit = m.viterbi.viterbi_decode(inp.hmm, m.convcode.split_blocks(received, inp.code.n))
        best = int(ps.errors[ps.viterbi_index])
        out.check(f"deep-viterbi-index-n{n}", best == vit.metric, f"{best} vs {vit.metric}")
        parts += [repr(res.prob_top), res.top_index]
    out.digests["deep-run"] = _sha(*parts)
    return out


# ---------------------------------------------------------------------------
# decode-campaign: the same seeded blocks through each decode mode


def setup_decode(m, seed: int, size: str, scratch: Path):
    n, blocks, sample = SIZES["decode-campaign"][size]
    cfgs = {}
    for mode in DECODE_MODES:
        path = scratch / f"decode-{mode}-{size}.json"
        path.write_text(json.dumps({
            "mode": mode, "n_steps": n, "epsilon": CHANNEL_EPSILON,
            "campaigns": blocks, "seed": seed,
        }))
        args = m.cli.build_parser().parse_args(["decode", "--config", str(path)])
        cfgs[mode] = m.cli.resolve_config(args)
    code = m.convcode.ConvCode.from_spec(CODE_SPEC)
    rng = np.random.default_rng([seed, 3])
    return SimpleNamespace(
        cfgs=cfgs,
        code=code,
        hmm=code.to_hmm(CHANNEL_EPSILON),
        sample=sorted(int(b) for b in rng.choice(blocks, size=sample, replace=False)),
    )


def run_decode(m, inp) -> RepResult:
    out = RepResult()
    for mode, cfg in inp.cfgs.items():
        t0 = time.perf_counter()
        rows, summary = m.cli.run_decode_campaign(cfg)
        seconds = time.perf_counter() - t0
        out.stats[mode] = {
            "seconds": seconds,
            "blocks": summary["blocks"],
            "block_errors": summary["block_errors"],
            "decode_failures": summary["decode_failures"],
        }
        out.check(f"decode-{mode}-blocks", summary["blocks"] == len(rows) == cfg.campaigns)
        out.digests[f"decode-{mode}"] = _sha(json.dumps(rows, sort_keys=True))
        if mode == "classical":
            for b in inp.sample:
                blocks = rows[b]["received"].split(" ")
                oracle = m.viterbi.brute_force_decode(inp.hmm, blocks)
                out.check(
                    f"decode-classical-brute-force-b{b}",
                    oracle.message == rows[b]["decoded"],
                    f"{oracle.message} vs {rows[b]['decoded']}",
                )
    return out


# ---------------------------------------------------------------------------
# verify-chain: the verify command, then dense 12-qubit chains


def setup_verify(m, seed: int, size: str, scratch: Path):
    n, words = SIZES["verify-chain"][size]
    code = m.convcode.ConvCode.from_spec(CODE_SPEC)
    rng = np.random.default_rng([seed, 4])
    received = ["".join(rng.choice(["0", "1"], n * code.n)) for _ in range(words)]
    return SimpleNamespace(code=code, received=received, argv=["verify", "--seed", str(seed)])


def _path_reference(m, code, received: str, omega: float) -> np.ndarray:
    """Chain amplitudes built from the path space: exp(i omega e) / sqrt(L) per path."""
    ps = m.qva.build_path_space(code, received)
    n = ps.n_steps
    reference = np.zeros(1 << (code.state_bits * (n + 1)), dtype=complex)
    for i in range(ps.L):
        index = 0
        for t, s in enumerate(ps.path(i)):
            index |= s << (code.state_bits * (n - t))
        reference[index] = np.exp(1j * omega * ps.errors[i]) / math.sqrt(ps.L)
    return reference


def run_verify(m, inp) -> RepResult:
    out = RepResult()
    code, text = _run_cli(m, inp.argv)
    out.check("verify-exit-0", code == 0, text.strip().split("\n")[-1] if text else "")
    parts = [text]
    for word in inp.received:
        state = m.circuits.chain_state(inp.code, word, CHAIN_OMEGA)
        worst = float(np.max(np.abs(state - _path_reference(m, inp.code, word, CHAIN_OMEGA))))
        out.check(f"chain-vs-path-{word}", worst <= CHAIN_TOL, f"worst {worst:.2e}")
        parts.append(state.tobytes())
    out.digests["verify-chain"] = _sha(*parts)
    return out


WORKLOADS = {
    "table": (setup_table, run_table),
    "deep-run": (setup_deep_run, run_deep_run),
    "decode-campaign": (setup_decode, run_decode),
    "verify-chain": (setup_verify, run_verify),
}
