"""The three convres benchmark workloads and the measured pass they share.

Each workload is a single process with one closed-loop client. Its inputs
come from `synth.generate_corpus` seeded by the command line; convres sees
only the generated notes. Why each workload exists is written in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from convres import checkpoint, synth, synthbench, training
from convres.encoder import EncoderConfig
from convres.model import ModelSpec

MINIBATCH = 50
LR = 0.005
PAPER_ENCODER = EncoderConfig(windows=(3, 4, 5), filters_per_window=100, embedding_dim=300)


@dataclass(frozen=True)
class Workload:
    name: str
    synth_config: Callable[[int], synth.SynthConfig]
    models: tuple[tuple[str, int], ...]
    encoder: EncoderConfig
    max_len: int
    n_train: int
    n_heldout: int
    epochs: int
    predict_model: int  # index into `models` served by the single-note client
    val_is_heldout: bool  # validate on the held-out notes (as synthbench does) or split 10%
    oracle: bool  # compute the Bayes-oracle AUC of the held-out notes
    setups: int  # set-up repeats; setup_s is their median
    rounds: int  # repeats of the whole fixed work in an untraced run
    ckpt_trips: int  # load -> save round trips per model and round, after the first save
    check_notes: int  # held-out notes compared between the loaded and in-memory model
    min_requests: int  # p90 needs at least 10 samples beyond it


def paper_synth_config(seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        n_labels=16,
        vocab_size=5000,
        pair_weights=synth.default_pair_weights(16),
        unary=synth.default_unary(16),
        keywords_per_label=15,
        doc_len=(400, 600),
        noise_rate=0.8,
        seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-bench",
            synth_config=synthbench.benchmark_synth_config,
            models=(("logistic", 1), ("residual", 4), ("plain", 8)),
            encoder=synthbench.BENCH_ENCODER,
            max_len=synthbench.BENCH_MAX_LEN,
            n_train=1000,
            n_heldout=synthbench.N_VAL,
            epochs=2,
            predict_model=1,
            val_is_heldout=True,
            oracle=True,
            setups=2,
            rounds=3,
            ckpt_trips=2,
            check_notes=64,
            min_requests=110,
        ),
        Workload(
            name="paper-notes",
            synth_config=paper_synth_config,
            models=(("residual", 4),),
            encoder=PAPER_ENCODER,
            max_len=600,
            n_train=60,
            n_heldout=128,  # half a predict_batch chunk: a full one peaks near 4 GB RSS
            epochs=1,
            predict_model=0,
            val_is_heldout=False,
            oracle=False,
            setups=2,
            rounds=2,
            ckpt_trips=1,
            check_notes=8,
            min_requests=110,
        ),
        Workload(
            name="crbm-exact",
            synth_config=synthbench.benchmark_synth_config,
            models=(("crbm", 1),),
            encoder=synthbench.BENCH_ENCODER,
            max_len=synthbench.BENCH_MAX_LEN,
            n_train=50,
            n_heldout=64,
            epochs=2,
            predict_model=0,
            val_is_heldout=False,
            oracle=True,
            setups=3,
            rounds=3,
            ckpt_trips=8,
            check_notes=8,
            min_requests=110,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at sizes small enough for the self-test."""
    return replace(
        w,
        n_train=min(w.n_train, 40),
        n_heldout=min(w.n_heldout, 24),
        epochs=1,
        setups=1,
        rounds=2,
        ckpt_trips=2,
        check_notes=4,
        min_requests=20,
    )


class Ops:
    """Attempted and failed operations; a failure is reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failed operation counts and the run goes on
            self.failed += 1
            print(f"FAILED {what}: {type(e).__name__}: {e}", file=sys.stderr)
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {what}", file=sys.stderr)
        return ok


@dataclass
class Inputs:
    train: list[dict]
    heldout: list[dict]
    oracle_auc: float | None

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.train + self.heldout).encode()).hexdigest()


def set_up(w: Workload, seed: int) -> Inputs:
    """Everything before the first timed call: the corpus and its oracle AUC."""
    cfg = w.synth_config(seed)
    docs = synth.generate_corpus(cfg, w.n_train + w.n_heldout)
    train_docs, heldout = docs[: w.n_train], docs[w.n_train :]
    oracle_auc = synthbench.oracle_macro_auc(cfg, heldout) if w.oracle else None
    return Inputs(train_docs, heldout, oracle_auc)


@dataclass
class PassResult:
    train_rates: list[float] = field(default_factory=list)  # one per round
    eval_rates: list[float] = field(default_factory=list)  # one per round
    latencies_ms: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    aucs: list[float] = field(default_factory=list)  # per model, first round
    epochs: int = 0  # per round
    steps: int = 0  # per round
    ckpt_bytes: int = 0  # per round
    digest: str = ""
    wall_s: float = 0.0


def _timed(ops: Ops, what: str, fn, *args, **kwargs):
    t0 = perf_counter()
    out = ops.run(what, fn, *args, **kwargs)
    return out, perf_counter() - t0


def _marginals_ok(P) -> bool:
    return P is not None and bool(np.all(np.isfinite(P)) and np.all((P >= 0.0) & (P <= 1.0)))


def _optimizer_steps(m) -> int:
    """Minibatch updates made: the encoder's Adam steps, plus the CRBM stage's."""
    steps = m.embedding.weights.step
    if m.spec.model_type == "crbm":
        steps += m.head.W.step
    return steps


@dataclass
class _Round:
    trained: int = 0  # notes x epochs
    train_s: float = 0.0
    evaluated: int = 0
    eval_s: float = 0.0
    digest: object = field(default_factory=hashlib.sha256)


def measured_pass(
    w: Workload, seed: int, data: Inputs, ops: Ops, workdir: Path, rounds: int,
    predict_seconds: float | None,
) -> PassResult:
    """Train, evaluate, checkpoint and serve every model, `rounds` times over.

    The host's CPU speed drifts by tens of percent within seconds, so each
    round repeats the whole fixed work and interleaves a burst of predict
    requests; rates are medians over rounds. With `predict_seconds` the
    client's bursts add up to that long (and at least `min_requests`);
    without it, to exactly `min_requests` requests.
    """
    t_pass = perf_counter()
    res = PassResult()
    digests = set()
    for r in range(rounds):
        rnd = _Round()
        served = None
        for index, (model_type, n_layers) in enumerate(w.models):
            m = _one_model(w, seed, data, ops, workdir, model_type, n_layers, res, rnd,
                           first_round=r == 0)
            if index == w.predict_model:
                served = m
        if rnd.train_s > 0:
            res.train_rates.append(rnd.trained / rnd.train_s)
        if rnd.eval_s > 0:
            res.eval_rates.append(rnd.evaluated / rnd.eval_s)
        if served is not None:
            n = -(-w.min_requests // rounds)
            burst = predict_seconds / rounds if predict_seconds is not None else None
            res.latencies_ms += _closed_loop(w, data.heldout, served, ops, n, burst)
        digests.add(rnd.digest.hexdigest())
    ops.check("every round gives the same digest", len(digests) == 1)
    res.digest = min(digests)
    res.wall_s = perf_counter() - t_pass
    return res


def _one_model(w, seed, data, ops, workdir, model_type, n_layers, res, rnd, first_round):
    """Train, check, evaluate and round-trip one model; return it (None if training failed)."""
    tag = f"{model_type}-{n_layers}"
    n_fit = w.n_train if w.val_is_heldout else w.n_train - math.ceil(0.1 * w.n_train)
    stages = 2 if model_type == "crbm" else 1
    spec = ModelSpec(model_type=model_type, encoder=w.encoder, max_len=w.max_len,
                     n_layers=n_layers)
    # patience == epochs: early stopping can never cut the fixed work short
    cfg = training.TrainConfig(lr=LR, minibatch=MINIBATCH, patience=w.epochs,
                               max_epochs=w.epochs, seed=seed)
    val = data.heldout if w.val_is_heldout else None
    result, dt = _timed(ops, f"train {tag}", training.train, data.train, spec, cfg, val_docs=val)
    if result is None:
        return None
    m = result.model
    rnd.trained += n_fit * len(result.history)
    rnd.train_s += dt
    steps = _optimizer_steps(m)
    ops.check(f"{tag} epochs", len(result.history) == stages * w.epochs)
    ops.check(f"{tag} steps", steps == stages * w.epochs * math.ceil(n_fit / MINIBATCH))
    ops.check(f"{tag} losses finite", all(
        math.isfinite(h.train_loss) and math.isfinite(h.val_loss) for h in result.history))
    for h in result.history:
        rnd.digest.update(json.dumps(h.history_line(), separators=(",", ":")).encode() + b"\n")

    report, dt = _timed(ops, f"evaluate {tag}", training.evaluate, m, data.heldout)
    if report is not None:
        rnd.evaluated += len(data.heldout)
        rnd.eval_s += dt
        if first_round:
            res.aucs.append(report["macro_auc"])
        if data.oracle_auc is not None:
            ops.check(f"{tag} AUC {report['macro_auc']:.4f} <= oracle {data.oracle_auc:.4f}",
                      report["macro_auc"] <= data.oracle_auc)

    check_docs = training.prepare_docs(data.heldout[: w.check_notes], m.vocab, m.labels,
                                       w.max_len)
    P_mem = ops.run(f"predict {tag}", m.predict_batch, check_docs)
    ops.check(f"{tag} marginals finite and in [0, 1]", _marginals_ok(P_mem))

    # save, then `ckpt_trips` times load the last file and save what was loaded
    path = workdir / f"{tag}.json"
    _, dt = _timed(ops, f"save {tag}", checkpoint.save_checkpoint, m, path)
    res.save_s.append(dt)
    first = path.read_bytes() if path.exists() else b""
    loaded = None
    for _ in range(w.ckpt_trips):
        loaded, dt = _timed(ops, f"load {tag}", checkpoint.load_checkpoint, path)
        res.load_s.append(dt)
        if loaded is None:
            break
        _, dt = _timed(ops, f"save loaded {tag}", checkpoint.save_checkpoint, loaded, path)
        res.save_s.append(dt)
        ops.check(f"{tag} save -> load -> save is byte-identical",
                  first != b"" and path.read_bytes() == first)
    path.unlink(missing_ok=True)
    if loaded is not None:
        P_load = ops.run(f"predict loaded {tag}", loaded.predict_batch, check_docs)
        ops.check(f"{tag} loaded predictions equal in-memory ones",
                  P_mem is not None and P_load is not None and np.array_equal(P_mem, P_load))
    rnd.digest.update(first)
    if first_round:
        res.epochs += len(result.history)
        res.steps += steps
        res.ckpt_bytes += len(first)
    return m


def _closed_loop(
    w: Workload, notes, m, ops: Ops, n_min: int, seconds: float | None
) -> list[float]:
    """One client: send the next single-note request when the previous returns."""

    def request(doc):
        batch = training.prepare_docs([doc], m.vocab, m.labels, w.max_len)
        P = m.predict_batch(batch)
        if not _marginals_ok(P):
            raise ValueError("marginals not finite or outside [0, 1]")
        return P

    latencies = []
    deadline = perf_counter() + seconds if seconds is not None else None
    while len(latencies) < n_min or (deadline is not None and perf_counter() < deadline):
        doc = notes[len(latencies) % len(notes)]
        t0 = perf_counter()
        ops.run("predict request", request, doc)
        latencies.append((perf_counter() - t0) * 1e3)
    return latencies


def end_to_end(setup_s: list[float], p: PassResult, ops: Ops, peak_rss_mb: float) -> dict:
    deciles = statistics.quantiles(p.latencies_ms, n=10) if len(p.latencies_ms) > 1 else [0.0] * 9
    return {
        "setup_s": statistics.median(setup_s),
        "train_docs_per_s": statistics.median(p.train_rates) if p.train_rates else 0.0,
        "eval_docs_per_s": statistics.median(p.eval_rates) if p.eval_rates else 0.0,
        "predict_ms_p50": statistics.median(p.latencies_ms) if p.latencies_ms else 0.0,
        "predict_ms_p90": deciles[8],
        "ckpt_save_s": statistics.median(p.save_s) if p.save_s else 0.0,
        "ckpt_load_s": statistics.median(p.load_s) if p.load_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "macro_auc": statistics.fmean(p.aucs) if p.aucs else 0.0,
        "ok_ratio": 1.0 - ops.failed / max(ops.attempted, 1),
    }
