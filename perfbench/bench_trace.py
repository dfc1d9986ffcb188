"""Spans and counts for the traced run, recorded around convres's public functions.

The wrappers replace each function under the name its caller looks up
(`convres.training.tokenize`, `convres.model.encode_batch`, the head
classes' `forward`, ...), so a traced run times the real `train()` path.
Nothing under `src/` changes: `Tracer.installed()` patches module and class
attributes and puts the originals back when it exits.

A span is (name, start, end, parent index); every span of one run shares the
tracer's run id. Spans stay in memory and are written as JSON Lines by
`Tracer.write` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from convres import checkpoint, crbm, heads, model, numeric, synth, synthbench, training

TRAIN = "training.train"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.encoder_flop = 0
        self.positions_computed = 0
        self.positions_valid = 0
        self._stack: list[int] = []

    def _timed(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _encoder_span_name(self, args, kwargs) -> str:
        """Name an `encode_batch` call and add its work to the encoder counts.

        Per filter bank of window t: positions p = max(valid_len, t) - t + 1
        for each note, the batch computes B * max(p) positions, and each
        position costs 2 * t * k * F flops (k embedding dims, F filters).
        """
        ids, lens, table, banks = args[:4]
        train_mode = args[4] if len(args) > 4 else kwargs.get("train_mode", False)
        B = ids.shape[0]
        for bank in banks:
            n_pos = np.maximum(lens, bank.window) - bank.window + 1
            p_max = int(n_pos.max())
            self.encoder_flop += 2 * B * p_max * bank.window * table.dim * bank.n_filters
            self.positions_computed += B * p_max
            self.positions_valid += int(n_pos.sum())
        return "encoder.forward_train" if train_mode else "encoder.forward_eval"

    def _targets(self):
        """(owner, attribute, span name or None for a count only)."""
        named = [
            (synth, "generate_corpus", "synth.generate"),
            (synthbench, "oracle_marginals_for_corpus", "synth.oracle"),
            (training, "tokenize", "text.tokenize"),
            (training, "build_vocab", "text.prepare"),
            (training, "encode_doc", "text.prepare"),
            (model, "encode_batch", self._encoder_span_name),
            (training, "encode_batch_backward", "encoder.backward"),
            (training.crbm_ops, "predict_marginals", "crbm.marginals"),
            (training.crbm_ops, "crbm_cd_gradient", "crbm.cd"),
            (training, "adam_step", "numeric.adam"),
            (numeric.SeededRng, "shuffle", "numeric.shuffle"),
            (numeric.SeededRng, "raw", None),
            (training, "train", TRAIN),
            (training, "evaluate", "training.evaluate"),
            (training, "cross_entropy", "training.cross_entropy"),
            (model.Model, "predict_batch", "model.predict_batch"),
            (training, "metric_report", "metrics.report"),
            (checkpoint, "save_checkpoint", "checkpoint.save"),
            (checkpoint, "load_checkpoint", "checkpoint.load"),
        ]
        for cls in (heads.LogisticHead, heads.ResidualHead, heads.PlainHead):
            named.append((cls, "forward", "heads.forward"))
            named.append((cls, "backward", "heads.backward"))
        # training and model import the crbm module under one name
        assert model.crbm_ops is training.crbm_ops is crbm
        return named

    @contextlib.contextmanager
    def installed(self):
        """Record spans while inside the block; restore every original after."""
        saved = []
        try:
            for owner, attr, name in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if name is None:
                    wrapped = self._counted(original, f"{owner.__name__}.{attr}")
                elif callable(name):
                    wrapped = self._timed(original, name)
                else:
                    wrapped = self._timed(original, lambda a, k, n=name: n)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "name": name, "start": start, "end": end,
                         "parent": parent},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span; self time excludes direct children."""
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        in_train = [False] * len(self.spans)
        train_self = validate = predict_outside = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = end - start
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += d
                in_train[i] = in_train[parent] or self.spans[parent][0] == TRAIN
            if name in ("model.predict_batch", "training.cross_entropy") and in_train[i]:
                validate += d
            if name == "model.predict_batch" and not in_train[i]:
                predict_outside += d
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == TRAIN:
                train_self += end - start - child_time[i]
        forward_s = total["encoder.forward_train"] + total["encoder.forward_eval"]
        gflop = self.encoder_flop / 1e9
        return {
            "synth.generate_s": total["synth.generate"],
            "synth.oracle_s": total["synth.oracle"],
            "text.tokenize_s": total["text.tokenize"],
            "text.tokenize_calls": calls["text.tokenize"],
            "text.prepare_s": total["text.prepare"],
            "encoder.forward_train_s": total["encoder.forward_train"],
            "encoder.forward_eval_s": total["encoder.forward_eval"],
            "encoder.backward_s": total["encoder.backward"],
            "encoder.gflop": gflop,
            "encoder.gflops": gflop / forward_s if forward_s > 0 else 0.0,
            "encoder.valid_pos_frac": (
                self.positions_valid / self.positions_computed if self.positions_computed else 0.0
            ),
            "heads.forward_s": total["heads.forward"],
            "heads.backward_s": total["heads.backward"],
            "crbm.marginals_s": total["crbm.marginals"],
            "crbm.marginals_calls": calls["crbm.marginals"],
            "crbm.cd_s": total["crbm.cd"],
            "crbm.cd_calls": calls["crbm.cd"],
            "numeric.adam_s": total["numeric.adam"],
            "numeric.adam_calls": calls["numeric.adam"],
            "numeric.shuffle_s": total["numeric.shuffle"],
            "numeric.rng_calls": self.counts["SeededRng.raw"],
            "training.self_s": train_self,
            "training.validate_s": validate,
            "model.predict_s": predict_outside,
            "metrics.report_s": total["metrics.report"],
            "checkpoint.save_s": total["checkpoint.save"],
            "checkpoint.load_s": total["checkpoint.load"],
        }
