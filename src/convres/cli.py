"""Command-line interface: train, evaluate, predict, encode, gensynth.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EncoderConfig
from .exceptions import ConfigError, ConvresError
from .metrics import top_k
from .model import ModelSpec
from .synth import (
    SynthConfig,
    default_pair_weights,
    default_unary,
    generate_corpus,
    write_corpus,
    write_ground_truth,
)
from .text import load_corpus, write_label_file
from .training import TrainConfig, evaluate, prepare_docs, train


def _add_train_parser(sub) -> None:
    p = sub.add_parser("train", help="train a classifier on a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, choices=["logistic", "plain", "residual", "crbm"])
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--hidden", default=None,
                   help="comma-separated hidden sizes (stacked heads) or the CRBM hidden count")
    p.add_argument("--embeddings", default=None, help="optional pretrained vector file")
    p.add_argument("--max-len", type=int, default=600)
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--batch", type=int, default=50)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None)


def _parse_hidden(arg: str | None, layers: int) -> tuple[int, ...] | None:
    if arg is None:
        return None
    parts = [int(x) for x in arg.split(",") if x]
    if len(parts) == 1 and layers > 1:
        parts = parts * layers
    return tuple(parts)


def _cmd_train(args) -> int:
    # flag-value problems are usage errors (exit 2), unlike runtime failures
    try:
        crbm = args.model == "crbm"
        hidden = _parse_hidden(args.hidden, 1 if crbm else args.layers)
        if crbm and hidden is not None and len(hidden) != 1:
            raise ConfigError(f"the CRBM takes one hidden count, got --hidden {args.hidden!r}")
        spec = ModelSpec(
            model_type=args.model,
            encoder=EncoderConfig(),
            max_len=args.max_len,
            n_layers=args.layers,
            hidden_sizes=None if crbm else hidden,
            crbm_hidden=hidden[0] if crbm and hidden else None,
            embeddings_path=args.embeddings,
        )
        cfg = TrainConfig(
            lr=args.lr,
            minibatch=args.batch,
            val_fraction=args.val_frac,
            patience=args.patience,
            max_epochs=args.epochs,
            seed=args.seed,
        )
    except (ConfigError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    for flag, path in (("--out", args.out), ("--history", args.history)):
        if path is None:
            continue
        if Path(path).is_dir():
            raise ConfigError(f"{flag} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"{flag} {path}: directory {Path(path).parent} does not exist")
    docs = load_corpus(args.corpus)
    result = train(docs, spec, cfg, log=lambda msg: print(msg, flush=True))
    print(f"trainable parameters: {result.model.param_count()}")
    print(f"head parameters: {result.model.head.param_count()}")
    print(f"best epoch: {result.best_epoch} (val loss {result.best_val_loss:.6f})")
    save_checkpoint(result.model, args.out)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            for report in result.history:
                fh.write(json.dumps(report.history_line(), separators=(",", ":")) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    docs = load_corpus(args.corpus)
    report = evaluate(model, docs)
    text = json.dumps(report, separators=(",", ":"))
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    # predict never reads labels, so notes carrying unknown ones are scored too
    docs = [{"text": doc["text"], "labels": []} for doc in load_corpus(args.corpus)]
    notes = prepare_docs(docs, model.vocab, model.labels, model.spec.max_len)
    P = model.predict_batch(notes)
    with open(args.out, "w", encoding="utf-8") as fh:
        for scores, top in zip(P, top_k(P, args.k)):
            entry = {"top": [{"label": model.labels[l], "score": float(scores[l])} for l in top]}
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return 0


def _cmd_encode(args) -> int:
    model = load_checkpoint(args.checkpoint)
    docs = load_corpus(args.corpus)
    notes = prepare_docs(docs, model.vocab, model.labels, model.spec.max_len)
    x, _ = model.encode_docs(notes, train_mode=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        for truth, vec in zip(notes.Y, x):
            entry = {
                "labels": [model.labels[l] for l in np.flatnonzero(truth)],
                "x": [float(v) for v in vec],
            }
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return 0


def _is_real(v) -> bool:
    """A JSON number that converts to a finite float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _load_pair_file(path: str, n_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """{"pairs": [[i, j, w], ...], "unary": [...]}; anything malformed is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, nested too deep
            raise ConfigError(f"{path}: not a JSON pairs file ({e})")
    pairs = obj.get("pairs", []) if isinstance(obj, dict) else None
    if not isinstance(pairs, list) or not all(
        isinstance(e, list) and len(e) == 3 and _is_real(e[2])
        and all(type(i) is int and 0 <= i < n_labels for i in e[:2]) for e in pairs
    ):
        raise ConfigError(
            f"{path}: expected pairs [i, j, w] of labels 0..{n_labels - 1} and finite weights"
        )
    pair = np.zeros((n_labels, n_labels))
    for i, j, w in pairs:
        pair[i, j] = pair[j, i] = float(w)
    if "unary" not in obj:
        return pair, default_unary(n_labels)
    if not (isinstance(obj["unary"], list) and all(map(_is_real, obj["unary"]))):
        raise ConfigError(f"{path}: 'unary' must be a list of finite numbers")
    return pair, np.array(obj["unary"], dtype=np.float64)


def _cmd_gensynth(args) -> int:
    try:
        if args.labels < 1 or args.docs < 1:
            raise ConfigError(f"--labels and --docs must be >= 1, got {args.labels}, {args.docs}")
        if args.pairs:
            pair, unary = _load_pair_file(args.pairs, args.labels)
        else:
            pair, unary = default_pair_weights(args.labels), default_unary(args.labels)
        cfg = SynthConfig(
            n_labels=args.labels,
            vocab_size=args.vocab,
            pair_weights=pair,
            unary=unary,
            keywords_per_label=max(1, args.vocab // (2 * args.labels)),
            doc_len=(15, 30),
            noise_rate=args.noise,
            seed=args.seed,
        )
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    truth, labels = _gensynth_files(out)
    docs = generate_corpus(cfg, args.docs)
    write_corpus(out, docs)
    write_ground_truth(truth, cfg)
    write_label_file(labels, cfg.label_names())
    print(f"wrote {len(docs)} documents to {out}")
    return 0


def _gensynth_files(out: Path) -> tuple[Path, Path]:
    """The ground truth and the label vocabulary that gensynth writes beside its corpus."""
    return out.with_suffix(".truth.json"), out.with_suffix(".labels")


def _check_paths(args) -> None:
    """Refuse an output path that resolves to an input of the command or to another output."""
    inputs = [(f"--{name}", getattr(args, name, None))
              for name in ("corpus", "checkpoint", "embeddings", "pairs")]
    outputs = [("--out", args.out), ("--history", getattr(args, "history", None))]
    if args.command == "gensynth":
        outputs += [(f"the derived file {path}", path) for path in _gensynth_files(Path(args.out))]
    seen = {Path(path).resolve(): (flag, path) for flag, path in inputs if path}
    for flag, path in outputs:
        if not path:
            continue
        key = Path(path).resolve()
        if key in seen:
            first, first_path = seen[key]
            raise ConfigError(f"{first} and {flag} name the same file: {first_path}")
        seen[key] = (flag, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convres",
        description="Multi-label text classification with convolutional residual models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train_parser(sub)

    p = sub.add_parser("evaluate", help="compute ranking metrics on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("predict", help="emit top-k labels per document")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("encode", help="export encoded sentence vectors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gensynth", help="generate a synthetic correlated-label corpus")
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", default=None, help="JSON file with pair weights and unary terms")
    p.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "encode": _cmd_encode,
    "gensynth": _cmd_gensynth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", 1) < 1:
        parser.error("--k must be >= 1")
    try:
        _check_paths(args)
    except (ConfigError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ConvresError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
