#!/usr/bin/env python3
"""Print a sha256 digest of every output of one fixed CLI session.

Usage:
    python3 scripts/identity_digest.py OUT_DIR

Writes into OUT_DIR a small `gensynth` corpus, a two-note corpus whose
first note names a label twice, and a corpus of notes written to exercise
the tokenizer: clinical shorthand, doubled, leading and trailing joiners,
underscores, punctuation runs, digits and non-ASCII text, mixed with the
synthetic corpus' own tokens. Trains logistic, residual-2, plain-3 and crbm
models on the first, each with patience 1 and with patience 50, and runs
evaluate, predict and encode with every model on all three corpora. Then
generates a 16-label `gensynth` corpus, the label count of the benchmark's
CRBM, trains crbm models on it with patience 1 and 50, and runs evaluate,
predict and encode with each on it. Does the same on a 24-label corpus,
past the label counts at which `gensynth` enumerates the prior (16) and the
CRBM sums its marginals exactly (20), so Gibbs prior sampling and mean-field
prediction run too. Prints one `sha256  file` line per output file, file
names relative to OUT_DIR, and to stderr the name of the BLAS kernel that
produced them and its thread count: the core that numpy's bundled
scipy-openblas selected for this host (`OPENBLAS_CORETYPE` overrides it per
process) and the threads it runs (`OPENBLAS_NUM_THREADS` sets them), or
`unknown` under any other BLAS. Different kernels, and different thread
counts, may round differently, so compare digests made under the same core
and thread count.

The library is imported from the `src` of the checkout this script sits in,
so two checkouts can be compared output for output:

    diff <(OPENBLAS_NUM_THREADS=1 python3 old/scripts/identity_digest.py /tmp/a) \\
         <(OPENBLAS_NUM_THREADS=1 python3 new/scripts/identity_digest.py /tmp/b)
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from blas_core import blas_core, blas_threads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from convres.cli import main as convres  # noqa: E402

MODELS = (("logistic", 1), ("residual", 2), ("plain", 3), ("crbm", 1))
PATIENCES = (1, 50)
REPEATED = [
    {"text": "k00w000 k01w001 n00003 k00w002", "labels": ["label01", "label00", "label01"]},
    {"text": "k02w000 n00001 k03w001", "labels": ["label03"]},
]
TOKENIZER = [
    {"text": "Pt's hx: s/p x-ray, d/o k00w000-k01w002 a--b.", "labels": ["label00", "label01"]},
    {"text": "-k02w001 k02w003/ 'k03w000' k03w001_k03w002 __ ?!... (n00004)",
     "labels": ["label02", "label03"]},
    {"text": "İK01W000 x² 3-4mg k00w001\xa0k00w002\u2028k01w001 /-' 2024", "labels": ["label01"]},
]


def run(*argv: str) -> None:
    """One CLI command with its console output discarded; a failure stops the script."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = convres(list(argv))
    if rc != 0:
        raise SystemExit(f"convres {' '.join(argv)} exited {rc}")


def session(out: Path, train_corpus: Path, models, corpora: dict, prefix: str = "") -> list[Path]:
    """Train each (model, layers) with every patience on `train_corpus`, then
    evaluate, predict and encode with each on every corpus; the files written,
    each named for its model after `prefix`."""
    outputs = []
    for model, layers in models:
        for patience in PATIENCES:
            tag = f"{prefix}{model}-{layers}-p{patience}"
            ckpt, history = out / f"{tag}.ckpt", out / f"{tag}.history.jsonl"
            run("train", "--corpus", str(train_corpus), "--model", model, "--layers", str(layers),
                "--lr", "0.02", "--batch", "10", "--epochs", "6", "--patience", str(patience),
                "--seed", "3", "--out", str(ckpt), "--history", str(history))
            outputs += [ckpt, history]
            for name, corpus in corpora.items():
                report, top, vectors = (out / f"{tag}.{name}.{kind}"
                                        for kind in ("report.json", "top.jsonl", "vectors.jsonl"))
                common = ("--checkpoint", str(ckpt), "--corpus", str(corpus))
                run("evaluate", *common, "--out", str(report))
                run("predict", *common, "--k", "3", "--out", str(top))
                run("encode", *common, "--out", str(vectors))
                outputs += [report, top, vectors]
    return outputs


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    synth = out / "synth.jsonl"
    outputs = [synth, synth.with_suffix(".truth.json"), synth.with_suffix(".labels")]
    run("gensynth", "--labels", "4", "--vocab", "40", "--docs", "60", "--noise", "0.2",
        "--seed", "5", "--out", str(synth))
    repeated = out / "repeated.jsonl"
    repeated.write_text("".join(json.dumps(doc) + "\n" for doc in REPEATED), encoding="utf-8")
    tokenizer = out / "tokenizer.jsonl"
    tokenizer.write_text("".join(json.dumps(doc) + "\n" for doc in TOKENIZER), encoding="utf-8")
    corpora = {"synth": synth, "repeated": repeated, "tokenizer": tokenizer}
    outputs += [repeated, tokenizer]

    outputs += session(out, synth, MODELS, corpora)

    # at 4 labels a rounding change in the CRBM's exact sums can leave every byte as it was
    synth16 = out / "synth16.jsonl"
    run("gensynth", "--labels", "16", "--vocab", "96", "--docs", "80", "--noise", "0.2",
        "--seed", "6", "--out", str(synth16))
    outputs += [synth16, synth16.with_suffix(".truth.json"), synth16.with_suffix(".labels")]
    outputs += session(out, synth16, (("crbm", 1),), {"synth16": synth16}, prefix="l16-")

    # Gibbs prior sampling in gensynth, mean field in every CRBM prediction
    synth24 = out / "synth24.jsonl"
    run("gensynth", "--labels", "24", "--vocab", "144", "--docs", "80", "--noise", "0.2",
        "--seed", "7", "--out", str(synth24))
    outputs += [synth24, synth24.with_suffix(".truth.json"), synth24.with_suffix(".labels")]
    outputs += session(out, synth24, (("crbm", 1),), {"synth24": synth24}, prefix="l24-")

    for path in outputs:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    print(f"BLAS core: {blas_core()}", file=sys.stderr)
    print(f"BLAS threads: {blas_threads()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
