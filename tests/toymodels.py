"""Small shared builders for end-to-end gradient and training tests."""

from convres.encoder import EncoderConfig, encode_batch_backward
from convres.model import Model, ModelSpec
from convres.numeric import SeededRng
from convres.text import build_vocab
from convres.training import _ce_batch, prepare_docs


TOY_TOKENS = ["fever", "cough", "rash", "pain", "chills", "nausea", "ache", "dizzy"]


def build_toy_model(model_type: str, seed: int = 0, n_layers: int = 1,
                    L: int = 4, weight_scale: float = 0.5):
    """A tiny full pipeline: k=4 embeddings, windows (2,3) x 3 filters, vw=6."""
    spec = ModelSpec(
        model_type=model_type,
        encoder=EncoderConfig(windows=(2, 3), filters_per_window=3, embedding_dim=4),
        max_len=8,
        n_layers=n_layers,
        hidden_sizes=(3,) * n_layers if model_type in ("plain", "residual") else None,
    )
    vocab = build_vocab([TOY_TOKENS])
    labels = [f"label{i}" for i in range(L)]
    model = Model.build(spec, vocab, labels, SeededRng(seed))
    scale_rng = SeededRng(seed + 999)
    for p in model.params():
        p.value[...] = scale_rng.uniform(-weight_scale, weight_scale, p.value.shape)
    model.embedding.freeze_pad()
    notes = prepare_docs([{"labels": []}], vocab, labels, max_len=8, token_lists=[TOY_TOKENS])
    return model, notes


def full_pipeline_loss_and_grads(model, notes, Y):
    """Mean cross-entropy over the notes; analytic grads accumulated into tensors."""
    model.zero_grads()
    x, enc_cache = model.encode_docs(notes, train_mode=False)
    P, head_cache = model.head.forward(x)
    loss_sum, dZ = _ce_batch(P, Y)
    dx = model.head.backward(head_cache, dZ)
    encode_batch_backward(enc_cache, dx, model.embedding, model.banks)
    return loss_sum / len(notes)


def full_pipeline_loss_only(model, notes, Y):
    x, _ = model.encode_docs(notes, train_mode=False)
    P, _ = model.head.forward(x)
    loss_sum, _ = _ce_batch(P, Y)
    return loss_sum / len(notes)


def make_separable_corpus(n_docs: int = 20):
    """Two labels with disjoint keyword vocabularies; linearly separable."""
    docs = []
    for i in range(n_docs):
        if i % 2 == 0:
            docs.append({"text": "alpha beta gamma alpha delta", "labels": ["left"]})
        else:
            docs.append({"text": "omega psi chi omega phi", "labels": ["right"]})
    return docs
