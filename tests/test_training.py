import numpy as np
import pytest

from convres.encoder import EncoderConfig
from convres.exceptions import ConfigError, LabelMismatchError
from convres.metrics import metric_report
from convres.model import Model, ModelSpec
from convres.numeric import SeededRng
from convres.text import UNK_ID
from convres.training import (
    TrainConfig,
    cross_entropy,
    evaluate,
    prepare_docs,
    train,
    validation_split,
    _val_metrics,
)
from oracles import finite_diff_check
from toymodels import (
    build_toy_model,
    full_pipeline_loss_and_grads,
    full_pipeline_loss_only,
    make_separable_corpus,
)


SMALL_ENCODER = EncoderConfig(windows=(2, 3), filters_per_window=4, embedding_dim=8)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        y = np.array([1.0, 0.0, 1.0])
        assert cross_entropy(y, y) < 1e-10

    def test_half_everywhere_is_log_two(self):
        y = np.array([1.0, 0.0])
        assert abs(cross_entropy(np.array([0.5, 0.5]), y) - np.log(2.0)) < 1e-15

    def test_hand_case(self):
        loss = cross_entropy(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        expected = -0.5 * (np.log(0.9) + np.log(0.8))
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.16425) < 1e-4

    def test_clamp_keeps_loss_finite(self):
        loss = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and loss > 0


    def test_rows_are_notes(self):
        rng = SeededRng(4)
        P, Y = rng.uniform(size=(7, 5)), (rng.uniform(size=(7, 5)) < 0.5).astype(float)
        P[0, 0], P[1, 1] = 0.0, 1.0  # clamped entries
        losses = cross_entropy(P, Y)
        assert losses.shape == (7,)
        assert np.array_equal(losses, [cross_entropy(P[i], Y[i]) for i in range(7)])


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("dropout_keep", 0.0), ("dropout_keep", 1.5), ("dropout_keep", float("nan")),
    ])
    def test_rejects_values_that_train_nothing_or_uphill(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})


class TestModelSpec:
    @pytest.mark.parametrize("model_type", ["logistic", "residual", "plain"])
    def test_crbm_hidden_is_refused_on_other_heads(self, model_type):
        with pytest.raises(ConfigError, match=f"a {model_type} head has no CRBM hidden units"):
            ModelSpec(model_type=model_type, crbm_hidden=3)


class TestValidationSplit:
    def test_ninety_ten(self):
        docs = list(range(100))
        tr, va = validation_split(docs, 0.1, seed=3)
        assert len(tr) == 90 and len(va) == 10
        assert sorted(tr + va) == docs

    def test_same_seed_same_split(self):
        docs = list(range(40))
        a = validation_split(docs, 0.25, seed=9)
        b = validation_split(docs, 0.25, seed=9)
        assert a == b

    def test_ceiling_math_small_corpus(self):
        tr, va = validation_split(list(range(4)), 0.5, seed=0)
        assert len(tr) == 2 and len(va) == 2

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ConfigError):
            validation_split([1], 0.5, seed=0)
        with pytest.raises(ConfigError):
            validation_split([1, 2], 0.9, seed=0)  # would leave no training doc


class TestFullPipelineGradients:
    @pytest.mark.parametrize("model_type,n_layers", [("logistic", 1), ("plain", 2), ("residual", 2)])
    def test_finite_difference_through_embedding_encoder_head(self, model_type, n_layers):
        model, notes = build_toy_model(model_type, seed=11, n_layers=n_layers)
        Y = np.array([[1.0, 0.0, 1.0, 0.0]])
        full_pipeline_loss_and_grads(model, notes, Y)
        err = finite_diff_check(
            lambda: full_pipeline_loss_only(model, notes, Y), model.params()
        )
        assert err < 1e-4


class TestTrain:
    def _spec(self, model_type="logistic", **kw):
        return ModelSpec(model_type=model_type, encoder=SMALL_ENCODER, max_len=8, **kw)

    def test_zero_lr_leaves_parameters_at_init(self):
        docs = make_separable_corpus(20)
        cfg = TrainConfig(lr=0.0, minibatch=5, max_epochs=4, patience=10, seed=5)
        result = train(docs, self._spec(), cfg)
        # rebuild the same init and compare
        tr, va = validation_split(docs, cfg.val_fraction, cfg.seed)
        from convres.text import build_vocab, tokenize

        vocab = build_vocab([tokenize(d["text"]) for d in tr])
        fresh = Model.build(self._spec(), vocab, ["left", "right"], SeededRng(5))
        for got, init in zip(result.model.params(), fresh.params()):
            assert np.array_equal(got.value, init.value), got.name
        losses = [r.val_loss for r in result.history]
        assert max(losses) - min(losses) < 1e-15

    def test_separable_corpus_reaches_low_loss(self):
        docs = make_separable_corpus(20)
        cfg = TrainConfig(lr=0.05, minibatch=5, max_epochs=50, patience=50, seed=1)
        result = train(docs, self._spec(), cfg)
        assert result.history[-1].train_loss < 0.05
        assert len(result.history) <= 50

    def test_bit_identical_reruns(self):
        docs = make_separable_corpus(16)
        cfg = TrainConfig(lr=0.01, minibatch=4, max_epochs=5, patience=10, seed=21)
        a = train(docs, self._spec("residual", n_layers=2), cfg)
        b = train(docs, self._spec("residual", n_layers=2), cfg)
        assert [r.history_line() for r in a.history] == [r.history_line() for r in b.history]
        for pa, pb in zip(a.model.params(), b.model.params()):
            assert np.array_equal(pa.value, pb.value)

    def test_single_doc_overfit_monotone(self):
        doc = {"text": "fever cough fever rash", "labels": ["sick"]}
        filler = {"text": "well visit today", "labels": ["well"]}
        cfg = TrainConfig(
            lr=2e-3, minibatch=2, max_epochs=10, patience=50, seed=2, dropout_keep=1.0
        )
        result = train([doc, filler], self._spec(), cfg, val_docs=[doc])
        losses = [r.train_loss for r in result.history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_early_stopping_restores_best(self):
        docs = make_separable_corpus(30)
        cfg = TrainConfig(lr=0.2, minibatch=3, max_epochs=40, patience=3, seed=8)
        result = train(docs, self._spec(), cfg)
        assert result.best_val_loss == min(r.val_loss for r in result.history)
        # the returned parameters really are the best-epoch parameters
        _, va = validation_split(docs, cfg.val_fraction, cfg.seed)
        val_docs = prepare_docs(va, result.model.vocab, result.model.labels, 8)
        recomputed, _ = _val_metrics(result.model, val_docs)
        assert abs(recomputed - result.best_val_loss) < 1e-12

    def test_patience_bounds_the_tail(self):
        docs = make_separable_corpus(30)
        cfg = TrainConfig(lr=0.2, minibatch=3, max_epochs=60, patience=3, seed=8)
        result = train(docs, self._spec(), cfg)
        best_epoch = result.best_epoch
        assert len(result.history) - 1 - best_epoch <= cfg.patience

    def test_crbm_two_stage_training_runs(self):
        docs = make_separable_corpus(24)
        cfg = TrainConfig(lr=0.05, minibatch=6, max_epochs=6, patience=10, seed=3)
        result = train(docs, self._spec("crbm"), cfg)
        assert result.model.spec.model_type == "crbm"
        report = evaluate(result.model, docs)
        assert report["p_at_1"] > 0.9  # easily separable

    def test_unlabeled_corpus_rejected(self):
        docs = [{"text": "a b c", "labels": []} for _ in range(12)]
        with pytest.raises(ConfigError):
            train(docs, self._spec(), TrainConfig(seed=0))

    def test_empty_validation_set_rejected(self):
        # with no validation notes every epoch's loss would be nan, no epoch
        # would count as best, and the initial parameters would come back
        docs = make_separable_corpus(12)
        with pytest.raises(ConfigError, match="validation"):
            train(docs, self._spec(), TrainConfig(max_epochs=2, seed=0), val_docs=[])

    def test_pad_row_stays_zero_through_training(self):
        # documents shorter than the windows force conv reads over padding
        docs = [{"text": t, "labels": [l]} for t, l in
                [("alpha", "left"), ("omega", "right")] * 8]
        cfg = TrainConfig(lr=0.05, minibatch=4, max_epochs=5, patience=10, seed=3)
        result = train(docs, self._spec(), cfg)
        pad = result.model.embedding.weights
        # the pad row's gradient is zeroed before each Adam step, so its moments never move
        for name in ("value", "grad", "m", "v"):
            assert not getattr(pad, name)[0].any(), name
        assert pad.step > 0 and pad.m[1:].any()

    def test_unk_row_keeps_its_initial_values(self):
        # the vocabulary comes from the training notes, so no training token is
        # <unk>: its row gets no gradient, and an unseen token at evaluation
        # reads the seeded initial values
        docs = make_separable_corpus(20)
        cfg = TrainConfig(lr=0.05, minibatch=5, max_epochs=3, patience=10, seed=4)
        spec = self._spec("residual", n_layers=2)
        result = train(docs, spec, cfg)
        model = result.model
        fresh = Model.build(spec, model.vocab, model.labels, SeededRng(cfg.seed))
        trained_rows, init_rows = model.embedding.weights.value, fresh.embedding.weights.value
        assert np.array_equal(trained_rows[UNK_ID], init_rows[UNK_ID])
        alpha = model.vocab.lookup("alpha")
        assert not np.array_equal(trained_rows[alpha], init_rows[alpha])
        notes = prepare_docs([{"text": "zzz alpha", "labels": []}], model.vocab, model.labels, 8)
        assert notes.ids[0, :2].tolist() == [UNK_ID, alpha]

    def test_pure_noise_corpus_scores_at_chance(self):
        from convres.synth import SynthConfig, generate_corpus

        cfg = SynthConfig(
            n_labels=6, vocab_size=60, pair_weights=np.zeros((6, 6)),
            unary=np.full(6, -1.0), keywords_per_label=4,
            doc_len=(8, 16), noise_rate=1.0, seed=9,
        )
        docs = generate_corpus(cfg, 1500)
        spec = ModelSpec(
            model_type="logistic",
            encoder=EncoderConfig(windows=(2, 3), filters_per_window=8, embedding_dim=16),
            max_len=16,
        )
        tc = TrainConfig(lr=0.01, minibatch=50, max_epochs=8, patience=3, seed=2)
        result = train(docs, spec, tc)
        report = evaluate(result.model, docs)
        assert abs(report["macro_auc"] - 0.5) < 0.05


class TestEvaluate:
    def test_perfect_predictor_p1(self):
        # random scores aside, a converged model on separable data nails P@1
        docs = make_separable_corpus(20)
        cfg = TrainConfig(lr=0.05, minibatch=5, max_epochs=40, patience=40, seed=4)
        result = train(docs, ModelSpec(model_type="logistic", encoder=SMALL_ENCODER, max_len=8), cfg)
        report = evaluate(result.model, docs)
        assert report["p_at_1"] == 1.0

    def test_random_scores_expectation(self):
        rng = SeededRng(17)
        L, n = 100, 3000
        scores, truth = np.zeros((n, L)), np.zeros((n, L))
        for i in range(n):
            scores[i] = rng.uniform(size=(L,))
            truth[i, rng.integers(L)] = 1.0
        rep = metric_report(scores, truth)
        assert abs(rep["p_at_1"] - 0.01) < 0.005

    def test_evaluate_twice_identical(self):
        docs = make_separable_corpus(14)
        cfg = TrainConfig(lr=0.02, minibatch=7, max_epochs=3, patience=5, seed=6)
        result = train(docs, ModelSpec(model_type="logistic", encoder=SMALL_ENCODER, max_len=8), cfg)
        assert evaluate(result.model, docs) == evaluate(result.model, docs)

    def test_unknown_label_rejected(self):
        docs = make_separable_corpus(14)
        cfg = TrainConfig(lr=0.02, minibatch=7, max_epochs=2, patience=5, seed=6)
        result = train(docs, ModelSpec(model_type="logistic", encoder=SMALL_ENCODER, max_len=8), cfg)
        bad = [{"text": "alpha beta", "labels": ["mystery"]}]
        with pytest.raises(LabelMismatchError):
            evaluate(result.model, bad)
