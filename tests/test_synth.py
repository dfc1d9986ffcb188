import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convres import synth
from convres.exceptions import CapacityError, ConfigError
from convres.numeric import SeededRng
from convres.synth import (
    SynthConfig,
    _prior_table,
    default_pair_weights,
    default_unary,
    generate_corpus,
    oracle_marginals_for_corpus,
    sample_label_sets,
    write_corpus,
    write_ground_truth,
)
from convres.synthbench import benchmark_synth_config
from oracles import bayes_optimal_marginals, generate_corpus_per_draw, synth_posterior_enumeration


def _small_cfg(**overrides):
    base = dict(
        n_labels=4,
        vocab_size=40,
        pair_weights=default_pair_weights(4),
        unary=default_unary(4, level=-1.0),
        keywords_per_label=4,
        doc_len=(5, 10),
        noise_rate=0.3,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_rejects_asymmetric_pairs(self):
        pair = np.zeros((4, 4))
        pair[0, 1] = 1.0
        with pytest.raises(ConfigError):
            _small_cfg(pair_weights=pair)

    def test_rejects_nonzero_diagonal(self):
        pair = np.eye(4)
        with pytest.raises(ConfigError):
            _small_cfg(pair_weights=pair)

    def test_rejects_vocab_without_noise_room(self):
        with pytest.raises(ConfigError):
            _small_cfg(vocab_size=16, keywords_per_label=4, noise_rate=0.5)

    def test_rejects_bad_doc_len(self):
        with pytest.raises(ConfigError):
            _small_cfg(doc_len=(5, 3))


class TestGeneration:
    def test_deterministic_corpus(self, tmp_path):
        docs_a = generate_corpus(_small_cfg(), 50)
        docs_b = generate_corpus(_small_cfg(), 50)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(a, docs_a)
        write_corpus(b, docs_b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_controls_by_default(self):
        docs = generate_corpus(_small_cfg(), 200)
        assert all(doc["labels"] for doc in docs)

    def test_controls_allowed_when_requested(self):
        cfg = _small_cfg(allow_controls=True, unary=default_unary(4, level=-3.0))
        docs = generate_corpus(cfg, 400)
        assert any(not doc["labels"] for doc in docs)

    def test_doc_lengths_in_range(self):
        docs = generate_corpus(_small_cfg(), 100)
        for doc in docs:
            n = len(doc["text"].split())
            assert 5 <= n <= 10

    def test_factorized_prior_keeps_labels_independent(self):
        # zero couplings, two likely labels: joint rate ~ product of marginals
        unary = np.array([0.0, 0.0, -14.0, -14.0])
        cfg = _small_cfg(
            pair_weights=np.zeros((4, 4)), unary=unary, seed=13, allow_controls=True
        )
        docs = generate_corpus(cfg, 8000)
        has = np.array(
            [[1.0 if f"label{l:02d}" in d["labels"] else 0.0 for l in range(4)] for d in docs]
        )
        p0, p1, p01 = has[:, 0].mean(), has[:, 1].mean(), (has[:, 0] * has[:, 1]).mean()
        assert abs(p01 - p0 * p1) < 0.03
        assert has[:, 2].sum() == 0  # strongly suppressed labels never fire

    def test_positive_coupling_raises_cooccurrence(self):
        pair = np.zeros((6, 6))
        pair[0, 1] = pair[1, 0] = 2.5
        cfg = SynthConfig(
            n_labels=6,
            vocab_size=60,
            pair_weights=pair,
            unary=default_unary(6, level=-1.5),
            keywords_per_label=4,
            doc_len=(4, 8),
            noise_rate=0.2,
            seed=3,
        )
        docs = generate_corpus(cfg, 10_000)
        has = np.array(
            [[1.0 if f"label{l:02d}" in d["labels"] else 0.0 for l in range(6)] for d in docs]
        )
        cond = (has[:, 0] * has[:, 1]).sum() / has[:, 0].sum()
        marginal = has[:, 1].mean()
        assert cond > marginal + 0.1
        # and the empirical conditional tracks the enumerated prior
        configs, probs = _prior_table(cfg)
        prior_cond = probs[(configs[:, 0] == 1) & (configs[:, 1] == 1)].sum() / probs[
            configs[:, 0] == 1
        ].sum()
        assert abs(cond - prior_cond) < 0.03

    def test_full_noise_makes_tokens_uniform(self):
        cfg = _small_cfg(noise_rate=1.0, seed=5)
        docs = generate_corpus(cfg, 3000)
        counts = {}
        for doc in docs:
            for tok in doc["text"].split():
                counts[tok] = counts.get(tok, 0) + 1
        assert all(tok.startswith("n") for tok in counts)  # keywords never emitted
        freqs = np.array(list(counts.values()), dtype=float)
        freqs /= freqs.sum()
        assert freqs.max() / freqs.min() < 1.5  # roughly uniform over noise vocab

    def test_gibbs_sampler_for_large_label_count(self):
        cfg = SynthConfig(
            n_labels=18,
            vocab_size=200,
            pair_weights=default_pair_weights(18),
            unary=default_unary(18),
            keywords_per_label=4,
            doc_len=(4, 6),
            noise_rate=0.2,
            seed=1,
        )
        ys = sample_label_sets(cfg, SeededRng(4), 50)
        assert ys.shape == (50, 18)
        assert (ys.sum(axis=1) > 0).all()


def _oracle(tokens, cfg):
    """The batched oracle on one note."""
    return oracle_marginals_for_corpus([{"text": " ".join(tokens), "labels": []}], cfg)[0]


@st.composite
def synth_configs(draw, max_labels=5):
    L = draw(st.integers(1, max_labels))
    kpl = draw(st.integers(1, 4))
    noise_rate = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    allow_controls = draw(st.booleans())
    n_noise = draw(st.integers(1 if noise_rate > 0.0 or allow_controls else 0, 12))
    lo = draw(st.integers(1, 6))
    unary = draw(st.lists(st.floats(-4.0, 1.0), min_size=L, max_size=L))
    return SynthConfig(
        n_labels=L,
        vocab_size=L * kpl + n_noise,
        pair_weights=default_pair_weights(L, draw(st.floats(-2.0, 2.0))),
        unary=np.array(unary),
        keywords_per_label=kpl,
        doc_len=(lo, draw(st.integers(lo, lo + 6))),
        noise_rate=noise_rate,
        seed=draw(st.integers(0, 2**64 - 1)),
        allow_controls=allow_controls,
    )


class TestEmitterBitIdentity:
    """generate_corpus draws a block per note and gives back what it did not
    use; the corpus and the token stream's position after it are those of the
    walk with one SeededRng call per draw."""

    def _check(self, cfg, n_docs):
        streams = []
        real = synth._emit_doc
        with mock.patch.object(
            synth, "_emit_doc", lambda *a: streams.append(a[1]) or real(*a)
        ):
            docs = generate_corpus(cfg, n_docs)
        ref_streams = []
        assert docs == generate_corpus_per_draw(cfg, n_docs, ref_streams)
        assert np.array_equal(streams[-1].raw(1), ref_streams[0].raw(1))

    @settings(max_examples=80, deadline=None)
    @given(cfg=synth_configs(), n_docs=st.integers(1, 40))
    @example(cfg=_small_cfg(noise_rate=0.0), n_docs=30)
    @example(cfg=_small_cfg(noise_rate=1.0), n_docs=30)
    @example(cfg=_small_cfg(allow_controls=True, unary=default_unary(4, -3.0)), n_docs=60)
    @example(cfg=_small_cfg(doc_len=(7, 7), keywords_per_label=1), n_docs=30)
    @example(cfg=_small_cfg(doc_len=(1, 1)), n_docs=30)
    @example(
        cfg=_small_cfg(doc_len=(1, 4), allow_controls=True, unary=default_unary(4, -3.0)),
        n_docs=60,
    )
    def test_corpus_equals_the_per_draw_walk(self, cfg, n_docs):
        self._check(cfg, n_docs)

    def test_gibbs_corpus_equals_the_per_draw_walk(self):
        cfg = SynthConfig(
            n_labels=18,
            vocab_size=200,
            pair_weights=default_pair_weights(18),
            unary=default_unary(18),
            keywords_per_label=4,
            doc_len=(4, 9),
            noise_rate=0.2,
            seed=1,
        )
        self._check(cfg, 40)


class TestOracle:
    def test_pure_noise_doc_returns_prior_marginals(self):
        cfg = _small_cfg()
        configs, probs = _prior_table(cfg)
        prior_marg = probs @ configs
        post = _oracle(["n00001", "n00002"], cfg)
        assert np.allclose(post, prior_marg, atol=1e-12)

    def test_keyword_only_doc_concentrates(self):
        cfg = _small_cfg(noise_rate=0.0)
        post = _oracle(["k00w000", "k00w001", "k00w002"], cfg)
        assert post[0] > 0.999

    def test_matches_independent_enumeration(self):
        for trial in range(10):
            rng = SeededRng(4000 + trial)
            pair = np.zeros((3, 3))
            pair[0, 1] = pair[1, 0] = rng.uniform(-1, 1)
            pair[1, 2] = pair[2, 1] = rng.uniform(-1, 1)
            cfg = SynthConfig(
                n_labels=3,
                vocab_size=20,
                pair_weights=pair,
                unary=rng.uniform(-1.5, 0.5, (3,)),
                keywords_per_label=3,
                doc_len=(2, 6),
                noise_rate=0.4,
                seed=trial,
            )
            docs = generate_corpus(cfg, 3)
            ours = oracle_marginals_for_corpus(docs, cfg)
            for doc, row in zip(docs, ours):
                ref = synth_posterior_enumeration(
                    doc["text"].split(),
                    3,
                    [list(r) for r in pair],
                    list(cfg.unary),
                    cfg.keywords_per_label,
                    cfg.n_noise_tokens,
                    cfg.noise_rate,
                    cfg.allow_controls,
                )
                assert np.abs(row - np.array(ref)).max() < 1e-10

    def test_posterior_normalizes(self):
        cfg = _small_cfg()
        configs, probs = _prior_table(cfg)
        assert abs(probs.sum() - 1.0) < 1e-10
        # posterior over configs must renormalize exactly too
        post = _oracle(["k01w000", "n00003"], cfg)
        assert (post >= 0).all() and (post <= 1).all()
        assert post[1] > 0.99  # keyword for label 1 forces it on

    def test_capacity_limit(self):
        cfg = SynthConfig(
            n_labels=17,
            vocab_size=600,
            pair_weights=np.zeros((17, 17)),
            unary=default_unary(17),
            keywords_per_label=4,
            doc_len=(2, 4),
            noise_rate=0.2,
            seed=0,
        )
        with pytest.raises(CapacityError):
            _oracle(["n00000"], cfg)

    @pytest.mark.parametrize("token", ["k02w999", "k02wxyz", "k02w"])
    def test_tokens_no_keyword_produces_count_as_noise(self, token):
        # 4 keywords per label: k02w000..k02w003 are label 2's only keywords
        cfg = _small_cfg()
        noise = _oracle(["n00001"], cfg)
        assert np.array_equal(_oracle([token], cfg), noise)
        assert noise[2] < 0.9
        assert np.abs(bayes_optimal_marginals([token], cfg) - noise).max() < 1e-12

    def test_zero_likelihood_note_is_named(self):
        cfg = _small_cfg(noise_rate=0.0)  # a noise token cannot occur beside a label
        docs = [{"text": "k00w000", "labels": []}, {"text": "k01w001 n00002", "labels": []}]
        with pytest.raises(ConfigError, match="note 1 has zero likelihood"):
            oracle_marginals_for_corpus(docs, cfg)


@st.composite
def oracle_cases(draw):
    cfg = draw(synth_configs(max_labels=4))
    keywords = [
        cfg.keyword(l, i) for l in range(cfg.n_labels) for i in range(cfg.keywords_per_label)
    ]
    # tokens that are no keyword count as noise, whatever they look like
    noise = [cfg.noise_token(i) for i in range(cfg.n_noise_tokens)]
    noise += ["k00w999", "k01wxyz", "k00w", "n99999"]
    pools = {"noise": noise, "keywords": keywords, "mixed": noise + keywords}
    notes = []
    for _ in range(draw(st.integers(1, 10))):
        pool = pools[draw(st.sampled_from(sorted(pools)))]
        notes.append(draw(st.lists(st.sampled_from(pool), max_size=8)))
    return cfg, notes, draw(st.integers(1, 3))


class TestBatchedOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=oracle_cases())
    def test_equals_the_per_note_reference(self, case):
        """Within 1e-12 of the per-note oracle, over blocks of 1-3 notes; a
        note that no label config explains is named by its index."""
        cfg, notes, per_block = case
        table = _prior_table(cfg)
        ref, bad = [], None
        for i, tokens in enumerate(notes):
            try:
                with np.errstate(divide="ignore"):
                    ref.append(bayes_optimal_marginals(tokens, cfg, table))
            except ConfigError:
                bad = i
                break
        docs = [{"text": " ".join(tokens), "labels": []} for tokens in notes]
        with mock.patch.object(synth, "_ORACLE_BLOCK", per_block * 2**cfg.n_labels):
            if bad is not None:
                with pytest.raises(ConfigError, match=f"note {bad} has zero likelihood"):
                    oracle_marginals_for_corpus(docs, cfg)
            else:
                ours = oracle_marginals_for_corpus(docs, cfg)
                assert np.abs(ours - np.array(ref)).max() < 1e-12

    def test_benchmark_notes_match_the_reference(self):
        cfg = benchmark_synth_config()
        docs = generate_corpus(cfg, 40)
        table = _prior_table(cfg)
        ref = np.array([bayes_optimal_marginals(d["text"].split(), cfg, table) for d in docs])
        assert np.abs(oracle_marginals_for_corpus(docs, cfg) - ref).max() < 1e-12

    def test_500_notes_at_16_labels_peak_below_24_mib(self):
        # measured 16.5 MiB: the prior table's construction, which the per-note
        # oracle peaked at too; the masked prior of a 4-note block is 2 MiB
        cfg = benchmark_synth_config()
        docs = generate_corpus(cfg, 500)
        tracemalloc.start()
        try:
            oracle_marginals_for_corpus(docs, cfg)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 24, f"peak {peak:.1f} MiB"


class TestSidecar:
    def test_ground_truth_file(self, tmp_path):
        cfg = _small_cfg()
        docs = generate_corpus(cfg, 5)
        path = tmp_path / "truth.json"
        write_ground_truth(path, cfg, docs, include_marginals=True)
        obj = json.loads(path.read_text())
        assert obj["config"]["n_labels"] == 4
        assert obj["label_names"] == ["label00", "label01", "label02", "label03"]
        assert len(obj["oracle_marginals"]) == 5
        recomputed = np.array([bayes_optimal_marginals(d["text"].split(), cfg) for d in docs])
        assert np.abs(np.array(obj["oracle_marginals"]) - recomputed).max() < 1e-12
