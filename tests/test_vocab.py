"""Vocabulary compression: frequency stats, keep-set rules, compressed drafting."""

import numpy as np
import pytest

from mtpspec.data import EOS_TOKEN, PAD_TOKEN, sample_zipf_tokens
from mtpspec.errors import ConfigError, ConsistencyError, EmptyCorpusError
from mtpspec.model import ModelConfig, greedy_argmax, init_model
from mtpspec.vocab import (
    CompressedVocab, FrequencyTable, VocabBank,
    build_frequency_table, compress_vocab, detect_language, draft_logits_compressed,
    identity_vocab, load_compressed_vocab, load_frequency_table,
    save_compressed_vocab, save_frequency_table, size_for_coverage,
)

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=1, n_heads=2,
                  max_seq_len=32, seed=1)


@pytest.fixture(scope="module")
def main():
    model, _ = init_model(CFG)
    model.freeze()
    return model


class TestFrequencyTable:
    def test_exact_counts(self):
        table = build_frequency_table([[0, 0, 1, 0, 2]], "t", vocab_size=8)
        assert table.counts[0] == 3 and table.counts[1] == 1 and table.counts[2] == 1
        assert table.total == 5

    def test_concatenation_adds_elementwise(self):
        a = build_frequency_table([[0, 1, 1]], "t", vocab_size=4)
        b = build_frequency_table([[1, 2]], "t", vocab_size=4)
        both = build_frequency_table([[0, 1, 1], [1, 2]], "t", vocab_size=4)
        merged = a + b
        np.testing.assert_array_equal(merged.counts, both.counts)
        assert merged.total == both.total

    def test_zipf_long_tail_top64_covers_over_60_percent(self):
        rng = np.random.default_rng(7)
        tokens = sample_zipf_tokens(rng, list(range(512)), 200_000, s=1.0)
        table = build_frequency_table([tokens], "zipf", vocab_size=512)
        order = np.lexsort((np.arange(512), -table.counts))
        assert table.coverage(order[:64]) > 0.60

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_frequency_table([], "t", vocab_size=8)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(IndexError):
            build_frequency_table([[0, 8]], "t", vocab_size=8)

    def test_file_round_trip(self, tmp_path):
        table = build_frequency_table([[3, 3, 5, 7]], "t", vocab_size=16)
        path = tmp_path / "freq.json"
        save_frequency_table(path, table)
        loaded = load_frequency_table(path, vocab_size=16)
        np.testing.assert_array_equal(loaded.counts, table.counts)
        assert loaded.total == table.total and loaded.lang == "t"

    # each case replaces fields of a valid table; None removes the field
    @pytest.mark.parametrize("fields", [
        {"pairs": [[-3, 5], [7, 4]]},
        {"pairs": [[True, 4]], "total": 4},
        {"pairs": [[3, 5], [3, 4]]},
        {"pairs": [[3, -1], [7, 10]]},
        {"total": 10},
        {"pairs": [[512, 5], [7, 4]]},
        {"pairs": [[1.5, 5], [7, 4]]},
        {"pairs": [[3, 2.5]], "total": 2.5},
        {"pairs": [], "total": 0},
        {"pairs": None},
        {"lang": None},
    ], ids=["negative-id", "bool-id", "duplicate-id", "negative-count", "wrong-total",
            "out-of-range-id", "fractional-id", "fractional-count", "empty",
            "missing-pairs", "missing-lang"])
    def test_malformed_table_rejected_on_load(self, fields):
        obj = {"lang": "t", "total": 9, "pairs": [[3, 5], [7, 4]], **fields}
        with pytest.raises(ConfigError):
            FrequencyTable.from_json({k: v for k, v in obj.items() if v is not None},
                                     vocab_size=512)


class TestCompressVocab:
    def test_tie_breaks_to_lower_id(self):
        table = build_frequency_table([[0, 0, 0, 1, 2]], "t", vocab_size=8)
        cv = compress_vocab(table, size=2, specials=())
        np.testing.assert_array_equal(cv.keep, [0, 1])  # 1 beats 2 on id

    def test_identity_compression_keeps_everything(self, main):
        table = build_frequency_table([[1, 2, 3]], "t", vocab_size=CFG.vocab_size)
        cv = compress_vocab(table, size=CFG.vocab_size, specials=(), main=main)
        np.testing.assert_array_equal(cv.keep, np.arange(CFG.vocab_size))

    def test_coverage_nondecreasing_in_size(self):
        rng = np.random.default_rng(3)
        tokens = sample_zipf_tokens(rng, list(range(64)), 5000)
        table = build_frequency_table([tokens], "t", vocab_size=64)
        covers = [table.coverage(compress_vocab(table, s, specials=()).keep)
                  for s in range(1, 65)]
        assert all(a <= b + 1e-15 for a, b in zip(covers, covers[1:]))

    def test_specials_force_included_by_displacement(self):
        counts = [[i] * (70 - i) for i in range(60)]  # ids 0..59 frequent
        table = build_frequency_table(counts, "t", vocab_size=512)
        cv = compress_vocab(table, size=8, specials=(PAD_TOKEN, EOS_TOKEN))
        assert PAD_TOKEN in cv.keep and EOS_TOKEN in cv.keep
        assert cv.size == 8
        # the two lowest-count members were displaced
        np.testing.assert_array_equal(cv.keep[:6], np.arange(6))

    def test_size_bounds(self):
        table = build_frequency_table([[0]], "t", vocab_size=8)
        with pytest.raises(ConfigError):
            compress_vocab(table, 0)
        with pytest.raises(ConfigError):
            compress_vocab(table, 9)
        with pytest.raises(ConfigError):
            compress_vocab(table, 1, specials=(PAD_TOKEN, EOS_TOKEN))

    def test_index_maps_are_consistent(self):
        table = build_frequency_table([[5, 5, 9, 9, 9, 1]], "t", vocab_size=16)
        cv = compress_vocab(table, size=3, specials=())
        for comp, full in enumerate(cv.keep):
            assert cv.full_to_comp[full] == comp
        assert (cv.full_to_comp >= 0).sum() == cv.size

    def test_size_for_coverage(self):
        rng = np.random.default_rng(9)
        tokens = sample_zipf_tokens(rng, list(range(64)), 20000)
        table = build_frequency_table([tokens], "t", vocab_size=64)
        size = size_for_coverage(table, 0.99, specials=())
        cv = compress_vocab(table, size, specials=())
        assert table.coverage(cv.keep) >= 0.99
        if size > 1:
            smaller = compress_vocab(table, size - 1, specials=())
            assert table.coverage(smaller.keep) < 0.99

    def test_file_round_trip(self, tmp_path):
        table = build_frequency_table([[1, 1, 4]], "t", vocab_size=16)
        cv = compress_vocab(table, 4, specials=())
        path = tmp_path / "cv.json"
        save_compressed_vocab(path, cv)
        loaded = load_compressed_vocab(path, vocab_size=16)
        np.testing.assert_array_equal(loaded.keep, cv.keep)
        assert loaded.lang == cv.lang

    @pytest.mark.parametrize("obj", [
        {"lang": "t", "size": 3, "keep": [1, 1, 5]},
        {"lang": "t", "size": 3, "keep": [-3, 2, 5]},
        {"lang": "t", "size": 1, "keep": [70]},
        {"lang": "t", "size": 2},
        {"size": 2, "keep": [1, 7]},
    ], ids=["duplicate", "negative", "out-of-range", "missing-keep", "missing-lang"])
    def test_malformed_ids_rejected_on_load(self, obj):
        with pytest.raises(ConfigError):
            CompressedVocab.from_json(obj, vocab_size=64)

    @pytest.mark.parametrize("keep", [[1.5, 7.9], [True, 3], [2.0, 5]],
                             ids=["fractional", "bool", "integral-float"])
    def test_non_integer_ids_rejected_on_load(self, keep):
        with pytest.raises(ConfigError):
            CompressedVocab.from_json({"lang": "t", "size": len(keep), "keep": keep},
                                      vocab_size=64)

    def test_size_disagreeing_with_ids_rejected_on_load(self):
        with pytest.raises(ConfigError):
            CompressedVocab.from_json({"lang": "t", "size": 9, "keep": [1, 7]}, vocab_size=64)


class TestDraftLogits:
    def _cv(self, main, size):
        rng = np.random.default_rng(11)
        tokens = sample_zipf_tokens(rng, list(range(CFG.vocab_size)), 4000)
        table = build_frequency_table([tokens], "t", vocab_size=CFG.vocab_size)
        return compress_vocab(table, size, specials=(), main=main)

    def test_identity_matches_full_argmax(self, main):
        cv = identity_vocab(main)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = rng.normal(size=CFG.model_dim)
            _, tok = draft_logits_compressed(state, cv)
            assert tok == greedy_argmax(main.output_w.data @ state)

    def test_restricted_argmax_equivalence(self, main):
        # compressed greedy equals full greedy exactly when the full
        # choice is a member of the keep set
        cv = self._cv(main, size=16)
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(300):
            state = rng.normal(size=CFG.model_dim)
            full_tok = greedy_argmax(main.output_w.data @ state)
            _, comp_tok = draft_logits_compressed(state, cv)
            if full_tok in cv.keep:
                hits += 1
                assert comp_tok == full_tok
            else:
                assert comp_tok != full_tok
        assert hits > 0

    def test_head_rows_match_source_exactly(self, main):
        cv = self._cv(main, size=8)
        for i, full_id in enumerate(cv.keep):
            np.testing.assert_array_equal(cv.w_view[i], main.output_w.data[full_id])

    def test_multiply_count_is_keep_times_dim(self):
        from mtpspec.specdec import speculative_decode
        model, head = init_model(CFG)
        model.freeze()
        for cv, kept in ((self._cv(model, size=16), 16),
                         (identity_vocab(model), CFG.vocab_size)):
            _, m = speculative_decode(model, head, [3, 1, 4, 1], 12, 3, vocab=cv,
                                      eos_token=None)
            assert m.draft_forwards > 0
            assert m.draft_mults == m.draft_forwards * kept * CFG.model_dim

    def test_unbound_vocab_rejected(self, main):
        table = build_frequency_table([[1, 2]], "t", vocab_size=CFG.vocab_size)
        cv = compress_vocab(table, 4, specials=())
        with pytest.raises(ConsistencyError):
            draft_logits_compressed(np.zeros(CFG.model_dim), cv)

    def test_stale_binding_rejected(self, main):
        cv = self._cv(main, size=8)
        other, _ = init_model(ModelConfig(**{**CFG.__dict__, "seed": 99}))
        with pytest.raises(ConsistencyError):
            cv.check_bound(other.output_w.data)


class TestVocabBank:
    def test_unknown_tag_falls_back_to_full(self, main):
        bank = VocabBank(main)
        cv = bank.get("nope")
        assert cv.size == CFG.vocab_size

    def test_language_dispatch_changes_rows(self, main):
        t1 = build_frequency_table([[1, 1, 2, 3]], "en", vocab_size=CFG.vocab_size)
        t2 = build_frequency_table([[60, 60, 61, 62]], "zh", vocab_size=CFG.vocab_size)
        bank = VocabBank(main, [compress_vocab(t1, 4, specials=()),
                                compress_vocab(t2, 4, specials=())])
        en, zh = bank.get("en"), bank.get("zh")
        assert set(en.keep) != set(zh.keep)
        for cv in (en, zh):
            for i, full_id in enumerate(cv.keep):
                np.testing.assert_array_equal(cv.w_view[i], main.output_w.data[full_id])


class TestDetectLanguage:
    def test_all_ascii_is_en(self):
        assert detect_language(list(b"plain english text")) == "en"

    def test_all_cjk_is_zh(self):
        assert detect_language(list("这是中文".encode("utf-8"))) == "zh"

    def test_empty_context_falls_back(self):
        from mtpspec.data import FALLBACK_LANG
        assert detect_language([]) == FALLBACK_LANG

    def test_threshold_on_mixed_context(self):
        mixed = list(b"abcdefg") + list("中".encode("utf-8"))  # 3/10 high bytes
        assert detect_language(mixed) == "zh"
        assert detect_language(list(b"abcdefgh") + list("中".encode("utf-8"))) == "en"

    def test_window_limits_lookback(self):
        context = list("中文".encode("utf-8")) * 40 + list(b"x" * 128)
        assert detect_language(context) == "en"
