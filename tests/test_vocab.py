"""Vocabulary compression: frequency stats, keep-set rules, compressed drafting."""

import json

import numpy as np
import pytest

from mtpspec.data import EOS_TOKEN, PAD_TOKEN
from mtpspec.errors import ConfigError, ConsistencyError, EmptyCorpusError, StateError
from mtpspec.model import ModelConfig, greedy_argmax, init_model
from mtpspec.vocab import (
    DETECT_WINDOW, CompressedVocab, VocabBank,
    build_frequency_table, compress_vocab, draft_logits_compressed,
    identity_vocab, load_compressed_vocab, load_frequency_table,
    save_compressed_vocab, save_frequency_table,
)
from oracles import sample_zipf_tokens, size_for_coverage

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

    # each case replaces fields of a valid table (None removes the field),
    # or is a string: the whole file's text
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
        {"pairs": 5},
        {"pairs": "ab", "total": 2},
        {"pairs": [7], "total": 7},
        {"pairs": [[3, 5, 1]], "total": 5},
        {"pairs": [{"3": 5, "7": 4}]},
        {"lang": ["en"]},
        '{"lang": null, "total": 9, "pairs": [[3, 5], [7, 4]]}',
        '{"lang": "t", "total": 9, "pairs": [[3, 5]',
        '[["t", 9]]',
    ], ids=["negative-id", "bool-id", "duplicate-id", "negative-count", "wrong-total",
            "out-of-range-id", "fractional-id", "fractional-count", "empty",
            "missing-pairs", "missing-lang", "pairs-not-a-list", "pairs-a-string",
            "pair-not-a-list", "pair-of-three", "pair-an-object", "lang-a-list",
            "lang-null", "invalid-json", "not-an-object"])
    def test_malformed_table_rejected_on_load(self, tmp_path, fields):
        if isinstance(fields, dict):
            obj = {"lang": "t", "total": 9, "pairs": [[3, 5], [7, 4]], **fields}
            fields = json.dumps({k: v for k, v in obj.items() if v is not None})
        path = tmp_path / "freq.json"
        path.write_text(fields)
        with pytest.raises(ConfigError):
            load_frequency_table(path, vocab_size=512)


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
        {"lang": "en", "keep": 5},
        {"lang": "en", "keep": "17"},
        {"lang": "en", "keep": {"1": 7}},
        {"lang": ["en"], "keep": [1, 7]},
        {"lang": None, "keep": [1, 7]},
        {"lang": "t", "size": True, "keep": [3]},
        '{"lang": "t", "size": 2, "keep": [1, 7',
        '[1, 7]',
    ], ids=["duplicate", "negative", "out-of-range", "missing-keep", "missing-lang",
            "keep-not-a-list", "keep-a-string", "keep-an-object", "lang-a-list",
            "lang-null", "size-a-bool", "invalid-json", "not-an-object"])
    def test_malformed_ids_rejected_on_load(self, tmp_path, obj):
        path = tmp_path / "cv.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        with pytest.raises(ConfigError):
            load_compressed_vocab(path, vocab_size=64)

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
            assert tok == greedy_argmax(main.embed.data @ state)

    def test_restricted_argmax_equivalence(self, main):
        # compressed greedy equals full greedy exactly when the full
        # choice is a member of the keep set
        cv = self._cv(main, size=16)
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(300):
            state = rng.normal(size=CFG.model_dim)
            full_tok = greedy_argmax(main.embed.data @ state)
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
            np.testing.assert_array_equal(cv.w_view[i], main.embed.data[full_id])

    def test_multiply_count_is_keep_times_dim(self):
        from mtpspec.specdec import speculative_decode
        model, head = init_model(CFG)
        model.freeze()
        for cv, kept in ((self._cv(model, size=16), 16),
                         (identity_vocab(model), CFG.vocab_size)):
            _, m = speculative_decode(model, head, [3, 1, 4, 1], 12, 3,
                                      vocab=VocabBank(model, [cv]), eos_token=None)
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
            cv.check_bound(other.embed.data)

    def test_copied_rows_bind_to_a_frozen_backbone_only(self):
        """Training updates the head in place, which copied rows would not
        follow; the full vocabulary drafts from the live rows and stays allowed."""
        model, _ = init_model(CFG)
        table = build_frequency_table([[1, 2, 5]], "t", vocab_size=CFG.vocab_size)
        with pytest.raises(StateError):
            compress_vocab(table, 4, specials=(), main=model)
        with pytest.raises(StateError):
            VocabBank(model, [compress_vocab(table, 4, specials=())])
        cv = identity_vocab(model)
        model.embed.data[5] += 10.0
        state = model.embed.data[5].copy()
        logits, _ = draft_logits_compressed(state, cv)
        assert logits[5] == pytest.approx(model.embed.data[5] @ state, rel=1e-12)


def _entry(main, lang, keep):
    return CompressedVocab(lang=lang, keep=np.asarray(sorted(keep), dtype=np.int64)).bind(main)


class TestVocabBank:
    def test_unknown_tag_falls_back_to_full(self, main):
        bank = VocabBank(main)
        cv = bank.select("nope")
        assert cv.size == CFG.vocab_size

    def test_language_dispatch_changes_rows(self, main):
        t1 = build_frequency_table([[1, 1, 2, 3]], "en", vocab_size=CFG.vocab_size)
        t2 = build_frequency_table([[60, 60, 61, 62]], "zh", vocab_size=CFG.vocab_size)
        bank = VocabBank(main, [compress_vocab(t1, 4, specials=()),
                                compress_vocab(t2, 4, specials=())])
        en, zh = bank.select("en"), bank.select("zh")
        assert set(en.keep) != set(zh.keep)
        for cv in (en, zh):
            for i, full_id in enumerate(cv.keep):
                np.testing.assert_array_equal(cv.w_view[i], main.embed.data[full_id])


class TestUntaggedSelection:
    """With no tag the bank picks the entry covering the trailing context best."""

    def test_widest_coverage_of_the_window_wins(self, main):
        a, b = _entry(main, "a", [1, 2, 3, 4]), _entry(main, "b", [10, 11, 12, 13])
        bank = VocabBank(main, [a, b])
        assert bank.select(None, [10, 11, 1, 12]) is b
        assert bank.select(None, [1, 2, 10, 3]) is a
        # only the last DETECT_WINDOW tokens count
        assert bank.select(None, [1] * (2 * DETECT_WINDOW) + [10] * DETECT_WINDOW) is b

    def test_tie_goes_to_the_smaller_keep_set(self, main):
        wide, narrow = _entry(main, "wide", range(1, 9)), _entry(main, "narrow", [1, 2, 3])
        assert VocabBank(main, [wide, narrow]).select(None, [1, 2, 40]) is narrow

    def test_tie_on_size_goes_to_the_entry_added_first(self, main):
        zz, aa = _entry(main, "zz", [1, 2, 3, 4]), _entry(main, "aa", [1, 2, 5, 6])
        assert VocabBank(main, [zz, aa]).select(None, [1, 2]) is zz
        assert VocabBank(main, [aa, zz]).select(None, [1, 2]) is aa

    def test_empty_bank_falls_back(self, main):
        bank = VocabBank(main)
        assert bank.select(None, [1, 2, 3]) is bank.fallback
