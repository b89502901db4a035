"""Token space, corpora generators, and dataset file round-trips."""

import numpy as np
import pytest

from mtpspec import data
from mtpspec.data import (
    CYCLE_TOKENS, EOS_TOKEN, SYN_A_IDS, SYN_B_IDS, VOCAB_SIZE, TrainingExample,
    language, load_dataset, make_examples, mixed_dataset, sample_prompts, save_dataset,
    seed_key,
)
from mtpspec.errors import ConfigError
from oracles import cycle_continuation, markov_sample, sample_zipf_tokens


class TestTokenSpace:
    def test_ranges_are_disjoint_and_in_vocab(self):
        ranges = [set(range(256)), {data.PAD_TOKEN, EOS_TOKEN},
                  set(SYN_A_IDS), set(SYN_B_IDS), set(CYCLE_TOKENS)]
        seen = set()
        for r in ranges:
            assert not (seen & r)
            seen |= r
        assert max(seen) < VOCAB_SIZE


class TestTrainingExample:
    def test_requires_nonempty_response(self):
        with pytest.raises(ValueError):
            TrainingExample(prompt=[1], response=[], lang="t", source="t")

    def test_json_round_trip(self):
        ex = TrainingExample([1, 2], [3, 4], "zh", "corpus", truncated=True)
        assert TrainingExample.from_json(ex.to_json()) == ex

    @pytest.mark.parametrize("bad", [1.5, -3, True])
    def test_non_integer_or_negative_ids_rejected(self, bad):
        obj = TrainingExample([1, 2], [3, 4], "zh", "corpus").to_json()
        with pytest.raises(ConfigError):
            TrainingExample.from_json({**obj, "response": [3, bad]})
        with pytest.raises(ConfigError):
            TrainingExample.from_json({**obj, "prompt": [bad, 2]})

    def test_ids_beyond_vocab_rejected_on_load(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [TrainingExample([1, 2], [3, 63], "t", "t"),
                            TrainingExample([1, 64], [3], "t", "t")])
        with pytest.raises(ConfigError, match="example 1"):
            load_dataset(path, 64)
        assert len(load_dataset(path, 65)) == 2

    @pytest.mark.parametrize("line", [
        '{"prompt": [1], "response": [2',
        '[1, 2, 3]',
        '{"prompt": [1], "response": [2], "lang": "t"}',
        '{"prompt": [1], "response": [], "lang": "t", "source": "t"}',
        '{"prompt": 1, "response": [2], "lang": "t", "source": "t"}',
        '{"prompt": [1], "response": [2], "lang": 5, "source": "t"}',
        '{"prompt": [1], "response": [2], "lang": "t", "source": null}',
        '{"prompt": [1], "response": [2], "lang": "t", "source": "t", "truncated": "no"}',
    ], ids=["invalid-json", "not-an-object", "missing-key", "empty-response",
            "prompt-not-a-list", "lang-not-a-string", "source-not-a-string",
            "truncated-not-a-bool"])
    def test_malformed_line_rejected_on_load(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [TrainingExample([1, 2], [3, 4], "t", "t")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ConfigError, match=f"{path.name}:2: "):
            load_dataset(path, 64)

    def test_dataset_file_round_trip(self, tmp_path):
        examples = make_examples("syn-a", seed=3, count=5, prompt_len=4,
                                 response_len=8)
        path = tmp_path / "data.jsonl"
        save_dataset(path, examples)
        assert load_dataset(path, VOCAB_SIZE) == examples


class TestLanguages:
    def test_generators_are_deterministic(self):
        a = make_examples("syn-b", seed=5, count=3, prompt_len=4, response_len=6)
        b = make_examples("syn-b", seed=5, count=3, prompt_len=4, response_len=6)
        assert [x.tokens for x in a] == [x.tokens for x in b]

    def test_synthetic_tokens_stay_in_their_range(self):
        for tag, ids in (("syn-a", SYN_A_IDS), ("syn-b", SYN_B_IDS)):
            seq = language(tag).sample(np.random.default_rng(0), 200)
            assert set(seq) <= set(ids)

    # the cumulative-table draws are Generator.choice's: same tokens, and the
    # generator left in the same state, at every length from 1 to 100
    @pytest.mark.parametrize("tag", ["syn-a", "syn-b"])
    def test_markov_sample_equals_choice_oracle(self, tag):
        lang = language(tag)
        for seed in range(200):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            length = 1 + seed % 100
            assert lang.sample(rng, length) == markov_sample(lang, oracle_rng, length)
            assert rng.random() == oracle_rng.random()

    def test_cycle_is_period_four(self):
        cyc = language("cycle")
        seq = cyc.sample(np.random.default_rng(1), 13)
        assert all(seq[i + 4] == seq[i] for i in range(9))
        assert cycle_continuation(seq[-1], 4)[3] == seq[-1]

    def test_byte_languages_emit_bytes(self):
        for tag in ("en", "zh"):
            seq = language(tag).sample(np.random.default_rng(2), 64)
            assert all(0 <= t <= 255 for t in seq)
        zh = language("zh").sample(np.random.default_rng(3), 64)
        assert sum(1 for t in zh if 128 <= t <= 255) / len(zh) > 0.5

    def test_responses_end_with_eos_except_cycle(self):
        for tag in ("syn-a", "en", "zh"):
            ex = make_examples(tag, 1, 1, 4, 8)[0]
            assert ex.response[-1] == EOS_TOKEN
        cycle_ex = make_examples("cycle", 1, 1, 4, 8)[0]
        assert EOS_TOKEN not in cycle_ex.tokens

    def test_mixed_dataset_covers_all_langs(self):
        ds = mixed_dataset(seed=1, per_lang=2, prompt_len=4, response_len=6)
        assert {ex.lang for ex in ds} == set(data.LANG_TAGS)
        assert len(ds) == 2 * len(data.LANG_TAGS)

    def test_prompt_sampling_differs_from_training_seed(self):
        train = make_examples("syn-a", seed=7, count=4, prompt_len=8, response_len=4)
        prompts = sample_prompts("syn-a", seed=7, count=4, prompt_len=8)
        assert all(p != ex.prompt for p, ex in zip(prompts, train))


class TestSeedKey:
    def test_stable_across_calls_and_mixed_types(self):
        assert seed_key(3, "tag", 5) == seed_key(3, "tag", 5)
        assert seed_key(3, "a") != seed_key(3, "b")

    def test_zipf_sampling_long_tailed(self):
        rng = np.random.default_rng(0)
        toks = sample_zipf_tokens(rng, list(range(100)), 20000)
        counts = np.bincount(toks, minlength=100)
        assert counts[0] > counts[10] > counts[50]
