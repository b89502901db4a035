"""Draft/verify engine tests on untrained toy models.

Losslessness does not depend on draft quality, so random models exercise
the full accept/reject/rollback machinery cheaply.
"""

import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtpspec import specdec
from mtpspec import tensor as tn
from mtpspec.data import sample_prompts
from mtpspec.errors import CapacityError, ConfigError, StateError
from mtpspec.model import MainModel, ModelConfig, MTPHead, init_model, main_forward, mtp_step
from mtpspec.specdec import (
    DecodeMetrics, DecodeSession, DraftRound, baseline_decode, draft_round, read_round_log,
    speculative_decode, verify_round, write_round_log,
)
from mtpspec.training import backbone_hidden
from mtpspec.vocab import VocabBank, build_frequency_table, compress_vocab, load_compressed_vocab
from oracles import (cache_consistency_gap, rates_from_records, sample_zipf_tokens,
                     tau_from_records)

STACK = Path(__file__).resolve().parents[1] / "perfbench" / "stack"

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=2, n_heads=2,
                  max_seq_len=64, seed=5)


@pytest.fixture(scope="module")
def stack():
    main, head = init_model(CFG)
    main.freeze()
    rng = np.random.default_rng(0)
    corpus = [sample_zipf_tokens(rng, list(range(CFG.vocab_size)), 2000)]
    table = build_frequency_table(corpus, "toy", vocab_size=CFG.vocab_size)
    small = VocabBank(main, [compress_vocab(table, 16, specials=(), main=main)])
    return main, head, small


@pytest.fixture(scope="module")
def drafting():
    """A toy backbone whose greedy runs vary, and two heads bound to it:
    a random one, whose drafts are almost all rejected, and one whose
    block is a copy of the backbone's first block reading only the
    token stream, whose drafts are mostly accepted. Block 0's weights
    are scaled up so that it, not the copied input token, decides the
    next token; unit-rms embeddings make the backbone's input rows the
    head's normalized token rows."""
    main, random_head = init_model(CFG)
    emb = main.embed.data
    emb /= np.sqrt(np.mean(emb * emb, axis=-1, keepdims=True))
    b0 = main.blocks[0]
    for w in (b0.qkv, b0.wo.data, b0.w_gate.data, b0.w_up.data, b0.w_down.data):
        w *= 40.0
    mirror = MTPHead(main, np.random.default_rng(1))
    d = CFG.model_dim
    mirror.combine.data[...] = np.vstack([np.zeros((d, d)), np.eye(d)])
    mirror.block.qkv[...] = b0.qkv
    for name in ("attn_norm", "wo", "mlp_norm", "w_gate", "w_up", "w_down"):
        getattr(mirror.block, name).data[...] = getattr(b0, name).data
    main.freeze()

    rng = np.random.default_rng(3)
    corpus = [sample_zipf_tokens(rng, list(range(CFG.vocab_size)), 2000)]
    toy, en = (compress_vocab(build_frequency_table(corpus, tag, vocab_size=CFG.vocab_size),
                              size, specials=(), main=main)
               for tag, size in (("toy", 16), ("en", 24)))
    bank = VocabBank(main, [toy, en])
    # (vocab, lang): with lang None the two-entry bank drafts over "toy" (the top 16
    # ids, a subset of "en") until the trailing context holds an "en"-only id
    modes = [(None, None), (VocabBank(main, [toy]), None), (bank, "toy"), (bank, None)]
    return main, [random_head, mirror], modes


@pytest.fixture(scope="module")
def decoders(stack, drafting):
    """(main, head, bank of one 16-id compressed vocab, whether drafts get
    accepted) for the stack's random head, whose drafts are all rejected,
    and for the drafting fixture's mirror head, whose drafts are mostly
    accepted."""
    main, (_, mirror), modes = drafting
    return [(*stack, False), (main, mirror, modes[1][0], True)]


def prompts(n, length=6, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.integers(CFG.vocab_size, size=length).tolist() for _ in range(n)]


class TestBaselineDecode:
    def test_zero_budget_gives_empty_continuation(self, stack):
        main, _, _ = stack
        assert baseline_decode(main, [1, 2, 3], 0) == []

    def test_deterministic(self, stack):
        main, _, _ = stack
        a = baseline_decode(main, [4, 5], 12, eos_token=None)
        b = baseline_decode(main, [4, 5], 12, eos_token=None)
        assert a == b and len(a) == 12

    def test_capacity_guard(self, stack):
        main, _, _ = stack
        with pytest.raises(CapacityError):
            baseline_decode(main, [1] * 10, CFG.max_seq_len)


DECODERS = {
    "baseline": lambda main, head, prompt, max_new: baseline_decode(main, prompt, max_new),
    "speculative": lambda main, head, prompt, max_new: speculative_decode(main, head, prompt,
                                                                          max_new, 3)[0],
}


@pytest.mark.parametrize("decode", list(DECODERS))
class TestRequestChecks:
    """A request is checked where it enters; nothing is truncated or clamped."""

    @pytest.mark.parametrize("max_new", [-1, -3])
    def test_negative_budget_rejected(self, stack, decode, max_new):
        main, head, _ = stack
        with pytest.raises(ConfigError):
            DECODERS[decode](main, head, [1, 2, 3], max_new)

    @pytest.mark.parametrize("max_new", [3.0, 2.5, -3.0, "3", None])
    def test_non_integer_budget_rejected(self, stack, decode, max_new):
        main, head, _ = stack
        with pytest.raises(TypeError):
            DECODERS[decode](main, head, [1, 2, 3], max_new)

    @pytest.mark.parametrize("prompt", [[1.7, 2], [1, 2.0], np.array([1.0, 2.0]), ["3"]])
    def test_non_integer_prompt_rejected(self, stack, decode, prompt):
        main, head, _ = stack
        with pytest.raises(TypeError):
            DECODERS[decode](main, head, prompt, 4)

    @pytest.mark.parametrize("prompt,max_new", [([True, 2, 3], 4), ([1, 2, 3], True)],
                             ids=["prompt-bool", "budget-bool"])
    def test_bool_is_not_an_integer(self, stack, decode, prompt, max_new):
        main, head, _ = stack
        with pytest.raises(TypeError):
            DECODERS[decode](main, head, prompt, max_new)

    def test_numpy_integers_decode_like_ints(self, stack, decode):
        main, head, _ = stack
        expected = DECODERS[decode](main, head, [4, 5, 6], 5)
        assert DECODERS[decode](main, head, np.array([4, 5, 6]), np.int64(5)) == expected

    @pytest.mark.parametrize("bad", [CFG.vocab_size, CFG.vocab_size + 7, -1])
    def test_out_of_vocabulary_prompt_rejected_before_any_forward(self, stack, decode, bad,
                                                                   monkeypatch):
        main, head, _ = stack

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before the prompt was checked")

        monkeypatch.setattr(specdec, "main_forward", no_forward)
        with pytest.raises(IndexError):
            DECODERS[decode](main, head, [1, bad, 2], 4)


@pytest.mark.parametrize("bad", [CFG.vocab_size, CFG.vocab_size + 7, -1])
def test_session_checks_prompt_ids_at_construction(stack, bad):
    main, head, _ = stack
    with pytest.raises(IndexError):
        DecodeSession(main, head, [bad], 4)


@pytest.mark.parametrize("k_depth", [3.0, 1.5, "3", None])
def test_non_integer_depth_rejected(stack, k_depth):
    main, head, _ = stack
    with pytest.raises(TypeError):
        speculative_decode(main, head, [1, 2, 3], 4, k_depth)


def test_bool_depth_rejected(stack):
    main, head, _ = stack
    with pytest.raises(TypeError):
        speculative_decode(main, head, [1, 2, 3], 4, True)


class TestLosslessness:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_baseline_full_vocab(self, decoders, k):
        for main, head, _, accepts in decoders:
            matched = 0
            for p in prompts(6):
                expected = baseline_decode(main, p, 16, eos_token=None)
                got, m = speculative_decode(main, head, p, 16, k, eos_token=None)
                assert got == expected
                matched = max([matched] + [r["matched"] for r in m.records])
            if accepts and k:
                assert matched >= 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_baseline_compressed(self, decoders, k):
        for main, head, small, accepts in decoders:
            matched = 0
            for p in prompts(6, seed=2):
                expected = baseline_decode(main, p, 16, eos_token=None)
                got, m = speculative_decode(main, head, p, 16, k, vocab=small,
                                            eos_token=None)
                assert got == expected
                matched = max([matched] + [r["matched"] for r in m.records])
            if accepts:
                assert matched >= 1

    def test_eos_stops_both_paths_identically(self, drafting):
        main, (random_head, mirror), _ = drafting
        p = prompts(1, seed=3)[0]
        free_run = baseline_decode(main, p, 20, eos_token=None)
        # declare as EOS a token the model first emits a few steps in, so it lands in a round
        at = next(i for i, t in enumerate(free_run) if i >= 3 and t not in free_run[:i])
        eos = free_run[at]
        expected = baseline_decode(main, p, 20, eos_token=eos)
        assert expected == free_run[:at + 1]
        for head in (random_head, mirror):
            for k in (1, 2, 4):
                got, m = speculative_decode(main, head, p, 20, k, eos_token=eos)
                assert got == expected
                assert m.rounds >= 1 and sum(r["committed"] for r in m.records) == at
                last = m.records[-1]
                if head is mirror:  # the EOS arrives as an accepted draft and cuts its round
                    assert last["matched"] >= last["committed"]
                    assert last["drafts"][last["committed"] - 1] == eos

    def test_negative_depth_rejected(self, stack):
        main, head, _ = stack
        with pytest.raises(ConfigError):
            speculative_decode(main, head, prompts(1)[0], 8, -1)


# every public tensor function a forward could call; the rest build tapes or check them
PUBLIC_PRIMITIVES = sorted(
    name for name, f in vars(tn).items()
    if inspect.isfunction(f) and f.__module__ == tn.__name__ and not name.startswith("_")
    and name not in ("diverted_grads", "grad_check"))


def test_tape_free_decodes_run_on_the_kernels(monkeypatch):
    """With no tape active the forwards run on `tensor.Kernels`: the one
    public primitive a decode calls is the logit projection's `matmul`,
    once per backbone forward."""
    main = MainModel.load(STACK / "main.npz")
    head = MTPHead.load(STACK / "head.npz", main)
    bank = VocabBank(main, [load_compressed_vocab(STACK / f"vocab_{tag}_128.json", 512)
                            for tag in ("zh", "en")])
    prompts = [p for tag in ("en", "zh") for p in sample_prompts(tag, 111, 2, 24)]

    def decode(p):
        out, m = speculative_decode(main, head, p, 32, 3, vocab=bank)
        return out, [(r["drafts"], r["matched"], r["committed"]) for r in m.records], m

    expected = [decode(p)[:2] for p in prompts]

    def refuse(*args, **kwargs):
        raise AssertionError("a tape-free decode called a public tensor primitive")

    matmuls = []
    public_matmul = tn.matmul
    for name in PUBLIC_PRIMITIVES:
        monkeypatch.setattr(tn, name, refuse)
    monkeypatch.setattr(tn, "matmul", lambda a, b: matmuls.append(1) or public_matmul(a, b))
    assert {"causal_attention", "embedding", "rms_norm"} <= set(PUBLIC_PRIMITIVES)
    for p, (tokens, rounds) in zip(prompts, expected):
        matmuls.clear()
        out, got, m = decode(p)
        assert (out, got) == (tokens, rounds)
        assert len(matmuls) == m.main_forwards
        matmuls.clear()
        assert baseline_decode(main, p, 32) == tokens
        assert len(matmuls) == len(tokens)


def test_cache_free_tape_free_forwards_run_on_the_kernels(monkeypatch):
    """Cache-free forwards with no tape take the same kernel path as decodes:
    `backbone_hidden` and `main_forward` call one public primitive, the
    logit projection's `matmul`, and a head step calls none."""
    main = MainModel.load(STACK / "main.npz")
    head = MTPHead.load(STACK / "head.npz", main)
    tokens = sample_prompts("en", 112, 1, 40)[0]

    def run():
        hidden, logits = main_forward(main, tokens)
        step = mtp_step(head, hidden.data[:-1], tokens[1:])
        return [hidden.data, logits.data, backbone_hidden(main, tokens),
                *(t.data for t in step)]

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a tape-free forward called a public tensor primitive")

    matmuls = []
    public_matmul = tn.matmul
    for name in PUBLIC_PRIMITIVES:
        monkeypatch.setattr(tn, name, refuse)
    monkeypatch.setattr(tn, "matmul", lambda a, b: matmuls.append(1) or public_matmul(a, b))
    got = run()
    assert len(matmuls) == 2  # main_forward's projection, and backbone_hidden's
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


class TestDecodeLoopProperties:
    """The draft/verify/rollback loop over drawn prompts, budgets, depths,
    end-of-sequence tokens, heads and vocabulary modes."""

    def test_drafting_fixture_reaches_every_round_shape(self, drafting):
        main, (_, mirror), _ = drafting
        shapes, checked = set(), set()
        for p in prompts(6, seed=21) + prompts(6, seed=23):
            free_run = baseline_decode(main, p, 30, eos_token=None)
            for eos in (None, free_run[-1]):
                _, m = speculative_decode(main, mirror, p, 30, 4, eos_token=eos)
                shapes |= {("all accepted" if r["matched"] == len(r["drafts"]) else
                            "none accepted" if r["matched"] == 0 else "some accepted",
                            "cut by eos" if r["committed"] < r["matched"] + 1 else "whole")
                           for r in m.records if r["drafts"]}
                # a round after a drafting round whose first draft was rejected checks
                # its first draft: one forward and one draft when rejected, two when accepted
                drafted = [r for r in m.records if r["drafts"]]
                for prev, r in zip(drafted, drafted[1:]):
                    if prev["matched"]:
                        assert r["forwards"] == 1
                    elif r["matched"]:
                        checked.add("first accepted")
                        assert r["forwards"] == 2
                    else:
                        checked.add("first rejected")
                        assert (r["forwards"], len(r["drafts"])) == (1, 1)
        assert {s for s, _ in shapes} == {"all accepted", "some accepted", "none accepted"}
        assert ("all accepted", "cut by eos") in shapes
        assert checked == {"first accepted", "first rejected"}

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_loop_is_lossless_and_counts_agree(self, drafting, data):
        main, heads, modes = drafting
        prompt = data.draw(st.lists(st.integers(0, CFG.vocab_size - 1), min_size=1,
                                    max_size=12), label="prompt")
        max_new = data.draw(st.integers(0, 40), label="max_new")
        k = data.draw(st.integers(0, 5), label="k")
        head = data.draw(st.sampled_from(heads), label="head")
        vocab, lang = data.draw(st.sampled_from(modes), label="vocab mode")
        free_run = baseline_decode(main, prompt, max_new, eos_token=None)
        eos = data.draw(st.one_of(st.none(), st.sampled_from(free_run)) if free_run
                        else st.none(), label="eos")

        out, m = speculative_decode(main, head, prompt, max_new, k, vocab=vocab, lang=lang,
                                    eos_token=eos)
        assert out == baseline_decode(main, prompt, max_new, eos_token=eos)
        assert m.rounds == len(m.records)
        if max_new == 0:
            assert m.main_forwards == 0 and m.output_tokens == 0
            return
        assert m.output_tokens == sum(r["committed"] for r in m.records) == len(out) - 1
        assert m.main_forwards == 1 + sum(r["forwards"] for r in m.records)
        # assert_array_equal takes nan as equal to nan
        np.testing.assert_array_equal(tau_from_records(m.records), m.tau)
        np.testing.assert_array_equal(rates_from_records(m.records, k),
                                      [m.rate(j) for j in range(1, k + 1)])


class TestVerifyRule:
    def _session_with_prefill(self, main, head, p, max_new=16):
        session = DecodeSession(main, head, p, max_new, eos_token=None)
        session.prefill()
        return session

    def _manual_round(self, session, drafts):
        return DraftRound(tokens=drafts, lang="*", base_verified=len(session.verified))

    def test_prefix_match_then_correction(self, stack):
        main, head, _ = stack
        p = prompts(1, seed=4)[0]
        greedy = baseline_decode(main, p, 6, eos_token=None)
        session = self._session_with_prefill(main, head, p)
        assert session.verified[-1] == greedy[0]
        wrong = (greedy[3] + 1) % CFG.vocab_size
        rec = verify_round(session, self._manual_round(session, [greedy[1], greedy[2], wrong]))
        assert rec["matched"] == 2
        assert rec["committed"] == 3 and session.verified[-3:] == greedy[1:4]
        assert rec["next_token"] == greedy[3]
        assert rec is session.metrics.records[-1]

    def test_all_match_gives_bonus(self, stack):
        main, head, _ = stack
        p = prompts(1, seed=5)[0]
        greedy = baseline_decode(main, p, 6, eos_token=None)
        session = self._session_with_prefill(main, head, p)
        rec = verify_round(session, self._manual_round(session, greedy[1:4]))
        assert rec["matched"] == 3
        assert rec["committed"] == 4 and session.verified[-4:] == greedy[1:5]
        assert rec["next_token"] == greedy[4]

    def test_first_mismatch_accepts_zero(self, stack):
        main, head, _ = stack
        p = prompts(1, seed=6)[0]
        greedy = baseline_decode(main, p, 4, eos_token=None)
        session = self._session_with_prefill(main, head, p)
        wrong = (greedy[1] + 1) % CFG.vocab_size
        rec = verify_round(session, self._manual_round(session, [wrong, 0, 0]))
        assert rec["matched"] == 0
        assert rec["committed"] == 1 and session.verified[-1] == greedy[1]

    def test_checked_round_stops_at_a_rejected_first_draft(self, stack):
        main, head, _ = stack  # a random head: every draft is rejected
        p = prompts(1, seed=19)[0]
        greedy = baseline_decode(main, p, 3, eos_token=None)
        session = self._session_with_prefill(main, head, p)
        first = verify_round(session, draft_round(session, 3))
        assert (len(first["drafts"]), first["matched"], first["forwards"]) == (3, 0, 1)
        rnd = draft_round(session, 3)
        assert len(rnd.tokens) == 1 and rnd.tokens != greedy[2:3]
        rec = verify_round(session, rnd)
        assert (rec["matched"], rec["committed"], rec["forwards"]) == (0, 1, 1)
        assert rec["next_token"] == session.verified[-1] == greedy[2]
        m = session.metrics
        assert (m.main_forwards, m.draft_forwards) == (3, 4)
        assert session.main_cache.length == len(session.verified) - 1
        assert cache_consistency_gap(session) < 1e-9
        np.testing.assert_array_equal(rates_from_records(m.records, 3),
                                      [m.rate(k) for k in (1, 2, 3)])

    def test_round_session_mismatch_rejected(self, stack):
        main, head, _ = stack
        p = prompts(1, seed=7)[0]
        session = self._session_with_prefill(main, head, p)
        stale = DraftRound(tokens=[1], lang="*", base_verified=len(session.verified) - 1)
        with pytest.raises(StateError):
            verify_round(session, stale)
        # the random head's first draft is rejected, so the next draft_round runs a row
        # that a hand-built round, which has run none, would run again
        verify_round(session, draft_round(session, 3))
        draft_round(session, 3)
        with pytest.raises(StateError):
            verify_round(session, self._manual_round(session, [1]))

    def test_head_bound_to_another_backbone_rejected(self, stack):
        main, _, _ = stack
        other, foreign_head = init_model(ModelConfig(**{**CFG.__dict__, "seed": 99}))
        other.freeze()
        with pytest.raises(StateError, match="different model"):
            DecodeSession(main, foreign_head, [1, 2], 4)
        with pytest.raises(StateError, match="different model"):
            speculative_decode(main, foreign_head, prompts(1)[0], 8, 3, eos_token=None)


class TestDraftRound:
    def test_k0_round_is_empty(self, stack):
        main, head, _ = stack
        session = DecodeSession(main, head, prompts(1, seed=8)[0], 8, eos_token=None)
        session.prefill()
        rnd = draft_round(session, 0)
        assert rnd.tokens == []
        rec = verify_round(session, rnd)
        assert rec["committed"] == 1 and rec["matched"] == 0

    def test_draft_cache_grows_by_drafted_steps(self, stack):
        main, head, _ = stack
        session = DecodeSession(main, head, prompts(1, seed=9)[0], 12, eos_token=None)
        session.prefill()
        k = 4
        rnd = draft_round(session, k)
        assert len(rnd.tokens) == k
        # extend phase reaches the backbone-backed prefix, then one slot per extra draft
        assert session.draft_cache.length == len(session.verified) - 1 + (k - 1)
        assert session.draft_cache.length <= session.main_cache.length + k

    def test_rollback_restores_backbone_backed_prefix(self, stack):
        main, head, _ = stack
        session = DecodeSession(main, head, prompts(1, seed=10)[0], 16, eos_token=None)
        session.prefill()
        rnd = draft_round(session, 3)
        verify_round(session, rnd)
        assert session.draft_cache.length <= len(session.verified) - 1
        assert session.main_cache.length == len(session.verified) - 1


class TestMetrics:
    def test_bookkeeping_invariants(self, decoders):
        for main, head, _, accepts in decoders:
            out, m = speculative_decode(main, head, prompts(1, seed=11)[0], 20, 3,
                                        eos_token=None)
            assert len(out) == 20
            assert m.output_tokens == sum(r["committed"] for r in m.records)
            assert m.output_tokens == len(out) - 1  # prefill commits the first token
            assert m.main_forwards == 1 + sum(r["forwards"] for r in m.records)
            assert m.draft_forwards == sum(len(r["drafts"]) for r in m.records)
            assert 1.0 <= m.tau <= 4.0
            matched_total = sum(r["matched"] for r in m.records)
            assert sum(m.accepted.values()) == matched_total
            if accepts:
                assert matched_total >= 1

    def test_wall_time_covers_session_setup(self, stack, monkeypatch):
        main, head, _ = stack
        new_cache = head.new_cache

        def slow_cache():  # the session allocates its draft cache before the prefill
            time.sleep(0.02)
            return new_cache()

        monkeypatch.setattr(head, "new_cache", slow_cache)
        _, m = speculative_decode(main, head, prompts(1, seed=11)[0], 4, 2, eos_token=None)
        assert m.wall_ns >= 20_000_000

    def test_tau_and_rates_equal_log_replay(self, decoders, tmp_path):
        for main, head, _, accepts in decoders:
            _, m = speculative_decode(main, head, prompts(1, seed=12)[0], 18, 2,
                                      eos_token=None)
            path = tmp_path / "rounds.jsonl"
            write_round_log(path, m.records)
            records = read_round_log(path)
            assert tau_from_records(records) == pytest.approx(m.tau, abs=1e-12)
            replayed_rates = rates_from_records(records, 2)
            for k in (1, 2):
                if m.reached.get(k):
                    assert replayed_rates[k - 1] == pytest.approx(m.rate(k), abs=1e-12)
            if accepts:
                assert m.tau > 1.0

    # each case replaces fields of a valid record; the last two lines are not objects
    @pytest.mark.parametrize("fields", [
        {"drafts": [1, 64]},
        {"drafts": [1, -2]},
        {"drafts": [1, 2.0]},
        {"drafts": "12"},
        {"matched": 3},
        {"matched": -1},
        {"committed": 0},
        {"committed": 3},
        {"drafts": [1, 2], "matched": 5, "committed": -1},
        {"verify_vocab_width": None},
        {"forwards": 3},
        {"forwards": 0},
        {"forwards": 1.0},
        {"forwards": True},
        {"draft_ns": "x"},
        {"next_token": 1000000},
        {"lang": 7},
        {"round": -3},
        {"verify_ns": -1.5},
        {"next_token": -1},
        {"round": True},
        "[1, 2]",
        "7",
    ], ids=["draft-id-at-width", "negative-draft", "float-draft", "drafts-not-a-list",
            "matched-beyond-drafts", "negative-matched", "zero-committed",
            "committed-beyond-matched", "all-out-of-range", "missing-width",
            "three-forwards", "zero-forwards", "float-forwards", "bool-forwards",
            "string-draft-ns", "next-token-past-width", "int-lang", "negative-round",
            "float-verify-ns", "negative-next-token", "bool-round",
            "list-line", "number-line"])
    def test_malformed_round_log_rejected(self, tmp_path, fields):
        valid = {"round": 0, "drafts": [1, 2], "matched": 1, "committed": 2,
                 "verify_vocab_width": 64}
        path = tmp_path / "rounds.jsonl"
        bad = fields if isinstance(fields, str) else json.dumps(
            {k: v for k, v in {**valid, **fields}.items() if v is not None})
        path.write_text(json.dumps(valid) + "\n" + bad + "\n")
        with pytest.raises(ConfigError, match="rounds.jsonl:2: "):
            read_round_log(path)

    def test_round_log_record_without_forwards_ran_one(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        path.write_text(json.dumps({"round": 0, "drafts": [1], "matched": 1, "committed": 2,
                                    "verify_vocab_width": 64}) + "\n")
        assert read_round_log(path)[0]["forwards"] == 1

    def test_c_draft_is_per_verification_forward(self, decoders):
        """c_draft divides by the verification forwards: main_forwards - 1 per decode,
        and the round count for decodes whose rounds each run one forward."""
        for main, head, _, accepts in decoders:
            runs = [speculative_decode(main, head, p, 20, 3, eos_token=None)[1]
                    for p in prompts(3, seed=13)]
            pooled = DecodeMetrics()
            for m in runs:
                pooled.merge(m)
            for m, decodes in [(m, 1) for m in runs] + [(pooled, len(runs))]:
                step_ns = m.draft_ns / m.draft_forwards
                assert m.c_draft == step_ns / (m.verify_ns / (m.main_forwards - decodes))
                if not accepts:  # every draft rejected: every round runs one forward
                    assert m.c_draft == step_ns / (m.verify_ns / m.rounds)
            if accepts:
                assert pooled.main_forwards - len(runs) > pooled.rounds

    def test_merge_pools_counters_and_replays_rates(self, decoders):
        for main, head, small, accepts in decoders:
            runs = [speculative_decode(main, head, p, 14, 3, vocab=small, eos_token=None)[1]
                    for p in prompts(3, seed=18)]
            pooled = DecodeMetrics()
            for m in runs:
                pooled.merge(m)
            for name in ("rounds", "output_tokens", "main_forwards", "draft_forwards",
                         "wall_ns", "prefill_ns", "draft_ns", "verify_ns", "draft_mults"):
                assert getattr(pooled, name) == sum(getattr(m, name) for m in runs), name
            for k in (1, 2, 3):
                assert pooled.reached.get(k, 0) == sum(m.reached.get(k, 0) for m in runs)
                assert pooled.accepted.get(k, 0) == sum(m.accepted.get(k, 0) for m in runs)
            assert pooled.records == [r for m in runs for r in m.records]
            replayed = rates_from_records(pooled.records, 3)
            np.testing.assert_array_equal(replayed, [pooled.rate(k) for k in (1, 2, 3)])
            if accepts:
                assert sum(pooled.accepted.values()) >= 1

    def test_untrained_head_has_chance_level_tau(self):
        cfg = ModelConfig(vocab_size=512, model_dim=16, n_layers=1, n_heads=2,
                          max_seq_len=96, seed=13)
        main, head = init_model(cfg)
        main.freeze()
        total_out, total_rounds = 0, 0
        rng = np.random.default_rng(14)
        for _ in range(4):
            p = rng.integers(512, size=8).tolist()
            _, m = speculative_decode(main, head, p, 48, 3, eos_token=None)
            total_out += m.output_tokens
            total_rounds += m.rounds
        tau = total_out / total_rounds
        assert tau - 1.0 < 0.1

    def test_verification_always_full_vocab_width(self, decoders):
        for main, head, small, _ in decoders:
            _, m = speculative_decode(main, head, prompts(1, seed=15)[0], 12, 3,
                                      vocab=small, eos_token=None)
            assert all(r["verify_vocab_width"] == CFG.vocab_size for r in m.records)

    def test_cache_rollback_soundness(self, decoders):
        for main, head, _, _ in decoders:
            session = DecodeSession(main, head, prompts(1, seed=16)[0], 24, eos_token=None)
            session.prefill()
            for _ in range(4):
                rnd = draft_round(session, 3)
                verify_round(session, rnd)
                assert cache_consistency_gap(session) < 1e-9


class TestConcurrency:
    def test_sessions_share_immutable_models_across_threads(self, stack):
        # one session per thread over shared frozen models; results must
        # match the serial run exactly
        import threading

        main, head, _ = stack
        ps = prompts(4, seed=20)
        serial = [speculative_decode(main, head, p, 12, 2, eos_token=None)[0]
                  for p in ps]
        results = [None] * len(ps)

        def worker(i):
            results[i] = speculative_decode(main, head, ps[i], 12, 2,
                                            eos_token=None)[0]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(ps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == serial


class TestVocabBankDispatch:
    def test_bank_requires_matching_model(self, stack):
        main, head, _ = stack
        other, _ = init_model(ModelConfig(**{**CFG.__dict__, "seed": 77}))
        other.freeze()
        bank = VocabBank(other)
        with pytest.raises(StateError):
            DecodeSession(main, head, [1, 2], 4, vocab=bank)

    def test_bare_compressed_vocab_rejected(self, stack):
        main, head, small = stack
        with pytest.raises(ConfigError):
            DecodeSession(main, head, [1, 2], 4, vocab=small.select("toy"))

    def test_explicit_tag_selects_vocab(self, stack):
        main, head, bank = stack
        _, m = speculative_decode(main, head, prompts(1, seed=17)[0], 8, 2,
                                  vocab=bank, lang="toy", eos_token=None)
        assert all(r["lang"] == "toy" for r in m.records)
        _, m2 = speculative_decode(main, head, prompts(1, seed=17)[0], 8, 2,
                                   vocab=bank, lang="unknown", eos_token=None)
        assert all(r["lang"] == "*" for r in m2.records)
