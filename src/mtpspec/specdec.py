"""Lossless speculative decoding with a recursive single-head drafter.

Each round drafts up to K tokens by running the head recursively over
its own stream, then verifies them with one backbone forward: drafts are
accepted left to right until the first position where they differ from
the backbone's greedy choice, whose own token is then committed as well.
Both KV caches roll back to the verified prefix after every round, so
the output is token-exact equal to plain greedy decoding.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import EOS_TOKEN, read_json_lines
from .errors import CapacityError, ConfigError, ShapeError, StateError
from .model import MTPHead, MainModel, greedy_argmax, greedy_rows, main_forward, mtp_step
from .vocab import (CompressedVocab, VocabBank, detect_language, draft_logits_compressed,
                    identity_vocab)


@dataclass
class DecodeMetrics:
    rounds: int = 0
    output_tokens: int = 0            # committed by verify rounds (prefill excluded)
    main_forwards: int = 0            # rounds + 1 (the prefill)
    draft_forwards: int = 0           # total drafted steps
    reached: dict[int, int] = field(default_factory=dict)
    accepted: dict[int, int] = field(default_factory=dict)
    wall_ns: int = 0
    prefill_ns: int = 0
    draft_ns: int = 0
    verify_ns: int = 0
    draft_mults: int = 0
    records: list[dict] = field(default_factory=list)

    @property
    def tau(self) -> float:
        """Mean committed tokens per verification forward."""
        return self.output_tokens / self.rounds if self.rounds else float("nan")

    def rate(self, k: int) -> float:
        """Among rounds reaching draft step k, the fraction accepting it."""
        reached = self.reached.get(k, 0)
        return self.accepted.get(k, 0) / reached if reached else float("nan")

    @property
    def c_draft(self) -> float:
        """Mean draft-step time over mean verification-forward time."""
        if not self.draft_forwards or not self.rounds:
            return 0.0
        return (self.draft_ns / self.draft_forwards) / (self.verify_ns / self.rounds)

    def tally(self, drafted: int, matched: int) -> None:
        """Count one round's draft steps: step k is reached when every
        earlier draft matched, and accepted when it matched as well."""
        for k in range(1, drafted + 1):
            if k <= matched + 1:
                self.reached[k] = self.reached.get(k, 0) + 1
            if k <= matched:
                self.accepted[k] = self.accepted.get(k, 0) + 1

    def merge(self, other: "DecodeMetrics") -> "DecodeMetrics":
        """Pool another decode into this one: counters, timings and
        per-step counts add up, round records are appended."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, f.name, mine + theirs)
        return self


@dataclass
class DraftRound:
    tokens: list[int]
    lang: str
    base_verified: int
    stream_len_after_extend: int
    draft_ns: int = 0


@dataclass
class VerificationOutcome:
    accepted_count: int               # matched drafts, left to right
    bonus_token: int | None           # the backbone's own next token, if committed
    match_flags: list[bool]
    committed: list[int]


class DecodeSession:
    """Mutable per-generation state: caches, hidden history, metrics."""

    def __init__(self, main: MainModel, head: MTPHead | None, prompt,
                 max_new_tokens: int, vocab=None, lang: str | None = None,
                 eos_token: int | None = EOS_TOKEN):
        prompt = [int(t) for t in prompt]
        if not prompt:
            raise ShapeError("prompt must be nonempty")
        if len(prompt) + max_new_tokens > main.config.max_seq_len:
            raise CapacityError(
                f"prompt {len(prompt)} + max_new {max_new_tokens} exceeds "
                f"max_seq_len {main.config.max_seq_len}")
        if isinstance(vocab, CompressedVocab):
            vocab.check_bound(main.output_w.data)
        if isinstance(vocab, VocabBank) and vocab.main is not main:
            raise StateError("vocab bank was built for a different model")
        self.main = main
        self.head = head
        self.prompt_len = len(prompt)
        self.max_new = max_new_tokens
        self.vocab = vocab
        self.lang = lang
        self.eos = eos_token
        self.main_cache = main.new_cache()
        self.draft_cache = head.new_cache() if head is not None else None
        # the backbone's hidden at each position the main cache holds
        self.hiddens = np.zeros((main.config.max_seq_len, main.config.model_dim))
        self.verified: list[int] = list(prompt)
        self.metrics = DecodeMetrics()
        self.finished = False
        self._full_vocab = identity_vocab(main)

    @property
    def generated(self) -> int:
        return len(self.verified) - self.prompt_len

    def active_vocab(self) -> CompressedVocab:
        if self.vocab is None:
            return self._full_vocab
        if isinstance(self.vocab, VocabBank):
            tag = self.lang if self.lang is not None else detect_language(self.verified)
            return self.vocab.get(tag)
        return self.vocab

    def prefill(self) -> None:
        t0 = time.perf_counter_ns()
        hidden, logits = main_forward(self.main, self.verified, self.main_cache)
        self.metrics.prefill_ns += time.perf_counter_ns() - t0
        self.metrics.main_forwards += 1
        n = len(self.verified)
        self.hiddens[:n] = hidden.data
        first = greedy_argmax(logits.data[-1])
        self.verified.append(first)
        if first == self.eos or self.generated >= self.max_new:
            self.finished = True


def draft_round(session: DecodeSession, k_depth: int) -> DraftRound:
    """Recursively draft up to k_depth tokens with the shared head.

    Step 1 extends the head's stream with the backbone-backed pairs made
    available since the last round (hidden from the backbone, embedding
    of the following verified token) and emits the first draft; later
    steps feed the head's own output hidden plus the previous draft's
    embedding. Greedy choice runs over the active vocabulary.
    """
    if session.head is None:
        raise StateError("session has no draft head")
    cv = session.active_vocab()
    base = len(session.verified)
    if k_depth == 0:
        return DraftRound(tokens=[], lang=cv.lang,
                          base_verified=base,
                          stream_len_after_extend=session.draft_cache.length)

    stream_len = session.draft_cache.length
    n_hidden = session.main_cache.length
    h_in = session.hiddens[stream_len:n_hidden]
    step_tokens = session.verified[stream_len + 1:n_hidden + 1]
    tokens: list[int] = []
    round_ns = 0
    while not tokens or (len(tokens) < k_depth and tokens[-1] != session.eos):
        t0 = time.perf_counter_ns()
        h_new, pre = mtp_step(session.head, h_in, step_tokens, session.draft_cache)
        _, tok = draft_logits_compressed(pre.data[-1], cv)
        round_ns += time.perf_counter_ns() - t0
        if not tokens:
            after_extend = session.draft_cache.length
        tokens.append(tok)
        h_in, step_tokens = h_new.data[-1:], [tok]

    session.metrics.draft_ns += round_ns
    session.metrics.draft_forwards += len(tokens)
    session.metrics.draft_mults += len(tokens) * cv.w_view.size
    return DraftRound(tokens=tokens, lang=cv.lang,
                      base_verified=base, stream_len_after_extend=after_extend,
                      draft_ns=round_ns)


def verify_round(session: DecodeSession, rnd: DraftRound) -> VerificationOutcome:
    """One backbone forward over [last verified token, drafts]; commit the
    matched prefix plus the backbone's own next token, then roll both
    caches back to the verified prefix."""
    if rnd.base_verified != len(session.verified):
        raise StateError("draft round does not match current session state")

    input_tokens = [session.verified[-1]] + rnd.tokens
    t0 = time.perf_counter_ns()
    hidden, logits = main_forward(session.main, input_tokens, session.main_cache)
    verify_ns = time.perf_counter_ns() - t0
    session.metrics.verify_ns += verify_ns
    session.metrics.main_forwards += 1

    end = session.main_cache.length
    session.hiddens[end - len(input_tokens):end] = hidden.data

    greedy = greedy_rows(logits.data)
    flags = [d == greedy[i] for i, d in enumerate(rnd.tokens)]
    matched = 0
    for ok in flags:
        if not ok:
            break
        matched += 1
    bonus = greedy[matched]
    committed = rnd.tokens[:matched] + [bonus]

    # an accepted end-of-sequence stops generation; later tokens are discarded
    if session.eos is not None and session.eos in committed:
        committed = committed[:committed.index(session.eos) + 1]
        session.finished = True
    room = session.max_new - session.generated
    if len(committed) > room:
        committed = committed[:room]
    bonus_committed = bonus if len(committed) == matched + 1 else None

    session.verified.extend(committed)
    if session.generated >= session.max_new:
        session.finished = True

    new_len = len(session.verified)
    session.main_cache.truncate(new_len - 1)
    if session.draft_cache is not None:
        session.draft_cache.truncate(min(rnd.stream_len_after_extend, new_len - 1))

    m = session.metrics
    m.rounds += 1
    m.output_tokens += len(committed)
    m.tally(len(rnd.tokens), matched)
    m.records.append({
        "round": m.rounds - 1,
        "lang": rnd.lang,
        "drafts": list(rnd.tokens),
        "matched": matched,
        "committed": len(committed),
        "next_token": bonus_committed,
        "draft_ns": rnd.draft_ns,
        "verify_ns": verify_ns,
        "verify_vocab_width": int(logits.shape[-1]),
    })
    return VerificationOutcome(accepted_count=matched, bonus_token=bonus_committed,
                               match_flags=flags, committed=committed)


def speculative_decode(main: MainModel, head: MTPHead, prompt, max_new_tokens: int,
                       k_depth: int, vocab=None, lang: str | None = None,
                       eos_token: int | None = EOS_TOKEN):
    """Draft/verify loop; returns (continuation tokens, metrics).

    The continuation is token-exact equal to `baseline_decode` for every
    prompt, depth and vocabulary mode: drafts only ever propose, the
    backbone's greedy choices decide.
    """
    session = DecodeSession(main, head, prompt, max_new_tokens,
                            vocab=vocab, lang=lang, eos_token=eos_token)
    if max_new_tokens == 0:
        return [], session.metrics
    t0 = time.perf_counter_ns()
    session.prefill()
    while not session.finished:
        remaining = session.max_new - session.generated
        rnd = draft_round(session, min(k_depth, remaining - 1))
        verify_round(session, rnd)
    session.metrics.wall_ns = time.perf_counter_ns() - t0
    return session.verified[session.prompt_len:], session.metrics


def baseline_decode(main: MainModel, prompt, max_new_tokens: int,
                    eos_token: int | None = EOS_TOKEN) -> list[int]:
    """Plain greedy next-token loop; the correctness oracle for the rest."""
    prompt = [int(t) for t in prompt]
    if not prompt:
        raise ShapeError("prompt must be nonempty")
    if len(prompt) + max_new_tokens > main.config.max_seq_len:
        raise CapacityError("prompt + max_new_tokens exceeds max_seq_len")
    if max_new_tokens == 0:
        return []
    cache = main.new_cache()
    _, logits = main_forward(main, prompt, cache)
    out = [greedy_argmax(logits.data[-1])]
    while out[-1] != eos_token and len(out) < max_new_tokens:
        _, logits = main_forward(main, [out[-1]], cache)
        out.append(greedy_argmax(logits.data[-1]))
    return out


# ---------------------------------------------------------------------------
# round logs and replay


def write_round_log(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_round_log(path) -> list[dict]:
    """Read a round log; each record's counts must fit its own drafts and width."""
    out = []
    for lineno, rec in read_json_lines(path):
        problem = _round_record_problem(rec)
        if problem:
            raise ConfigError(f"{path}:{lineno}: {problem}")
        out.append(rec)
    return out


def _round_record_problem(rec: dict) -> str | None:
    width, drafts = rec.get("verify_vocab_width"), rec.get("drafts")
    if type(width) is not int or width < 1:
        return "verify_vocab_width must be a positive integer"
    if not isinstance(drafts, list) or any(type(t) is not int or not 0 <= t < width
                                           for t in drafts):
        return f"drafts must be a list of token ids in [0, {width})"
    matched, committed = rec.get("matched"), rec.get("committed")
    if type(matched) is not int or not 0 <= matched <= len(drafts):
        return f"matched must be an integer in [0, {len(drafts)}]"
    if type(committed) is not int or not 1 <= committed <= matched + 1:
        return f"committed must be an integer in [1, {matched + 1}]"
    return None


def tau_from_records(records) -> float:
    """Recompute the mean accepted length from a round log alone."""
    records = list(records)
    return DecodeMetrics(rounds=len(records),
                         output_tokens=sum(r["committed"] for r in records)).tau


def rates_from_records(records, k_depth: int) -> list[float]:
    """Recompute per-step acceptance rates from a round log alone."""
    m = DecodeMetrics()
    for rec in records:
        m.tally(min(k_depth, len(rec["drafts"])), rec["matched"])
    return [m.rate(k) for k in range(1, k_depth + 1)]


def cache_consistency_gap(session: DecodeSession) -> float:
    """Max logit gap between cached-state decoding and a from-scratch forward."""
    _, cached = main_forward(session.main, [session.verified[-1]],
                             session.main_cache.clone())
    _, scratch = main_forward(session.main, session.verified)
    return float(np.max(np.abs(cached.data[-1] - scratch.data[-1])))
