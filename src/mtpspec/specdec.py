"""Lossless speculative decoding with a recursive single-head drafter.

Each round drafts up to K tokens (none at K=0) by running the head over
its own stream, then verifies them with the backbone: drafts are
accepted left to right until the first position where they differ from
the backbone's greedy choice, whose own token is then committed as well.
One rollback rule follows: the backbone cache keeps every verified token
but the last, and the draft cache keeps only the positions whose hidden
came from the backbone. So the output is token-exact equal to plain
greedy decoding. `verify_round` returns the record it logs. Each round
drafts over the vocabulary the session's `VocabBank` selects for its
context; a session without a bank drafts over the full vocabulary.

A round verifies [last verified token, drafts] in one backbone forward,
unless the session's last drafting round had its first draft rejected:
first-draft acceptance runs in streaks, so such a round first runs the
backbone over the last verified token alone, drafts step 1, and drafts
no further if that draft is rejected; `verify_round` then forwards only
the rows not yet run, and none after a rejected first draft. Tokens,
rounds, tau and per-step rates are those of one-forward rounds; draft
steps fall, and backbone forwards rise where a checked first draft is
accepted. Speed ratio, one-forward rounds' time over this rule's (K=3,
seed 601 requests, median of interleaved passes):

    committed perfbench stack           1.255
    reduced-pipeline head               1.216
    depth-2 stack, rebuilt              1.010 (a tie)
    depth-8 backbone                    1.009 (a tie)

A session's head must be bound to its backbone, whose embeddings it
drafts from.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .data import EOS_TOKEN, read_json_lines, write_json_lines
from .errors import CapacityError, ConfigError, ShapeError, StateError
from .model import MTPHead, MainModel, greedy_argmax, greedy_rows, main_forward, mtp_step
from .vocab import VocabBank, draft_logits_compressed


@dataclass
class DecodeMetrics:
    rounds: int = 0
    output_tokens: int = 0            # committed by verify rounds (prefill excluded)
    main_forwards: int = 0            # the prefill plus each round's `forwards` (1 or 2)
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
        """Mean committed tokens per round (a round may run two backbone
        forwards, so this is not per verification forward)."""
        return self.output_tokens / self.rounds if self.rounds else float("nan")

    def rate(self, k: int) -> float:
        """Among rounds reaching draft step k, the fraction accepting it."""
        reached = self.reached.get(k, 0)
        return self.accepted.get(k, 0) / reached if reached else float("nan")

    @property
    def c_draft(self) -> float:
        """Mean draft-step time over mean verification-forward time. The
        verification forwards are the rounds' `forwards`: `main_forwards - 1`
        for one decode, and still right when decodes are pooled."""
        verify_forwards = sum(r["forwards"] for r in self.records)
        if not self.draft_forwards or not verify_forwards:
            return 0.0
        return (self.draft_ns / self.draft_forwards) / (self.verify_ns / verify_forwards)

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


@dataclass(slots=True)
class DraftRound:
    tokens: list[int]
    lang: str
    base_verified: int
    draft_ns: int = 0
    # the backbone's greedy choices after the rows `draft_round` already ran
    # (none, or the last verified token's), and that forward's time
    greedy: list[int] = field(default_factory=list)
    verify_ns: int = 0


def _integer(value, what: str) -> int:
    """`value` as an int through `operator.index`, so a float raises `TypeError`
    rather than be truncated; so does a bool, which is not a count or an id."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


def _checked_request(main: MainModel, prompt, max_new_tokens) -> tuple[list[int], int]:
    """The prompt as a list of ints and the token budget as an int, or a typed
    error (`_integer`)."""
    prompt = [_integer(t, "a prompt token") for t in prompt]
    max_new_tokens = _integer(max_new_tokens, "max_new_tokens")
    if not prompt:
        raise ShapeError("prompt must be nonempty")
    if max_new_tokens < 0:
        raise ConfigError("max_new_tokens must be >= 0")
    if len(prompt) + max_new_tokens > main.config.max_seq_len:
        raise CapacityError(
            f"prompt {len(prompt)} + max_new {max_new_tokens} exceeds "
            f"max_seq_len {main.config.max_seq_len}")
    return prompt, max_new_tokens


class DecodeSession:
    """Mutable per-generation state: caches, hidden history and metrics."""

    def __init__(self, main: MainModel, head: MTPHead, prompt,
                 max_new_tokens: int, vocab: VocabBank | None = None,
                 lang: str | None = None, eos_token: int | None = EOS_TOKEN):
        prompt, max_new_tokens = _checked_request(main, prompt, max_new_tokens)
        if head.main is not main:
            raise StateError("draft head is bound to a different model")
        bank = VocabBank(main) if vocab is None else vocab
        if not isinstance(bank, VocabBank):
            raise ConfigError(f"vocab must be a VocabBank or None, not {type(vocab).__name__}")
        if bank.main is not main:
            raise StateError("vocab bank was built for a different model")
        self.main = main
        self.head = head
        self.prompt_len = len(prompt)
        self.max_new = max_new_tokens
        self.bank = bank
        self.lang = lang
        self.eos = eos_token
        self.main_cache = main.new_cache()
        self.draft_cache = head.new_cache()
        # the backbone's hidden at each position the main cache holds
        self.hiddens = np.zeros((main.config.max_seq_len, main.config.model_dim))
        self.verified: list[int] = list(prompt)
        self.metrics = DecodeMetrics()
        self.finished = False
        # whether the last round that drafted had its first draft rejected
        self.first_draft_rejected = False

    @property
    def generated(self) -> int:
        return len(self.verified) - self.prompt_len

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
    embedding. Greedy choice runs over the vocabulary the bank selects.

    When the session's last drafting round had its first draft rejected,
    the round first runs the backbone over the last verified token (the
    row `verify_round` would run first), and stops drafting after step 1
    if that draft differs from the backbone's greedy choice.
    """
    cv = session.bank.select(session.lang, session.verified)
    head, cache, eos = session.head, session.draft_cache, session.eos
    stream_len, n_hidden = cache.length, session.main_cache.length
    h_in = session.hiddens[stream_len:n_hidden]
    step_tokens = session.verified[stream_len + 1:n_hidden + 1]
    greedy, verify_ns = (_verify_rows(session, [session.verified[-1]])
                         if session.first_draft_rejected else ([], 0))
    tokens: list[int] = []
    clock, round_ns = time.perf_counter_ns, 0
    while len(tokens) < k_depth:
        t0 = clock()
        h_new, pre = mtp_step(head, h_in, step_tokens, cache)
        tok = draft_logits_compressed(pre.data[-1], cv)[1]
        round_ns += clock() - t0
        tokens.append(tok)
        if tok == eos or (greedy and tokens[0] != greedy[0]):
            break
        h_in, step_tokens = h_new.data[-1:], [tok]

    m = session.metrics
    m.draft_ns += round_ns
    m.draft_forwards += len(tokens)
    m.draft_mults += len(tokens) * cv.w_view.size
    return DraftRound(tokens, cv.lang, len(session.verified), round_ns, greedy, verify_ns)


def _verify_rows(session: DecodeSession, rows: list[int]) -> tuple[list[int], int]:
    """One backbone forward over `rows` after the cached prefix: store their
    hiddens, count the forward, and return the greedy choice after each row
    and the forward's time."""
    t0 = time.perf_counter_ns()
    hidden, logits = main_forward(session.main, rows, session.main_cache)
    ns = time.perf_counter_ns() - t0
    session.metrics.verify_ns += ns
    session.metrics.main_forwards += 1
    end = session.main_cache.length
    session.hiddens[end - len(rows):end] = hidden.data
    return greedy_rows(logits.data), ns


def verify_round(session: DecodeSession, rnd: DraftRound) -> dict:
    """One backbone forward over the rows of [last verified token, drafts]
    that `draft_round` has not run, or none when `draft_round` already saw
    the first draft rejected; commit the matched prefix plus the backbone's
    own next token, roll both caches back, and return the round's record
    (also appended to the metrics)."""
    tokens, verified = rnd.tokens, session.verified
    if (rnd.base_verified != len(verified)
            or session.main_cache.length != rnd.base_verified - 1 + len(rnd.greedy)):
        raise StateError("draft round does not match current session state")

    greedy, verify_ns = rnd.greedy, rnd.verify_ns
    forwards = 1 if greedy else 0
    if tokens[:len(greedy)] == greedy:
        more, ns = _verify_rows(session, ([verified[-1]] + tokens)[len(greedy):])
        greedy = greedy + more
        verify_ns += ns
        forwards += 1

    drafted = len(tokens)
    matched = 0
    while matched < drafted and tokens[matched] == greedy[matched]:
        matched += 1
    bonus = greedy[matched]
    committed = tokens[:matched] + [bonus]

    # an accepted end-of-sequence stops generation; later tokens are discarded
    if session.eos is not None and session.eos in committed:
        committed = committed[:committed.index(session.eos) + 1]
        session.finished = True
    room = session.max_new - session.generated
    if len(committed) > room:
        committed = committed[:room]
    bonus_committed = bonus if len(committed) == matched + 1 else None

    verified.extend(committed)
    if session.generated >= session.max_new:
        session.finished = True

    session.main_cache.truncate(len(verified) - 1)
    # drop the drafted positions: keep those whose hidden came from the backbone
    session.draft_cache.truncate(min(session.draft_cache.length, rnd.base_verified - 1))

    if drafted:
        session.first_draft_rejected = matched == 0
    m = session.metrics
    m.rounds += 1
    m.output_tokens += len(committed)
    m.tally(drafted, matched)
    record = {
        "round": m.rounds - 1,
        "lang": rnd.lang,
        "drafts": list(tokens),
        "matched": matched,
        "committed": len(committed),
        "next_token": bonus_committed,
        "draft_ns": rnd.draft_ns,
        "verify_ns": verify_ns,
        "verify_vocab_width": session.main.config.vocab_size,
        "forwards": forwards,
    }
    m.records.append(record)
    return record


def speculative_decode(main: MainModel, head: MTPHead, prompt, max_new_tokens: int,
                       k_depth: int, vocab: VocabBank | None = None,
                       lang: str | None = None, eos_token: int | None = EOS_TOKEN):
    """Draft/verify loop; returns (continuation tokens, metrics).

    The continuation is token-exact equal to `baseline_decode` for every
    prompt, depth and vocabulary mode: drafts only ever propose, the
    backbone's greedy choices decide.
    """
    k_depth = _integer(k_depth, "k_depth")
    if k_depth < 0:
        raise ConfigError("k_depth must be >= 0")
    t0 = time.perf_counter_ns()
    session = DecodeSession(main, head, prompt, max_new_tokens,
                            vocab=vocab, lang=lang, eos_token=eos_token)
    if session.max_new == 0:
        return [], session.metrics
    session.prefill()
    while not session.finished:
        remaining = session.max_new - session.generated
        rnd = draft_round(session, min(k_depth, remaining - 1))
        verify_round(session, rnd)
    session.metrics.wall_ns = time.perf_counter_ns() - t0
    return session.verified[session.prompt_len:], session.metrics


def baseline_decode(main: MainModel, prompt, max_new_tokens: int,
                    eos_token: int | None = EOS_TOKEN) -> list[int]:
    """Plain greedy next-token loop, `decode_loop` picking by `greedy_argmax`;
    the correctness oracle for the rest."""
    prompt, max_new_tokens = _checked_request(main, prompt, max_new_tokens)
    if max_new_tokens == 0:
        return []
    return decode_loop(main, prompt, max_new_tokens, eos_token, greedy_argmax)


def decode_loop(main: MainModel, prompt, max_new_tokens: int, eos_token: int | None,
                pick: Callable[[np.ndarray], int]) -> list[int]:
    """The one next-token loop: a cached prefill of `prompt`, then one-row
    forwards, each next token `pick(last logit row)`, until `eos_token` or
    `max_new_tokens` (at least 1) tokens. The caller checks the request."""
    cache = main.new_cache()
    _, logits = main_forward(main, prompt, cache)
    out = [pick(logits.data[-1])]
    while out[-1] != eos_token and len(out) < max_new_tokens:
        _, logits = main_forward(main, [out[-1]], cache)
        out.append(pick(logits.data[-1]))
    return out


# ---------------------------------------------------------------------------
# round logs


def write_round_log(path, records) -> None:
    write_json_lines(path, records)


def read_round_log(path) -> list[dict]:
    """Read a round log; each field a record has must be valid for its drafts and width."""
    out = []
    for lineno, rec in read_json_lines(path):
        rec = {"forwards": 1, **rec}  # a record without the field ran one forward
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
    if type(rec["forwards"]) is not int or rec["forwards"] not in (1, 2):
        return "forwards must be 1 or 2"
    for key in ("round", "draft_ns", "verify_ns"):
        if key in rec and (type(rec[key]) is not int or rec[key] < 0):
            return f"{key} must be a nonnegative integer"
    if "lang" in rec and type(rec["lang"]) is not str:
        return "lang must be a string"
    bonus = rec.get("next_token")
    if bonus is not None and (type(bonus) is not int or not 0 <= bonus < width):
        return f"next_token must be null or a token id in [0, {width})"
    return None
