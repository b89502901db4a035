"""Frequency-ranked, language-aware vocabulary compression for drafting.

Per-language token counts rank the vocabulary; the top slice (plus
force-included specials) forms a compressed output space. Draft logits
are computed against the matching row subset of the shared output head,
so the per-step multiply cost scales with the kept size. Verification is
untouched and always sees the full vocabulary. A `VocabBank` holds one
such vocabulary per language tag and picks the one each draft step
projects onto (`VocabBank.select`), by tag or by context coverage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import FALLBACK_LANG, SPECIAL_TOKENS, read_json
from .errors import ConfigError, ConsistencyError, EmptyCorpusError, StateError
from .model import MainModel

DETECT_WINDOW = 128  # trailing context tokens an untagged selection counts


@dataclass
class FrequencyTable:
    lang: str
    counts: np.ndarray  # int64, one slot per vocabulary id
    total: int

    def coverage(self, keep) -> float:
        """Fraction of corpus occurrences covered by the kept ids."""
        return float(self.counts[np.asarray(keep)].sum() / self.total)

    def to_json(self) -> dict:
        order = np.lexsort((np.arange(self.counts.size), -self.counts))
        pairs = [[int(i), int(self.counts[i])] for i in order if self.counts[i] > 0]
        return {"lang": self.lang, "total": int(self.total), "pairs": pairs}

    @classmethod
    def from_json(cls, obj: dict, vocab_size: int) -> "FrequencyTable":
        _require_keys(obj, ("lang", "total", "pairs"), "frequency table")
        pairs, total = obj["pairs"], obj["total"]
        if type(total) is not int or type(pairs) is not list or any(
                type(pair) is not list or len(pair) != 2
                or type(pair[0]) is not int or type(pair[1]) is not int
                for pair in pairs):
            raise ConfigError("frequency table pairs must be [id, count] integers, "
                              "its total an integer")
        ids = [token_id for token_id, _ in pairs]
        if any(not 0 <= i < vocab_size for i in ids):
            raise ConfigError(f"frequency table ids must lie in [0, {vocab_size})")
        if len(set(ids)) != len(ids):
            raise ConfigError("frequency table lists an id more than once")
        if any(count < 0 for _, count in pairs):
            raise ConfigError("frequency table counts must be nonnegative")
        if total < 1 or sum(count for _, count in pairs) != total:
            raise ConfigError(f"frequency table total {total} must be the positive sum "
                              "of its counts")
        counts = np.zeros(vocab_size, dtype=np.int64)
        for token_id, count in pairs:
            counts[token_id] = count
        return cls(lang=obj["lang"], counts=counts, total=total)


def _require_keys(obj, keys, what: str) -> None:
    """`obj` must be an object with `keys`, a string "lang" among them."""
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise ConfigError(f"{what} must be an object with keys {list(keys)}")
    if type(obj["lang"]) is not str:
        raise ConfigError(f"{what} lang must be a string, not {obj['lang']!r}")


def build_frequency_table(corpus, lang: str, vocab_size: int) -> FrequencyTable:
    """Exact token counts over an iterable of token sequences."""
    counts = np.zeros(vocab_size, dtype=np.int64)
    total = 0
    for seq in corpus:
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
            raise IndexError(f"token id outside vocabulary of size {vocab_size}")
        counts += np.bincount(arr, minlength=vocab_size)
        total += arr.size
    if total == 0:
        raise EmptyCorpusError(f"no tokens in corpus for lang {lang!r}")
    return FrequencyTable(lang=lang, counts=counts, total=total)


@dataclass
class CompressedVocab:
    """A high-frequency token subset and its rows of the shared output head."""

    lang: str
    keep: np.ndarray                      # sorted ascending full-vocab ids
    w_view: np.ndarray | None = None      # rows of the shared output head, keep order
    _w_source: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.keep.size)

    def bind(self, main: MainModel) -> "CompressedVocab":
        """Copy the output-head rows (of `main.embed`, the tied head) this
        vocabulary drafts against.

        The backbone must be frozen (`StateError` otherwise): training
        updates the head in place, which the copied rows would not follow.
        """
        if not main.frozen:
            raise StateError("a compressed vocabulary binds to a frozen backbone only")
        w = main.embed.data
        self.w_view = w[self.keep]
        self._w_source = w
        return self

    def check_bound(self, w: np.ndarray | None = None) -> None:
        if self.w_view is None:
            raise ConsistencyError("compressed vocabulary is not bound to an output head")
        if w is not None and self._w_source is not w:
            raise ConsistencyError("compressed head view is stale: output head changed")

    def to_json(self) -> dict:
        return {"lang": self.lang, "size": self.size,
                "keep": [int(i) for i in self.keep]}

    @classmethod
    def from_json(cls, obj: dict, vocab_size: int) -> "CompressedVocab":
        _require_keys(obj, ("lang", "keep"), "compressed vocabulary")
        ids = obj["keep"]
        if type(ids) is not list or any(type(i) is not int for i in ids):
            raise ConfigError("compressed vocabulary keep must be a list of integer ids")
        size = obj.get("size", len(ids))
        if type(size) is not int or size != len(ids):
            raise ConfigError(f"compressed vocabulary size {size!r} must be the integer "
                              f"{len(ids)}, its number of ids")
        keep = np.asarray(sorted(ids), dtype=np.int64)
        if not keep.size or keep[0] < 0 or keep[-1] >= vocab_size:
            raise ConfigError(f"compressed vocabulary ids must be a nonempty "
                              f"subset of [0, {vocab_size})")
        if np.any(keep[1:] == keep[:-1]):
            raise ConfigError("compressed vocabulary lists an id more than once")
        return cls(lang=obj["lang"], keep=keep)


def compress_vocab(table: FrequencyTable, size: int,
                   specials=SPECIAL_TOKENS,
                   main: MainModel | None = None) -> CompressedVocab:
    """The specials, then the highest-counted other tokens (ties to the lower
    id) up to `size` in all. Pass `main` to bind the head-row view immediately.
    """
    vocab_size = table.counts.size
    specials = np.asarray(list(dict.fromkeys(specials)), dtype=np.int64)
    if not (1 <= size <= vocab_size):
        raise ConfigError(f"size {size} outside [1, {vocab_size}]")
    if size < specials.size:
        raise ConfigError(f"size {size} cannot hold {specials.size} special tokens")

    order = np.lexsort((np.arange(vocab_size), -table.counts))
    rest = order[~np.isin(order, specials)][:size - specials.size]
    keep = np.sort(np.concatenate([specials, rest]))
    cv = CompressedVocab(lang=table.lang, keep=keep)
    if main is not None:
        cv.bind(main)
    return cv


def identity_vocab(main: MainModel, lang: str = FALLBACK_LANG) -> CompressedVocab:
    """The full vocabulary expressed as a (bound) compression; the fallback entry."""
    v = main.config.vocab_size
    keep = np.arange(v, dtype=np.int64)
    cv = CompressedVocab(lang=lang, keep=keep)
    cv.w_view = cv._w_source = main.embed.data
    return cv


def draft_logits_compressed(pre_logit_state: np.ndarray, cv: CompressedVocab):
    """Logits over the kept subset only; argmax maps back to a full-vocab id.

    Cost is |keep| * d multiplies, i.e. `cv.w_view.size`.
    """
    cv.check_bound()
    logits = cv.w_view @ pre_logit_state
    comp_idx = int(logits.argmax())
    return logits, int(cv.keep[comp_idx])


class VocabBank:
    """Per-language compressed vocabularies with a full-vocab fallback."""

    def __init__(self, main: MainModel, vocabs=()):
        self.main = main
        self.fallback = identity_vocab(main)
        self.by_lang: dict[str, CompressedVocab] = {}
        for cv in vocabs:
            self.add(cv)

    def add(self, cv: CompressedVocab) -> None:
        if cv.w_view is None:
            cv.bind(self.main)
        cv.check_bound(self.main.embed.data)
        self.by_lang[cv.lang] = cv

    def select(self, lang: str | None, context=()) -> CompressedVocab:
        """The vocabulary a draft step extending `context` projects onto.

        A tag picks its entry (the fallback if absent). With no tag, the
        entry holding most of the last `DETECT_WINDOW` context tokens
        wins, ties going to the smaller keep set, then to the entry added
        first; an empty bank gives the fallback.
        """
        if lang is not None:
            return self.by_lang.get(lang, self.fallback)
        counts = np.bincount(np.asarray(context[-DETECT_WINDOW:], dtype=np.int64),
                             minlength=self.main.config.vocab_size)
        return max(self.by_lang.values(), default=self.fallback,
                   key=lambda cv: (int(counts[cv.keep].sum()), -cv.size))


# ---------------------------------------------------------------------------
# file formats


def save_frequency_table(path, table: FrequencyTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_json(), fh)


def load_frequency_table(path, vocab_size: int) -> FrequencyTable:
    return FrequencyTable.from_json(read_json(path), vocab_size)


def save_compressed_vocab(path, cv: CompressedVocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cv.to_json(), fh)


def load_compressed_vocab(path, vocab_size: int) -> CompressedVocab:
    return CompressedVocab.from_json(read_json(path), vocab_size)
