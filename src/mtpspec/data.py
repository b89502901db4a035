"""Token space, desk corpora, and dataset files.

One shared 512-token vocabulary serves every corpus: ids 0..255 are raw
bytes (English and Chinese text are byte-level), two special ids follow,
and the upper range is split into disjoint blocks for two synthetic
Markov "languages" plus a deterministic period-4 cycle. Datasets are
JSON-lines, one example per line.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError


def seed_key(*parts) -> list[int]:
    """Deterministic SeedSequence entropy from mixed int/str parts."""
    return [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]

VOCAB_SIZE = 512
PAD_TOKEN = 256
EOS_TOKEN = 257
SPECIAL_TOKENS = (PAD_TOKEN, EOS_TOKEN)

SYN_A_IDS = tuple(range(260, 384))
SYN_B_IDS = tuple(range(384, 508))
CYCLE_TOKENS = (508, 509, 510, 511)

LANG_TAGS = ("syn-a", "syn-b", "en", "zh", "cycle")
FALLBACK_LANG = "*"


def encode_text(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def decode_tokens(tokens) -> str:
    """Lossy byte-level decode; non-byte ids render as <id> markers."""
    pieces, run = [], bytearray()
    for t in tokens:
        if 0 <= t <= 255:
            run.append(t)
        else:
            if run:
                pieces.append(run.decode("utf-8", errors="replace"))
                run = bytearray()
            pieces.append(f"<{t}>")
    if run:
        pieces.append(run.decode("utf-8", errors="replace"))
    return "".join(pieces)


@dataclass
class TrainingExample:
    prompt: list[int]
    response: list[int]
    lang: str
    source: str
    truncated: bool = False

    def __post_init__(self):
        if not self.response:
            raise ConfigError("response must be nonempty")

    @property
    def tokens(self) -> list[int]:
        return self.prompt + self.response

    def to_json(self) -> dict:
        return {"prompt": self.prompt, "response": self.response,
                "lang": self.lang, "source": self.source, "truncated": self.truncated}

    @classmethod
    def from_json(cls, obj: dict) -> "TrainingExample":
        missing = [key for key in ("prompt", "response", "lang", "source") if key not in obj]
        if missing:
            raise ConfigError(f"dataset example lacks {missing}")
        if not isinstance(obj["prompt"], list) or not isinstance(obj["response"], list):
            raise ConfigError("dataset prompt and response must be lists of token ids")
        if any(type(t) is not int or t < 0 for t in [*obj["prompt"], *obj["response"]]):
            raise ConfigError("dataset token ids must be nonnegative integers")
        if not isinstance(obj["lang"], str) or not isinstance(obj["source"], str):
            raise ConfigError("dataset lang and source must be strings")
        truncated = obj.get("truncated", False)
        if type(truncated) is not bool:
            raise ConfigError("dataset truncated must be true or false")
        return cls(prompt=list(obj["prompt"]), response=list(obj["response"]),
                   lang=obj["lang"], source=obj["source"], truncated=truncated)


def save_dataset(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json()) + "\n")


def read_json(path):
    """The JSON value a file holds; invalid JSON is a `ConfigError` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})") from None


def read_json_lines(path):
    """Yield (line number, object) for each nonblank line of a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise ConfigError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def load_dataset(path, vocab_size: int) -> list[TrainingExample]:
    """Read a JSON-lines dataset whose every id lies below `vocab_size`."""
    out = []
    for lineno, obj in read_json_lines(path):
        try:
            ex = TrainingExample.from_json(obj)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if max(ex.tokens) >= vocab_size:
            raise ConfigError(f"{path}:{lineno}: example {len(out)} has a token id "
                              f"outside [0, {vocab_size})")
        out.append(ex)
    return out


# ---------------------------------------------------------------------------
# corpora


def zipf_probs(n: int, s: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def sample_zipf_tokens(rng: np.random.Generator, ids, count: int,
                       s: float = 1.0) -> list[int]:
    """IID draws from a Zipf(s) law over the given ids (rank = list order)."""
    ids = np.asarray(ids, dtype=np.int64)
    return rng.choice(ids, size=count, p=zipf_probs(ids.size, s)).tolist()


class MarkovLanguage:
    """Seeded order-1 Markov chain with Zipf-weighted branching.

    Each previous token maps to a small candidate set drawn from a
    global Zipf law over the language's ids, so the corpus has a
    long-tail marginal while staying predictable enough to learn at
    desk scale.
    """

    def __init__(self, tag: str, ids, seed: int, branching: int = 16):
        self.tag = tag
        self.ids = np.asarray(ids, dtype=np.int64)
        self.seed = seed
        self.branching = min(branching, self.ids.size)
        self._marginal = zipf_probs(self.ids.size)
        self._transitions: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _table(self, prev: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._transitions.get(prev)
        if cached is None:
            state_rng = np.random.default_rng((self.seed, prev))
            keep = self.ids != prev  # no self-loops: greedy orbits stay multi-token
            pool, p = self.ids[keep], self._marginal[keep]
            cands = state_rng.choice(pool, size=self.branching, replace=False,
                                     p=p / p.sum())
            cached = (cands, zipf_probs(self.branching))
            self._transitions[prev] = cached
        return cached

    def sample(self, rng: np.random.Generator, length: int) -> list[int]:
        tok = int(rng.choice(self.ids, p=self._marginal))
        out = [tok]
        while len(out) < length:
            cands, probs = self._table(out[-1])
            out.append(int(rng.choice(cands, p=probs)))
        return out

    def greedy_continuation(self, prev: int, length: int) -> list[int]:
        """Most likely continuation; the analytic oracle for greedy decodes."""
        out = []
        for _ in range(length):
            cands, _ = self._table(prev)
            prev = int(cands[0])
            out.append(prev)
        return out


class CycleLanguage:
    """A deterministic period-4 token cycle; continuations are analytic."""

    tag = "cycle"
    tokens = CYCLE_TOKENS

    def sample(self, rng: np.random.Generator, length: int) -> list[int]:
        phase = int(rng.integers(len(self.tokens)))
        return [self.tokens[(phase + i) % len(self.tokens)] for i in range(length)]

    def continuation(self, last: int, length: int) -> list[int]:
        phase = self.tokens.index(last)
        return [self.tokens[(phase + 1 + i) % len(self.tokens)] for i in range(length)]


class ByteTextLanguage:
    """Byte-level windows over a fixed text file."""

    def __init__(self, tag: str, text: str):
        self.tag = tag
        self.bytes = text.encode("utf-8")

    def sample(self, rng: np.random.Generator, length: int) -> list[int]:
        if length >= len(self.bytes):
            return list(self.bytes[:length])
        start = int(rng.integers(len(self.bytes) - length))
        return list(self.bytes[start:start + length])


def _load_text(name: str) -> str:
    return resources.files("mtpspec.corpora").joinpath(name).read_text(encoding="utf-8")


_LANG_CACHE: dict[str, object] = {}


def language(tag: str):
    lang = _LANG_CACHE.get(tag)
    if lang is None:
        if tag == "syn-a":
            lang = MarkovLanguage("syn-a", SYN_A_IDS, seed=101)
        elif tag == "syn-b":
            lang = MarkovLanguage("syn-b", SYN_B_IDS, seed=202)
        elif tag == "en":
            lang = ByteTextLanguage("en", _load_text("en.txt"))
        elif tag == "zh":
            lang = ByteTextLanguage("zh", _load_text("zh.txt"))
        elif tag == "cycle":
            lang = CycleLanguage()
        else:
            raise KeyError(f"unknown language tag {tag!r}")
        _LANG_CACHE[tag] = lang
    return lang


def make_examples(tag: str, seed: int, count: int, prompt_len: int,
                  response_len: int) -> list[TrainingExample]:
    """Source-corpus examples: consecutive windows split into prompt/response.

    Responses end with EOS except for the cycle language, whose
    sequences are unterminated by construction.
    """
    lang = language(tag)
    rng = np.random.default_rng(seed_key(seed, tag))
    eos = [] if tag == "cycle" else [EOS_TOKEN]
    out = []
    for _ in range(count):
        seq = lang.sample(rng, prompt_len + response_len)
        out.append(TrainingExample(prompt=seq[:prompt_len],
                                   response=seq[prompt_len:] + eos,
                                   lang=tag, source="corpus"))
    return out


def mixed_dataset(seed: int, per_lang: int, prompt_len: int, response_len: int,
                  tags=LANG_TAGS) -> list[TrainingExample]:
    out = []
    for tag in tags:
        out.extend(make_examples(tag, seed, per_lang, prompt_len, response_len))
    return out


def sample_prompts(tag: str, seed: int, count: int, prompt_len: int) -> list[list[int]]:
    lang = language(tag)
    rng = np.random.default_rng(seed_key(seed, tag, "prompts"))
    return [lang.sample(rng, prompt_len) for _ in range(count)]
