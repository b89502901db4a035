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
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, NumericError


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

# the ids each language may emit, in the order corpora list the languages
LANG_IDS = {"syn-a": SYN_A_IDS, "syn-b": SYN_B_IDS, "en": range(256), "zh": range(256),
            "cycle": CYCLE_TOKENS}
LANG_TAGS = tuple(LANG_IDS)
FALLBACK_LANG = "*"


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
    write_json_lines(path, (ex.to_json() for ex in examples))


def read_json(path):
    """The JSON value a file holds; invalid JSON is a `ConfigError` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})") from None


def write_json_lines(path, objs) -> None:
    """Write each object as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


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


def cumulative(p) -> list[float]:
    """The cumulative table `Generator.choice(a, p=p)` builds, for `draw`.

    It is built as numpy 2.4 builds it (`cdf = p.cumsum(); cdf /= cdf[-1]`)
    and `p` is checked here, once, as `choice` checks it on every call:
    finite, nonnegative, and summing to 1 within sqrt(eps).
    """
    p = np.asarray(p, dtype=np.float64)
    if (p.ndim != 1 or not p.size or not np.isfinite(p).all() or (p < 0).any()
            or abs(p.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps)):
        raise NumericError("probabilities must be finite, nonnegative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw(rng: np.random.Generator, cdf: list[float]) -> int:
    """The index `Generator.choice(a, p=p)` draws for a `cdf = cumulative(p)`:
    one `rng.random()` double inverted by `bisect_right`, as `choice` does with
    `searchsorted(side="right")`, so the index and the generator's state after
    the draw are `choice`'s own."""
    return bisect_right(cdf, rng.random())


MARKOV_BRANCHING = 16


class MarkovLanguage:
    """Seeded order-1 Markov chain with Zipf-weighted branching.

    Each previous token maps to `MARKOV_BRANCHING` candidates drawn from a
    global Zipf law over the language's ids, so the corpus has a
    long-tail marginal while staying predictable enough to learn at
    desk scale. The first token follows that law too; each later token
    is one of its state's candidates under a Zipf law over their ranks.
    Both laws become `cumulative` tables once, here, and each token is one
    `draw`: the tokens and generator states `Generator.choice` gives.
    """

    def __init__(self, tag: str, ids, seed: int):
        self.tag = tag
        self.ids = np.asarray(ids, dtype=np.int64)
        self.seed = seed
        self.branching = min(MARKOV_BRANCHING, self.ids.size)
        self._marginal = zipf_probs(self.ids.size)
        self._marginal_cdf = cumulative(self._marginal)
        self._branch_cdf = cumulative(zipf_probs(self.branching))
        self._transitions: dict[int, list[int]] = {}

    def _table(self, prev: int) -> list[int]:
        """The candidates that may follow `prev`, drawn once per state."""
        cands = self._transitions.get(prev)
        if cands is None:
            state_rng = np.random.default_rng((self.seed, prev))
            keep = self.ids != prev  # no self-loops: greedy orbits stay multi-token
            pool, p = self.ids[keep], self._marginal[keep]
            cands = state_rng.choice(pool, size=self.branching, replace=False,
                                     p=p / p.sum()).tolist()
            self._transitions[prev] = cands
        return cands

    def sample(self, rng: np.random.Generator, length: int) -> list[int]:
        out = [int(self.ids[draw(rng, self._marginal_cdf)])]
        while len(out) < length:
            out.append(self._table(out[-1])[draw(rng, self._branch_cdf)])
        return out


class CycleLanguage:
    """A deterministic period-4 token cycle; continuations are analytic."""

    tag = "cycle"
    tokens = CYCLE_TOKENS

    def sample(self, rng: np.random.Generator, length: int) -> list[int]:
        phase = int(rng.integers(len(self.tokens)))
        return [self.tokens[(phase + i) % len(self.tokens)] for i in range(length)]


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
