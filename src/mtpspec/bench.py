"""Benchmark harness: the method comparison, depth sweeps, vocab sweeps, reports.

`run_benchmark` builds the method comparison from the heads and the
vocabulary bank it is given, every head at one draft depth K: greedy
baseline rows, then vanilla-head rows when a vanilla head is given,
finetuned-head rows, and finetuned-head+FR rows when a bank is given.

Acceptance length tau pools committed tokens over main-model decode
forwards across a task's prompts. Two speedup figures are reported:
wall-clock tokens/s against the baseline row, and the analytic ratio
tau / (1 + K * c_draft) under the measured draft/verify cost ratio,
which makes the draft-depth optimum checkable on any machine.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import EOS_TOKEN, SPECIAL_TOKENS, read_json
from .errors import ConfigError
from .model import MTPHead, MainModel, ModelConfig
from .specdec import DecodeMetrics, baseline_decode, speculative_decode, write_round_log
from .vocab import VocabBank, compress_vocab

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchTask:
    name: str
    prompts: list
    lang: str | None
    max_new_tokens: int

    def __post_init__(self):
        if not self.prompts:
            raise ConfigError("a benchmark task needs at least one prompt")
        if type(self.max_new_tokens) is not int or self.max_new_tokens < 1:
            raise ConfigError(f"a benchmark task's max_new_tokens must be an integer >= 1, "
                              f"not {self.max_new_tokens!r}")


def _round9(x: float) -> float:
    return round(float(x), 9)


@dataclass
class ReportRow:
    task: str
    method: str
    k: int
    vocab_size: int
    prompts: int
    output_tokens: int
    rounds: int
    tau: float
    rates: list[float]
    tokens_per_s: float
    tokens_per_s_std: float
    c_draft: float
    analytic_speedup: float
    wall_speedup: float

    def __eq__(self, other) -> bool:
        # equal when written out alike, so a nan rate (step never reached) equals itself
        return isinstance(other, ReportRow) and repr(self) == repr(other)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ReportRow":
        return cls(**obj)


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]


def _row(task: BenchTask, method: str, k_depth: int, config: ModelConfig,
         m: DecodeMetrics, tps: float, tps_std: float, base_tps: float | None,
         c_draft: float | None = None) -> ReportRow:
    """The one place a report row is derived from pooled decode metrics.

    The row's vocabulary size is the mean width its draft steps projected
    onto, |V| when it drafted nothing. c_draft defaults to the row's own
    measured ratio; wall speedup is 0 when there is no baseline
    throughput to divide by.
    """
    c_draft = m.c_draft if c_draft is None else c_draft
    vocab_size = (round(m.draft_mults / (m.draft_forwards * config.model_dim))
                  if m.draft_forwards else config.vocab_size)
    return ReportRow(
        task=task.name, method=method, k=k_depth, vocab_size=vocab_size,
        prompts=len(task.prompts), output_tokens=m.output_tokens, rounds=m.rounds,
        tau=_round9(m.tau),
        rates=[_round9(m.rate(k)) for k in range(1, k_depth + 1)],
        tokens_per_s=_round9(tps), tokens_per_s_std=_round9(tps_std),
        c_draft=_round9(c_draft),
        analytic_speedup=_round9(m.tau / (1.0 + k_depth * c_draft)),
        wall_speedup=_round9(tps / base_tps) if base_tps else 0.0,
    )


def _greedy(main: MainModel, prompt, max_new_tokens: int):
    """Timed plain greedy decode, shaped like `speculative_decode`'s result:
    every token after the prefill's costs one decode forward (a round)."""
    t0 = time.perf_counter_ns()
    out = baseline_decode(main, prompt, max_new_tokens, eos_token=EOS_TOKEN)
    n = len(out) - 1
    return out, DecodeMetrics(rounds=n, output_tokens=n,
                              wall_ns=time.perf_counter_ns() - t0)


def _decode_task(task: BenchTask, k_depth: int, main: MainModel, head: MTPHead | None,
                 vocab, repetitions: int) -> tuple[DecodeMetrics, float, float]:
    """Run every prompt, greedily when there is no head; returns the first
    repetition's pooled metrics plus tokens/s mean and std over repetitions
    (token outputs must be identical across reps)."""
    first = None
    per_rep_tps = []
    for _ in range(max(1, repetitions)):
        pooled = DecodeMetrics()
        outputs = []
        for prompt in task.prompts:
            out, m = (_greedy(main, prompt, task.max_new_tokens) if head is None else
                      speculative_decode(main, head, prompt, task.max_new_tokens, k_depth,
                                         vocab=vocab, lang=task.lang, eos_token=EOS_TOKEN))
            outputs.append(out)
            pooled.merge(m)
        per_rep_tps.append(sum(map(len, outputs)) / (pooled.wall_ns * 1e-9))
        if first is None:
            first = pooled, outputs
        elif outputs != first[1]:
            raise AssertionError("decoding was not deterministic across repetitions")
    return first[0], float(np.mean(per_rep_tps)), float(np.std(per_rep_tps))


def run_benchmark(tasks, *, main: MainModel, finetuned_head: MTPHead,
                  vanilla_head: MTPHead | None = None, bank: VocabBank | None = None,
                  k_depth: int = 3, repetitions: int = 1, log_dir=None) -> list[ReportRow]:
    """The method comparison: one row per method and task, method by method.

    The greedy `baseline` rows come first because they are the speedup
    denominators. Then `vanilla-head` when that head is given,
    `finetuned-head`, and `finetuned-head+FR` (the finetuned head
    drafting over `bank`) when a bank is given, all at `k_depth`.
    """
    if k_depth < 0:
        raise ConfigError("k_depth must be >= 0")
    methods = [("baseline", None, None)]
    if vanilla_head is not None:
        methods.append(("vanilla-head", vanilla_head, None))
    methods.append(("finetuned-head", finetuned_head, None))
    if bank is not None:
        methods.append(("finetuned-head+FR", finetuned_head, bank))

    rows: list[ReportRow] = []
    baseline_tps: dict[str, float] = {}
    for method, head, vocab in methods:
        k = 0 if head is None else k_depth
        for task in tasks:
            pooled, tps, tps_std = _decode_task(task, k, main, head, vocab, repetitions)
            if head is None:
                baseline_tps[task.name] = tps
            rows.append(_row(task, method, k, main.config, pooled,
                             tps, tps_std, baseline_tps[task.name]))
            if log_dir is not None and head is not None:
                name = f"rounds_{task.name}_{method.replace('+', '_')}_k{k}.jsonl"
                write_round_log(f"{log_dir}/{name}", pooled.records)
    return rows


def sweep_draft_depth(task: BenchTask, k_range, *, main: MainModel,
                      head: MTPHead) -> list[ReportRow]:
    """tau / speed table over draft depths; K=0 rows are exact baselines.

    The analytic speedup for every row uses the pooled c_draft measured
    across the sweep so the depth optimum reflects one cost ratio.
    """
    k_range = list(k_range)
    if not k_range or min(k_range) < 0:
        raise ConfigError("a depth sweep needs at least one depth, each >= 0")
    if head.trained_depth is not None and max(k_range) > head.trained_depth:
        log.warning("sweeping K up to %d beyond trained depth %d",
                    max(k_range), head.trained_depth)
    by_k = {k: _decode_task(task, k, main, head, None, repetitions=1)
            for k in k_range}
    sweep = DecodeMetrics()
    for pooled, _, _ in by_k.values():
        sweep.merge(pooled)
    c_draft = sweep.c_draft
    base_tps = by_k[0][1] if 0 in by_k else None
    return [_row(task, "finetuned-head", k, main.config, *by_k[k],
                 base_tps, c_draft=c_draft)
            for k in k_range]


def argmax_speedup(rows) -> int:
    """Reported depth optimum: brute-force argmax of analytic speedup."""
    best = max(rows, key=lambda r: (r.analytic_speedup, -r.k))
    return best.k


def sweep_vocab_size(task: BenchTask, sizes, *, main: MainModel, head: MTPHead,
                     tables: dict, specials=SPECIAL_TOKENS,
                     k_depth: int = 3) -> list[ReportRow]:
    """tau / speed table over compressed-vocabulary sizes for one task."""
    rows = []
    for size in sizes:
        if size > main.config.vocab_size:
            log.warning("clamping vocab size %d to |V|=%d", size, main.config.vocab_size)
            size = main.config.vocab_size
        bank = VocabBank(main, [compress_vocab(t, size, specials, main=main)
                                for t in tables.values()])
        rows.append(_row(task, "finetuned-head+FR", k_depth, main.config,
                         *_decode_task(task, k_depth, main, head, bank, repetitions=1),
                         base_tps=None))
    return rows


# ---------------------------------------------------------------------------
# emission


# (write, read) for each ReportRow field type; floats keep nine decimals
_CSV_CELLS = {
    "str": (str, str),
    "int": (str, int),
    "float": ("{:.9f}".format, float),
    "list[float]": (lambda xs: ";".join(f"{x:.9f}" for x in xs),
                    lambda cell: [float(x) for x in cell.split(";")] if cell else []),
}
# what `json.load` gives for a field written by `emit_report`; a bool is no int
_JSON_CELLS = {
    "str": lambda x: type(x) is str,
    "int": lambda x: type(x) is int,
    "float": lambda x: type(x) is float,
    "list[float]": lambda xs: type(xs) is list and all(type(x) is float for x in xs),
}


def emit_report(rows, out_dir, basename: str = "report") -> dict:
    """Write rows as CSV and JSON; both round-trip exactly."""
    if not rows:
        raise ConfigError("no report rows to emit")
    csv_path = f"{out_dir}/{basename}.csv"
    json_path = f"{out_dir}/{basename}.json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_CSV_CELLS[f.type][0](getattr(row, f.name))
                             for f in fields(ReportRow)])
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([row.to_json() for row in rows], fh, indent=1)
    return {"csv": csv_path, "json": json_path}


def load_report_csv(path) -> list[ReportRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != REPORT_COLUMNS:
            raise ConfigError("unexpected report header")
        for rec in reader:
            if len(rec) != len(REPORT_COLUMNS):
                raise ConfigError(f"report line {reader.line_num} has {len(rec)} cells")
            rows.append(ReportRow.from_json({f.name: _CSV_CELLS[f.type][1](cell)
                                             for f, cell in zip(fields(ReportRow), rec)}))
    return rows


def load_report_json(path) -> list[ReportRow]:
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ConfigError(f"{path}: a report must be a JSON list of rows")
    for i, obj in enumerate(rows):
        if not isinstance(obj, dict) or obj.keys() != set(REPORT_COLUMNS):
            raise ConfigError(f"{path}: report row {i} must be an object with "
                              f"keys {REPORT_COLUMNS}")
        for f in fields(ReportRow):
            if not _JSON_CELLS[f.type](obj[f.name]):
                raise ConfigError(f"{path}: report row {i} field {f.name!r} must be "
                                  f"a {f.type}, not {obj[f.name]!r}")
    return [ReportRow.from_json(obj) for obj in rows]


def format_table(rows) -> str:
    """Human-readable summary; tau and speedups shown to 3 decimals."""
    header = f"{'task':<12} {'method':<20} {'K':>2} {'|V|':>5} {'tau':>7} " \
             f"{'tok/s':>10} {'analytic':>9} {'wall':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.task:<12} {r.method:<20} {r.k:>2} {r.vocab_size:>5} "
            f"{r.tau:>7.3f} {r.tokens_per_s:>10.1f} {r.analytic_speedup:>9.3f} "
            f"{r.wall_speedup:>7.3f}")
    return "\n".join(lines)
