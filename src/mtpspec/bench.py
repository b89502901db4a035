"""Benchmark harness: the method comparison, depth sweeps, vocab sweeps, reports.

`run_benchmark` builds the method comparison from the heads and the
vocabulary bank it is given, every head at one draft depth K: greedy
baseline rows, then vanilla-head rows when a vanilla head is given,
finetuned-head rows, and finetuned-head+FR rows when a bank is given.
It and both sweeps are lists of arms decoded by one loop, `_compare`.

Acceptance length tau is committed tokens per draft/verify round,
pooled over a task's prompts; a round runs one backbone forward or two
(`DecodeMetrics.tau`). Two speedup figures are reported:
wall-clock tokens/s against the task's greedy baseline row, and the
analytic ratio tau / (1 + K * c_draft) under the measured draft/verify
cost ratio, which makes the draft-depth optimum checkable on any machine.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from functools import reduce

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
         m: DecodeMetrics, tps: float, base_tps: float | None,
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
        tokens_per_s=_round9(tps), c_draft=_round9(c_draft),
        analytic_speedup=_round9(m.tau / (1.0 + k_depth * c_draft)),
        wall_speedup=_round9(tps / base_tps) if base_tps else 0.0,
    )


def _compare(tasks, arms, main: MainModel, *, log_dir=None,
             pool_c_draft: bool = False) -> list[ReportRow]:
    """The one decode loop: a row per arm (method, head, bank, K) and task,
    one decode per prompt; spread over runs is perfbench's job.

    A head-less arm decodes greedily, each token after the prefill's one
    forward (a round), and its tokens/s is the `wall_speedup` denominator
    of its task (0 without one). The others run `speculative_decode` and
    write round logs when `log_dir` is given. Each row is priced at its
    own c_draft, or with `pool_c_draft` at the one pooled over every decode.
    """
    runs, base_tps = [], {}
    for method, head, bank, k in arms:
        for task in tasks:
            pooled, tokens = DecodeMetrics(), 0
            for prompt in task.prompts:
                if head is None:
                    t0 = time.perf_counter_ns()
                    out = baseline_decode(main, prompt, task.max_new_tokens, eos_token=EOS_TOKEN)
                    m = DecodeMetrics(rounds=len(out) - 1, output_tokens=len(out) - 1,
                                      wall_ns=time.perf_counter_ns() - t0)
                else:
                    out, m = speculative_decode(main, head, prompt, task.max_new_tokens, k,
                                                vocab=bank, lang=task.lang, eos_token=EOS_TOKEN)
                tokens += len(out)
                pooled.merge(m)
            tps = tokens / (pooled.wall_ns * 1e-9)
            if head is None:
                base_tps[task.name] = tps
            elif log_dir is not None:
                name = f"rounds_{task.name}_{method.replace('+', '_')}_k{k}.jsonl"
                write_round_log(f"{log_dir}/{name}", pooled.records)
            runs.append((task, method, k, pooled, tps))
    c_draft = (reduce(DecodeMetrics.merge, (run[3] for run in runs), DecodeMetrics()).c_draft
               if pool_c_draft else None)
    return [_row(task, method, k, main.config, pooled, tps, base_tps.get(task.name), c_draft)
            for task, method, k, pooled, tps in runs]


def run_benchmark(tasks, *, main: MainModel, finetuned_head: MTPHead,
                  vanilla_head: MTPHead | None = None, bank: VocabBank | None = None,
                  k_depth: int = 3, log_dir=None) -> list[ReportRow]:
    """The method comparison: one row per method and task, one decode per prompt.

    The greedy `baseline` rows come first because they are the speedup
    denominators. Then `vanilla-head` when that head is given,
    `finetuned-head`, and `finetuned-head+FR` (the finetuned head
    drafting over `bank`) when a bank is given, all at `k_depth`; each
    row is priced at its own c_draft."""
    if k_depth < 0:
        raise ConfigError("k_depth must be >= 0")
    arms = [("baseline", None, None, 0)]
    if vanilla_head is not None:
        arms.append(("vanilla-head", vanilla_head, None, k_depth))
    arms.append(("finetuned-head", finetuned_head, None, k_depth))
    if bank is not None:
        arms.append(("finetuned-head+FR", finetuned_head, bank, k_depth))
    return _compare(tasks, arms, main, log_dir=log_dir)


def sweep_draft_depth(task: BenchTask, k_range, *, main: MainModel,
                      head: MTPHead) -> list[ReportRow]:
    """tau / speed table over draft depths, one row per depth.

    K=0 is the greedy `baseline` row, the `wall_speedup` denominator of
    the others. Every row's analytic speedup uses the c_draft pooled over
    the sweep's head decodes, so the depth optimum reflects one cost ratio.
    """
    k_range = list(k_range)
    if not k_range or min(k_range) < 0:
        raise ConfigError("a depth sweep needs at least one depth, each >= 0")
    if head.trained_depth is not None and max(k_range) > head.trained_depth:
        log.warning("sweeping K up to %d beyond trained depth %d",
                    max(k_range), head.trained_depth)
    arms = [("baseline", None, None, 0) if k == 0 else ("finetuned-head", head, None, k)
            for k in k_range]
    return _compare([task], arms, main, pool_c_draft=True)


def argmax_speedup(rows) -> int:
    """Reported depth optimum: brute-force argmax of analytic speedup."""
    best = max(rows, key=lambda r: (r.analytic_speedup, -r.k))
    return best.k


def sweep_vocab_size(task: BenchTask, sizes, *, main: MainModel, head: MTPHead,
                     tables: dict, specials=SPECIAL_TOKENS,
                     k_depth: int = 3) -> list[ReportRow]:
    """tau / speed table over compressed-vocabulary sizes for one task, each
    row priced at its own c_draft; with no baseline row, `wall_speedup` is 0."""
    arms = []
    for size in sizes:
        if size > main.config.vocab_size:
            log.warning("clamping vocab size %d to |V|=%d", size, main.config.vocab_size)
            size = main.config.vocab_size
        bank = VocabBank(main, [compress_vocab(t, size, specials, main=main)
                                for t in tables.values()])
        arms.append(("finetuned-head+FR", head, bank, k_depth))
    return _compare([task], arms, main)


# ---------------------------------------------------------------------------
# emission


# per ReportRow field type: the value as CSV text, CSV text as the value (or a
# ValueError), and whether a loaded value has the type; floats keep nine decimals,
# and a bool is no int
_Cell = namedtuple("_Cell", "write read check")
_CELLS = {
    "str": _Cell(str, str, lambda x: type(x) is str),
    "int": _Cell(str, int, lambda x: type(x) is int),
    "float": _Cell("{:.9f}".format, float, lambda x: type(x) is float),
    "list[float]": _Cell(lambda xs: ";".join(f"{x:.9f}" for x in xs),
                         lambda cell: [float(x) for x in cell.split(";")] if cell else [],
                         lambda xs: type(xs) is list and all(type(x) is float for x in xs)),
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
            writer.writerow([_CELLS[f.type].write(getattr(row, f.name))
                             for f in fields(ReportRow)])
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([row.to_json() for row in rows], fh, indent=1)
    return {"csv": csv_path, "json": json_path}


def _checked_rows(path, rows: list) -> list[ReportRow]:
    """A loaded report's rows, CSV and JSON alike, each checked field by field."""
    for i, obj in enumerate(rows):
        if not isinstance(obj, dict) or obj.keys() != set(REPORT_COLUMNS):
            raise ConfigError(f"{path}: report row {i} must hold exactly the fields "
                              f"{REPORT_COLUMNS}")
        for f in fields(ReportRow):
            if not _CELLS[f.type].check(obj[f.name]):
                raise ConfigError(f"{path}: report row {i} field {f.name!r} must be "
                                  f"a {f.type}, not {obj[f.name]!r}")
    return [ReportRow.from_json(obj) for obj in rows]


def _read_cell(type_: str, cell: str):
    """A CSV cell as its field's value, or its text for the row check to reject."""
    try:
        return _CELLS[type_].read(cell)
    except ValueError:
        return cell


def load_report_csv(path) -> list[ReportRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != REPORT_COLUMNS:
        raise ConfigError(f"{path}: a CSV report's header must be {REPORT_COLUMNS}")
    # a line of the wrong length stays a list, which the row check rejects
    rows = [{f.name: _read_cell(f.type, cell) for f, cell in zip(fields(ReportRow), line)}
            if len(line) == len(REPORT_COLUMNS) else line for line in lines[1:]]
    return _checked_rows(path, rows)


def load_report_json(path) -> list[ReportRow]:
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ConfigError(f"{path}: a report must be a JSON list of rows")
    return _checked_rows(path, rows)


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
