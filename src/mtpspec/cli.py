"""Command-line pipeline: pretrain, distill, dedup, train, vocab, bench, report.

Every subcommand reads a JSON config (deep-merged over the defaults
below) plus a handful of flag overrides, and writes its artifacts into
--out-dir. A full desk run is:

    mtpspec pretrain-main
    mtpspec distill
    mtpspec dedup
    mtpspec train-head
    mtpspec train-head --k 1 --tag vanilla
    mtpspec build-vocab --lang en --size 128
    mtpspec bench

Five stage functions build the stack in memory from the config alone:
`pretrain_backbone`, `distill_dataset`, `dedup_dataset`, `train_head` and
`frequency_tables`. A stack subcommand loads, runs one stage and saves;
the test suite's session fixture calls the same stages on the defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from .bench import (BenchTask, argmax_speedup, emit_report, format_table,
                    load_report_json, run_benchmark, sweep_draft_depth, sweep_vocab_size)
from .data import (LANG_IDS, LANG_TAGS, SPECIAL_TOKENS, TrainingExample, load_dataset,
                   mixed_dataset, save_dataset)
from .dedup import dedup_and_filter, mix_back
from .distill import GenerationConfig, self_distill
from .errors import ConfigError
from .model import MTPHead, MainModel, ModelConfig
from .training import LossReport, TrainConfig, pretrain_main, train_mtp_head
from .vocab import (FrequencyTable, VocabBank, build_frequency_table, compress_vocab,
                    load_compressed_vocab, save_compressed_vocab,
                    save_frequency_table)

# Sections passed whole to a config class list the fields of that class their
# stage reads, so the keys here are exactly the keys a config file may set;
# pretraining drafts nothing, so its section has no `k_steps` or `beta`.
DEFAULT_CONFIG = {
    "model": asdict(ModelConfig(max_seq_len=160, seed=1234)),
    "data": {"per_lang": 96, "prompt_len": 24, "response_len": 56, "seed": 7,
             "langs": list(LANG_TAGS)},
    "pretrain": {k: v for k, v in asdict(TrainConfig(lr=0.01, epochs=8, batch_size=8, seed=1))
                 .items() if k not in ("k_steps", "beta")},
    "distill": {"temperature": 0.6, "top_k": 20, "top_p": 0.95,
                "max_new_tokens": 64, "seed": 11, "prompts_per_lang": 72,
                "prompt_len": 24},
    # desk corpora repeat themselves, so the n-gram bound is looser than the library's;
    # the cycle slice collapses to one survivor under dedup and is mixed back
    "dedup": {"jaccard_threshold": 0.9, "max_ngram_ratio": 0.3, "mix_back_langs": ["cycle"]},
    "train": asdict(TrainConfig(k_steps=6, lr=3e-3, epochs=4, batch_size=8, seed=3)),
    "vocab": {"size": 128},
    "bench": {"k_depth": 3, "max_new_tokens": 48, "prompts_per_task": 12,
              "prompt_len": 24, "seed": 19, "langs": list(LANG_TAGS)},
}


def load_config(path: str | None, seed: int | None = None) -> dict:
    """The defaults with the config file at `path` merged over them, each of
    its values checked against its default's type (`_same_kind`), then the
    merged values against their ranges (`_check_ranges`); `seed` replaces
    every section's seed."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        user = data_mod.read_json(path)
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: a config must be a JSON object")
        for section, values in user.items():
            if section not in cfg:
                raise ConfigError(f"{path}: unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"{path}: config section {section!r} is not an object")
            unknown = sorted(set(values) - set(cfg[section]))
            if unknown:
                raise ConfigError(f"{path}: unknown key(s) {unknown} in config "
                                  f"section {section!r}")
            for key, value in values.items():
                default = cfg[section][key]
                if not _same_kind(value, default):
                    raise ConfigError(f"{path}: {section}.{key} must be {_kind(default)}, "
                                      f"not {json.dumps(value)}")
            cfg[section].update(values)
        _check_ranges(path, cfg)
    if seed is not None:
        for section in cfg.values():
            if isinstance(section, dict) and "seed" in section:
                section["seed"] = seed
    return cfg


def _check_ranges(path, cfg) -> None:
    """Reject a Jaccard threshold outside (0, 1], a language tag outside
    `LANG_TAGS`, an empty `data.langs` or `bench.langs`, and a vocabulary
    too small for a special token or an id of a `data.langs` or
    `bench.langs` language."""
    jaccard = cfg["dedup"]["jaccard_threshold"]
    if not 0 < jaccard <= 1:
        raise ConfigError(f"{path}: dedup.jaccard_threshold must be in (0, 1], not {jaccard}")
    for section, key in (("data", "langs"), ("bench", "langs"), ("dedup", "mix_back_langs")):
        tags = cfg[section][key]
        nonempty = key == "langs"
        if not set(tags) <= set(LANG_TAGS) or (nonempty and not tags):
            raise ConfigError(f"{path}: {section}.{key} must be a {'nonempty ' if nonempty else ''}"
                              f"list of tags from {list(LANG_TAGS)}, not {json.dumps(tags)}")
    vocab_size = cfg["model"]["vocab_size"]
    for section in ("data", "bench"):
        needed = 1 + max(*SPECIAL_TOKENS, *(max(LANG_IDS[tag]) for tag in cfg[section]["langs"]))
        if vocab_size < needed:
            raise ConfigError(f"{path}: model.vocab_size must be at least {needed} to hold every "
                              f"id of {section}.langs and the special tokens, not {vocab_size}")


_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a string", "strings")}


def _same_kind(value, default) -> bool:
    """Whether a config value has its default's type: a bool is not an
    integer, a float setting also takes an integer, and a list holds
    items of its default's item type."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def _kind(default) -> str:
    if isinstance(default, list):
        return f"a list of {_KINDS[type(default[0])][1]}"
    return _KINDS[type(default)][0]


def _train_config(section: dict, **overrides) -> TrainConfig:
    merged = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    return TrainConfig(**merged)


def _out(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# stages: each builds one layer of the stack in memory from the config alone


def pretrain_backbone(cfg) -> tuple[list[TrainingExample], MainModel, list[float]]:
    """Build the source corpus and pretrain a fresh backbone on it."""
    d = cfg["data"]
    corpus = mixed_dataset(d["seed"], d["per_lang"], d["prompt_len"],
                           d["response_len"], tags=tuple(d["langs"]))
    model_cfg = ModelConfig(**cfg["model"])
    main = MainModel(model_cfg, np.random.default_rng(model_cfg.seed))
    curve = pretrain_main([ex.tokens for ex in corpus], main,
                          _train_config(cfg["pretrain"]))
    return corpus, main, curve


def distill_dataset(cfg, main: MainModel) -> list[TrainingExample]:
    """Sample the backbone's own responses to fresh prompts in every language."""
    d = cfg["distill"]
    prompts = [(p, tag) for tag in cfg["data"]["langs"]
               for p in data_mod.sample_prompts(tag, d["seed"], d["prompts_per_lang"],
                                                d["prompt_len"])]
    gen_cfg = GenerationConfig(temperature=d["temperature"], top_k=d["top_k"],
                               top_p=d["top_p"], max_new_tokens=d["max_new_tokens"],
                               seed=d["seed"])
    return self_distill(prompts, main, gen_cfg)


def dedup_dataset(cfg, distilled) -> list[TrainingExample]:
    """Near-duplicate removal and quality filters, then re-add the mix-back languages."""
    d = cfg["dedup"]
    kept = dedup_and_filter(distilled, d["jaccard_threshold"], d["max_ngram_ratio"])
    return mix_back(distilled, kept, tuple(d["mix_back_langs"]), d["max_ngram_ratio"])


def train_head(cfg, main: MainModel, dataset, **overrides) -> tuple[MTPHead, list[LossReport]]:
    """Fine-tune a fresh head on the backbone it drafts for.

    Non-None `overrides` replace fields of the `train` section.
    """
    head = MTPHead(main, np.random.default_rng(main.config.seed))
    reports = train_mtp_head(dataset, main, head, _train_config(cfg["train"], **overrides))
    return head, reports


def frequency_tables(cfg, dataset) -> dict[str, FrequencyTable]:
    """Token counts per configured language, for each language the dataset holds."""
    tables = {}
    for lang in cfg["data"]["langs"]:
        split = [ex.tokens for ex in dataset if ex.lang == lang]
        if split:
            tables[lang] = build_frequency_table(split, lang, cfg["model"]["vocab_size"])
    return tables


# ---------------------------------------------------------------------------
# subcommands


def cmd_pretrain_main(args, cfg) -> int:
    out = _out(args)
    corpus, main, curve = pretrain_backbone(cfg)  # rejects a bad config before any write
    save_dataset(out / "corpus.jsonl", corpus)
    main.save(out / "main.npz")
    (out / "pretrain_losses.json").write_text(json.dumps(curve))
    print(f"pretrained on {len(corpus)} sequences; "
          f"loss {curve[0]:.3f} -> {curve[-1]:.3f}; wrote {out / 'main.npz'}")
    return 0


def cmd_distill(args, cfg) -> int:
    out = _out(args)
    examples = distill_dataset(cfg, MainModel.load(args.main or out / "main.npz"))
    path = out / "distilled.jsonl"
    save_dataset(path, examples)
    print(f"distilled {len(examples)} examples -> {path}")
    return 0


def cmd_dedup(args, cfg) -> int:
    out = _out(args)
    distilled = load_dataset(args.input or out / "distilled.jsonl", cfg["model"]["vocab_size"])
    kept = dedup_dataset(cfg, distilled)
    dst = Path(args.output or out / "dataset.jsonl")
    save_dataset(dst, kept)
    print(f"dedup/filter: {len(distilled)} -> {len(kept)} examples -> {dst}")
    return 0


def cmd_train_head(args, cfg) -> int:
    out = _out(args)
    main = MainModel.load(args.main or out / "main.npz")
    dataset = load_dataset(args.data or out / "dataset.jsonl", main.config.vocab_size)
    head, reports = train_head(cfg, main, dataset, k_steps=args.k)
    tag = f"-{args.tag}" if args.tag else ""
    path = out / f"head{tag}.npz"
    head.save(path)
    losses = [{"step": r.step, "total": r.total, "per_step": r.step_losses}
              for r in reports]
    (out / f"head{tag}_losses.json").write_text(json.dumps(losses))
    final = reports[-1].step_losses if reports else []
    print(f"trained head (K={head.trained_depth}) on {len(dataset)} examples; "
          f"final per-step losses {[round(x, 4) for x in final]}; wrote {path}")
    return 0


def cmd_build_vocab(args, cfg) -> int:
    out = _out(args)
    dataset = load_dataset(args.data or out / "dataset.jsonl", cfg["model"]["vocab_size"])
    table = frequency_tables(cfg, dataset).get(args.lang)
    if table is None:
        print(f"no examples tagged {args.lang!r} in the dataset", file=sys.stderr)
        return 1
    size = args.size if args.size is not None else cfg["vocab"]["size"]
    cv = compress_vocab(table, size)
    save_frequency_table(out / f"freq_{args.lang}.json", table)
    vpath = out / f"vocab_{args.lang}_{size}.json"
    save_compressed_vocab(vpath, cv)
    print(f"built {args.lang} vocabulary of {size} tokens "
          f"(coverage {table.coverage(cv.keep):.3f}) -> {vpath}")
    return 0


def _bench_task(cfg, tag: str) -> BenchTask:
    b = cfg["bench"]
    prompts = data_mod.sample_prompts(tag, b["seed"], b["prompts_per_task"],
                                      b["prompt_len"])
    return BenchTask(name=tag, prompts=prompts, lang=tag,
                     max_new_tokens=b["max_new_tokens"])


def _load_bank(args, main) -> VocabBank | None:
    if not args.vocab:
        return None
    bank = VocabBank(main)
    for path in args.vocab:
        bank.add(load_compressed_vocab(path, main.config.vocab_size))
    return bank


def _load_stack(args, out) -> tuple[MainModel, MTPHead]:
    main = MainModel.load(args.main or out / "main.npz")
    return main, MTPHead.load(args.head or out / "head.npz", main)


def _write_report(rows, out, basename: str) -> None:
    paths = emit_report(rows, str(out), basename)
    print(format_table(rows))
    print(f"wrote {paths['csv']} and {paths['json']}")


def cmd_bench(args, cfg) -> int:
    out = _out(args)
    main, head = _load_stack(args, out)
    vanilla = MTPHead.load(args.vanilla_head, main) if args.vanilla_head else None
    bank = _load_bank(args, main)
    b = cfg["bench"]
    tasks = [_bench_task(cfg, tag) for tag in b["langs"]]
    rows = run_benchmark(tasks, main=main, finetuned_head=head, vanilla_head=vanilla,
                         bank=bank, k_depth=args.k if args.k is not None else b["k_depth"],
                         log_dir=str(out))
    _write_report(rows, out, "report")
    return 0


def cmd_sweep_k(args, cfg) -> int:
    out = _out(args)
    main, head = _load_stack(args, out)
    task = _bench_task(cfg, args.task_lang or cfg["bench"]["langs"][0])
    rows = sweep_draft_depth(task, range(0, args.k_max + 1), main=main, head=head)
    _write_report(rows, out, "sweep_k")
    print(f"best analytic speedup at K={argmax_speedup(rows)}")
    return 0


def cmd_sweep_vocab(args, cfg) -> int:
    out = _out(args)
    main, head = _load_stack(args, out)
    dataset = load_dataset(args.data or out / "dataset.jsonl", main.config.vocab_size)
    tables = frequency_tables(cfg, dataset)
    b = cfg["bench"]
    task = _bench_task(cfg, args.task_lang or b["langs"][0])
    rows = sweep_vocab_size(task, args.sizes, main=main, head=head, tables=tables,
                            k_depth=args.k if args.k is not None else b["k_depth"])
    _write_report(rows, out, "sweep_vocab")
    return 0


def cmd_report(args, cfg) -> int:
    print(format_table(load_report_json(args.rows)))
    return 0


# ---------------------------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its message for a ValueError
    return parse


def _size_list(text: str) -> list[int]:
    """Comma-separated vocabulary sizes, each at least 1."""
    return [_at_least(1)(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtpspec",
        description="Shared-weight multi-token drafting with lossless verification")
    parser.add_argument("--config", help="JSON config file merged over defaults")
    parser.add_argument("--seed", type=int, help="override every section seed")
    parser.add_argument("--out-dir", default="mtpspec-out",
                        help="artifact directory (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pretrain-main", help="build corpora and pretrain the backbone")

    p = sub.add_parser("distill", help="generate self-distilled responses")
    p.add_argument("--main", help="backbone checkpoint (.npz)")

    p = sub.add_parser("dedup", help="near-duplicate removal plus quality filters")
    p.add_argument("--input")
    p.add_argument("--output")

    p = sub.add_parser("train-head", help="fine-tune the shared draft head")
    p.add_argument("--main")
    p.add_argument("--data")
    p.add_argument("--k", type=_at_least(1), help="prediction depth override")
    p.add_argument("--tag", help="suffix for the head artifact name")

    p = sub.add_parser("build-vocab", help="frequency table + compressed vocabulary")
    p.add_argument("--lang", required=True)
    p.add_argument("--size", type=_at_least(1))
    p.add_argument("--data")

    p = sub.add_parser("bench", help="method comparison over the desk tasks")
    p.add_argument("--main")
    p.add_argument("--head")
    p.add_argument("--vanilla-head")
    p.add_argument("--vocab", nargs="*", help="compressed vocab files for FR rows")
    p.add_argument("--k", type=_at_least(0))

    p = sub.add_parser("sweep-k", help="draft-depth sweep on one task")
    p.add_argument("--main")
    p.add_argument("--head")
    p.add_argument("--k-max", type=_at_least(0), default=6)
    p.add_argument("--task-lang", choices=LANG_TAGS)

    p = sub.add_parser("sweep-vocab", help="vocabulary-size sweep on one task")
    p.add_argument("--main")
    p.add_argument("--head")
    p.add_argument("--data")
    p.add_argument("--sizes", type=_size_list, default="32,128,512")
    p.add_argument("--k", type=_at_least(0))
    p.add_argument("--task-lang", choices=LANG_TAGS)

    p = sub.add_parser("report", help="print a saved JSON report as a table")
    p.add_argument("--rows", required=True)

    return parser


COMMANDS = {
    "pretrain-main": cmd_pretrain_main,
    "distill": cmd_distill,
    "dedup": cmd_dedup,
    "train-head": cmd_train_head,
    "build-vocab": cmd_build_vocab,
    "bench": cmd_bench,
    "sweep-k": cmd_sweep_k,
    "sweep-vocab": cmd_sweep_vocab,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.seed)
    return COMMANDS[args.command](args, cfg)


if __name__ == "__main__":
    sys.exit(main())
