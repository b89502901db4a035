"""Fast checks of the benchmark itself, on an untrained toy model.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refclock  # noqa: E402
import workloads as wl  # noqa: E402
from mtpspec import model, specdec, tensor  # noqa: E402
from mtpspec.data import LANG_TAGS, make_examples  # noqa: E402
from mtpspec.model import ModelConfig, init_model  # noqa: E402
from mtpspec.vocab import VocabBank, build_frequency_table, compress_vocab  # noqa: E402
from spans import Tracer, assert_clean  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = ModelConfig(vocab_size=512, model_dim=16, n_layers=1, n_heads=2, max_seq_len=64, seed=5)


def toy_stack() -> wl.Stack:
    main, head = init_model(TOY)
    main.freeze()
    vocabs = []
    for tag in LANG_TAGS:
        seqs = [ex.tokens for ex in make_examples(tag, 3, 4, 8, 8)]
        vocabs.append(compress_vocab(build_frequency_table(seqs, tag, 512), 32, main=main))
    return wl.Stack(main, head, VocabBank(main, vocabs))


def toy_decode(cls, seed=3) -> wl.DecodeGreedy:
    stack = toy_stack()
    return cls(seed, stack_loader=lambda: stack, per_task=1, max_new=(4, 12))


def exact(values: dict) -> dict:
    """The per-layer metrics that are counts, which must repeat exactly."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v for k, v in values.items() if units.get(k) == "count"}


def test_end_to_end_schema_and_repeat():
    names = [m["name"] for m in SPEC["end_to_end"]]
    results = []
    for cls in (wl.DecodeGreedy, wl.DecodeSpec):
        for _ in range(2):
            run = wl.measure(toy_decode(cls), 0.0)
            assert run.failed == 0, run.errors
            assert len(run.setup_ns) == cls.setups
            values = wl.end_to_end_metrics(run)
            assert sorted(values) == sorted(names)
            assert all(v > 0 for v in values.values()), values
            results.append((values["tau"], run.passes[0].counters, run.passes[0].digest))
    greedy, spec = results[:2], results[2:]
    assert greedy[0] == greedy[1] and spec[0] == spec[1]
    assert greedy[0][0] == 1.0
    # the speculative outputs are the greedy ones
    assert greedy[0][2] == spec[0][2]


def synthetic_run(slowdown: float) -> wl.Run:
    """Two requests and one set-up on a host `slowdown` times slower than nominal.

    The first pass runs on a host twice as slow again, and the second
    pass stopped before its second request.
    """
    ref = refclock.NOMINAL_NS * slowdown
    first = wl.PassResult(samples=[(0, 10, 40e6 * slowdown, 2 * ref),
                                   (1, 30, 180e6 * slowdown, 2 * ref)])
    first.spec.output_tokens, first.spec.rounds = 40, 16
    second = wl.PassResult(samples=[(0, 10, 20e6 * slowdown, ref)], partial=True)
    return wl.Run(passes=[first, second], setup_ns=[2e9 * slowdown], setup_ref_ns=[ref])


def test_end_to_end_times_are_scaled_by_the_reference():
    nominal = wl.end_to_end_metrics(synthetic_run(1.0))
    assert nominal["tokens_per_s"] == pytest.approx(40 / 0.11)
    assert nominal["ms_per_token_p50"] == pytest.approx(2.5)
    assert nominal["pass_s"] == pytest.approx(0.11)
    assert nominal["setup_s"] == pytest.approx(2.0)
    # a host slower for the program and the reference alike reads the same
    assert wl.end_to_end_metrics(synthetic_run(1.5)) == pytest.approx(nominal)
    unscaled = wl.end_to_end_metrics(synthetic_run(1.5), scale=False)
    assert unscaled["pass_s"] == pytest.approx(1.5 * (0.03 + 0.18))
    # untraced passes and set-ups sample the reference around every unit
    run = wl.measure(toy_decode(wl.DecodeSpec), 0.0)
    assert all(ref > 0 for p in run.passes for *_, ref in p.samples)
    assert len(run.setup_ref_ns) == len(run.setup_ns) and min(run.setup_ref_ns) > 0


def test_traced_run_counts_repeat_and_originals_return():
    originals = (specdec.main_forward, model.KVCache.truncate, tensor.matmul)
    names = {m["name"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        run = wl.measure(toy_decode(wl.DecodeSpec), 0.0, layers.targets())
        assert run.failed == 0, run.errors
        assert [p.traced for p in run.passes] == [False, True]
        values, breakdown = layers.per_layer_metrics(run, wl.K_DEPTH)
        assert names <= set(values)
        assert values["specdec.rounds"] > 0 and values["vocab.draft_mults"] > 0
        assert values["tensor.matmul_calls"] > 0
        # layer self times plus the remainder make up the traced wall time
        total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert total + values["trace.remainder_s"] == pytest.approx(values["trace.wall_s"])
        assert values["trace.remainder_s"] >= 0
        counts.append(exact(values))
    assert counts[0] == counts[1]
    assert (specdec.main_forward, model.KVCache.truncate, tensor.matmul) == originals
    assert_clean()


def test_wrappers_sit_at_call_sites():
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        # specdec imported main_forward by name; Tensor.__matmul__ looks up tensor.matmul
        assert specdec.main_forward is not model.main_forward.__wrapped__
        assert specdec.main_forward.__wrapped__ is model.main_forward.__wrapped__
        a = tensor.Tensor(np.ones((2, 2)))
        _ = a @ a
        assert tracer.stats["tensor.matmul"].count == 1
        with pytest.raises(AssertionError):
            assert_clean()
    finally:
        tracer.uninstall()
    assert_clean()


def test_pipeline_head_checksum_repeats(tmp_path):
    config = {
        "model": {"model_dim": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 64},
        "data": {"per_lang": 4, "response_len": 16},
        "pretrain": {"epochs": 1},
        "distill": {"prompts_per_lang": 2, "max_new_tokens": 8},
        "train": {"k_steps": 3, "epochs": 1},
        "vocab": {"size": wl.VOCAB_SIZE},
    }
    workload = wl.BuildPipeline(3, tmp_path / "work", config=config, eval_per_task=1,
                                eval_max_new=8)
    run = wl.measure(workload, 0.0, layers.targets())
    assert run.failed == 0, run.errors
    assert len(run.passes) == 2 and run.passes[0].digest == run.passes[1].digest
    values, _ = layers.per_layer_metrics(run, wl.K_DEPTH)
    for stage in layers.CLI_STAGES:
        assert values[f"cli.{stage}_s"] > 0
    assert values["training.pretrain_tokens_per_s"] > 0
    assert values["tensor.tape_ops_per_seq"] > 0
    assert not (tmp_path / "work").exists()


def test_stack_hash_mismatch_fails_loudly(tmp_path):
    stack = tmp_path / "stack"
    shutil.copytree(wl.STACK_DIR, stack)
    vocab = stack / f"vocab_zh_{wl.VOCAB_SIZE}.json"
    vocab.write_text(vocab.read_text().replace("]", ", 0]"))
    with pytest.raises(wl.BenchError, match="SHA256SUMS"):
        wl.load_stack(stack)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode-spec",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_decode_pass_stops_when_time_is_up():
    workload = toy_decode(wl.DecodeSpec)
    run = wl.Run()
    workload.setup(run)
    res = workload.run_pass(run, stop_at=0)
    assert res.partial and not res.samples and run.attempted == 0
