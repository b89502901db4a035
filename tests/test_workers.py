"""Forked workers: the same bytes on any CPU count, errors come back, every child is reaped."""

import json
import os
import resource
import signal
import time

import numpy as np
import pytest

from mtpspec import cli, distill, training, workers
from mtpspec import tensor as tn
from mtpspec.data import TrainingExample
from mtpspec.distill import GenerationConfig, self_distill
from mtpspec.errors import StateError, TrainingDiverged, WorkerError
from mtpspec.model import ModelConfig, init_model, main_forward
from mtpspec.specdec import speculative_decode
from mtpspec.training import TrainConfig, pretrain_main, train_mtp_head

SMALL = {
    "model": {"model_dim": 32, "n_layers": 1, "n_heads": 2, "max_seq_len": 96, "seed": 5},
    "data": {"per_lang": 8, "prompt_len": 8, "response_len": 20},
    "pretrain": {"epochs": 2, "batch_size": 4},
    "distill": {"prompts_per_lang": 5, "prompt_len": 8, "max_new_tokens": 16},
    "train": {"k_steps": 3, "epochs": 1, "batch_size": 4},
}
STAGES = [["pretrain-main"], ["distill"], ["dedup"], ["train-head"]]
TOY = ModelConfig(vocab_size=16, model_dim=8, n_layers=1, n_heads=2, max_seq_len=32, seed=7)

needs_workers = pytest.mark.skipif(workers._openblas() is None or not hasattr(os, "fork"),
                                   reason="no OpenBLAS thread setter or no os.fork here")
needs_mallopt = pytest.mark.skipif(workers._mallopt() is None, reason="no glibc mallopt here")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch) -> list:
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def examples(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        toks = rng.integers(TOY.vocab_size, size=12).tolist()
        out.append(TrainingExample(prompt=toks[:4], response=toks[4:], lang="syn-a",
                                   source="test"))
    return out


def in_worker(parent=os.getpid()):
    return os.getpid() != parent


def test_shares_cut_in_order_with_larger_ones_last():
    assert workers.shares(8, 2) == [range(0, 4), range(4, 8)]
    assert workers.shares(5, 2) == [range(0, 2), range(2, 5)]
    assert workers.shares(7, 3) == [range(0, 2), range(2, 4), range(4, 7)]
    assert workers.shares(1, 3) == [range(0, 0), range(0, 0), range(0, 1)]


def test_worker_count_follows_cpus_and_job_size(monkeypatch):
    set_cpus(monkeypatch, 1)
    assert workers.extra_processes(16) == 0
    set_cpus(monkeypatch, 3)
    expected = 2 if workers._openblas() is not None and hasattr(os, "fork") else 0
    assert workers.extra_processes(16) == expected
    assert workers.extra_processes(2) == min(expected, 1)
    assert workers.extra_processes(1) == 0


@needs_workers
def test_artifacts_identical_on_any_cpu_count_and_blas_setting(tmp_path, monkeypatch):
    """Pretrain, distill, dedup and head training through the CLI write the
    same bytes, loss logs included, on 1, 2 and 3 CPUs, with BLAS pinned to
    one thread and at its default."""
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps(SMALL))
    get_threads, set_threads = workers._openblas()
    default = get_threads()
    runs = {}
    try:
        for threads in sorted({1, default}):
            for n in (1, 2, 3):
                set_threads(threads)
                set_cpus(monkeypatch, n)
                forks = count_forks(monkeypatch)
                out = tmp_path / f"blas{threads}-cpus{n}"
                for step in STAGES:
                    assert cli.main(["--config", str(cfg_path), "--out-dir", str(out)] + step) == 0
                assert len(forks) == 3 * (n - 1)  # one per worker per trainer or distillation
                assert get_threads() == threads
                assert_no_children()
                runs[threads, n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    finally:
        set_threads(default)
    reference = runs[1, 1]
    assert {"main.npz", "pretrain_losses.json", "distilled.jsonl", "head.npz"} <= set(reference)
    for key, files in runs.items():
        assert files == reference, key


def trained_weights() -> dict:
    main, _ = init_model(TOY)
    pretrain_main([ex.tokens for ex in examples(8)], main, TrainConfig(epochs=1, batch_size=4))
    return {name: p.data for name, p in main.parameters().items()}


@needs_mallopt
def test_taped_steps_fault_no_pages_back_in_after_training():
    """Once training has set the allocator, taped 80-token steps of the CLI's
    backbone reuse the pages the last step's tape freed: at the allocator's
    defaults each step faults about 370 back in."""
    trained_weights()
    assert workers.keep_freed_memory()
    main, _ = init_model(ModelConfig(**cli.DEFAULT_CONFIG["model"]))
    rng = np.random.default_rng(0)

    def step():
        tokens = rng.integers(main.config.vocab_size, size=80)
        with tn.Tape() as tape:
            _, logits = main_forward(main, tokens)
            rows = tn.rows(logits, 0, tokens.size - 1)
            tape.backward(tn.cross_entropy_rows(rows, tokens[1:], np.full(79, 1 / 79)))

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 30


def test_only_training_sets_the_allocator(monkeypatch):
    calls = []
    monkeypatch.setattr(workers, "keep_freed_memory", lambda: calls.append(1))
    main, head = init_model(TOY)
    main.freeze()
    speculative_decode(main, head, [1, 2, 3], 8, 2)
    assert calls == []
    trained_weights()
    assert calls == [1]


def test_training_without_mallopt_gives_the_same_weights(monkeypatch):
    expected = trained_weights()
    lookups = []
    monkeypatch.setattr(workers, "_mallopt", lambda: lookups.append(1))
    workers.keep_freed_memory.cache_clear()
    try:
        got = trained_weights()
        assert lookups == [1] and workers.keep_freed_memory() is False
    finally:
        workers.keep_freed_memory.cache_clear()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name].tobytes() == expected[name].tobytes(), name


@needs_workers
def test_blas_held_to_one_thread_while_workers_run_then_restored(monkeypatch):
    set_cpus(monkeypatch, 2)
    get_threads, set_threads = workers._openblas()
    old = get_threads()
    seen = []
    forward = training.main_forward

    def recording(*args, **kwargs):
        seen.append(get_threads())
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "main_forward", recording)
    main, _ = init_model(TOY)
    set_threads(2)
    try:
        pretrain_main([ex.tokens for ex in examples(4)], main,
                      TrainConfig(epochs=1, batch_size=4))
        assert seen and set(seen) == {1}
        assert get_threads() == 2
    finally:
        set_threads(old)
    assert_no_children()


def test_nothing_forks_on_one_cpu(monkeypatch):
    set_cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    main, head = init_model(TOY)
    pretrain_main([ex.tokens for ex in examples(4)], main, TrainConfig(epochs=1, batch_size=4))
    train_mtp_head(examples(4), main, head, TrainConfig(k_steps=2, epochs=1, batch_size=4))
    self_distill([([1, 2], "syn-a")] * 3, main, GenerationConfig(max_new_tokens=4))


@needs_workers
def test_mtpspec_error_in_a_worker_keeps_its_type_and_traceback(monkeypatch):
    set_cpus(monkeypatch, 2)
    hidden = training.backbone_hidden

    def failing_in_worker(main, tokens):
        if in_worker():
            raise StateError("bad item in a worker")
        return hidden(main, tokens)

    monkeypatch.setattr(training, "backbone_hidden", failing_in_worker)
    main, head = init_model(TOY)
    main.freeze()
    with pytest.raises(StateError, match="bad item in a worker") as info:
        train_mtp_head(examples(4), main, head, TrainConfig(k_steps=2, epochs=1, batch_size=4))
    notes = "\n".join(getattr(info.value, "__notes__", []))
    assert "raised in worker 1" in notes and "failing_in_worker" in notes
    assert_no_children()


@needs_workers
def test_other_error_in_a_worker_raises_worker_error(monkeypatch):
    set_cpus(monkeypatch, 2)
    generate = distill.generate

    def failing_in_worker(*args):
        if in_worker():
            raise ZeroDivisionError("division in a worker")
        return generate(*args)

    monkeypatch.setattr(distill, "generate", failing_in_worker)
    main, _ = init_model(TOY)
    main.freeze()
    with pytest.raises(WorkerError, match="ZeroDivisionError: division in a worker"):
        self_distill([([1, 2], "syn-a")] * 4, main, GenerationConfig(max_new_tokens=4))
    assert_no_children()


@needs_workers
def test_killed_worker_raises_worker_error(monkeypatch):
    set_cpus(monkeypatch, 2)
    forward = training.main_forward

    def killed_in_worker(*args, **kwargs):
        if in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "main_forward", killed_in_worker)
    main, _ = init_model(TOY)
    with pytest.raises(WorkerError, match="killed by signal"):
        pretrain_main([ex.tokens for ex in examples(4)], main,
                      TrainConfig(epochs=1, batch_size=4))
    assert_no_children()


@needs_workers
def test_error_in_the_caller_kills_and_reaps_its_workers(monkeypatch):
    set_cpus(monkeypatch, 2)
    main, head = init_model(TOY)
    main.freeze()
    head.norm_hidden.data[0] = np.nan
    with pytest.raises(TrainingDiverged):
        train_mtp_head(examples(4), main, head, TrainConfig(k_steps=2, epochs=1, batch_size=4))
    assert_no_children()

    t0 = time.monotonic()
    with pytest.raises(KeyError):
        with workers.forked(1, lambda i, link: time.sleep(60)):
            raise KeyError("caller failed")
    assert time.monotonic() - t0 < 30
    assert_no_children()
