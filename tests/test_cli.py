"""End-to-end CLI smoke test on a miniature configuration."""

import json

import numpy as np
import pytest

from mtpspec.bench import load_report_csv, load_report_json
from mtpspec.cli import DEFAULT_CONFIG, load_config, main
from mtpspec.data import TrainingExample, load_dataset, save_dataset
from mtpspec.errors import ConfigError
from mtpspec.model import MainModel, MTPHead
from mtpspec.specdec import read_round_log
from mtpspec.training import TrainConfig, train_mtp_head

TINY = {
    "model": {"model_dim": 32, "n_layers": 1, "n_heads": 2, "max_seq_len": 96,
              "seed": 5},
    "data": {"per_lang": 8, "prompt_len": 8, "response_len": 20},
    "pretrain": {"epochs": 2, "batch_size": 4},
    "distill": {"prompts_per_lang": 5, "prompt_len": 8, "max_new_tokens": 16},
    "train": {"k_steps": 3, "epochs": 1, "batch_size": 4},
    "bench": {"max_new_tokens": 12, "prompts_per_task": 2, "prompt_len": 8,
              "langs": ["syn-a", "cycle"]},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    out = root / "out"
    base = ["--config", str(cfg_path), "--out-dir", str(out)]
    assert main(base + ["pretrain-main"]) == 0
    assert main(base + ["distill"]) == 0
    assert main(base + ["dedup"]) == 0
    assert main(base + ["train-head"]) == 0
    assert main(base + ["train-head", "--k", "1", "--tag", "vanilla"]) == 0
    assert main(base + ["build-vocab", "--lang", "syn-a", "--size", "64"]) == 0
    return base, out


class TestConfig:
    def test_defaults_deep_copied(self):
        cfg = load_config(None)
        cfg["model"]["model_dim"] = 1
        assert DEFAULT_CONFIG["model"]["model_dim"] != 1

    def test_seed_override_hits_every_section(self):
        cfg = load_config(None, seed=99)
        for section in cfg.values():
            if isinstance(section, dict) and "seed" in section:
                assert section["seed"] == 99

    # a string user config is the whole file's text
    @pytest.mark.parametrize("user, named", [
        ({"model": {"dim": 3}}, "'dim'"),
        ({"bnech": {"repetitions": 2}}, "'bnech'"),
        ('{"model": {"dim": 3}', "bad.json: invalid JSON"),
        ([{"model": {}}], "bad.json: a config must be a JSON object"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, user, named):
        path = tmp_path / "bad.json"
        path.write_text(user if isinstance(user, str) else json.dumps(user))
        with pytest.raises(ConfigError, match=named):
            load_config(str(path))

    def test_config_class_fields_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"train": {"weight_decay": 0.1},
                                    "dedup": {"min_ngram_total": 4}}))
        cfg = load_config(str(path))
        assert cfg["train"]["weight_decay"] == 0.1
        assert cfg["dedup"]["min_ngram_total"] == 4


class TestPipelineArtifacts:
    def test_stage_outputs_exist_and_load(self, workdir):
        _, out = workdir
        assert (out / "corpus.jsonl").exists()
        main_model = MainModel.load(out / "main.npz")
        assert main_model.frozen
        head = MTPHead.load(out / "head.npz", main_model)
        assert head.trained_depth == 3
        vanilla = MTPHead.load(out / "head-vanilla.npz", main_model)
        assert vanilla.trained_depth == 1
        dataset = load_dataset(out / "dataset.jsonl", main_model.config.vocab_size)
        assert dataset and all(ex.source == "self-distill" for ex in dataset)

    def test_head_trained_against_the_loaded_backbone(self, workdir):
        base, out = workdir
        main_model = MainModel.load(out / "main.npz")
        dataset = load_dataset(out / "dataset.jsonl", main_model.config.vocab_size)
        head = MTPHead(main_model, np.random.default_rng(TINY["model"]["seed"]))
        train_mtp_head(dataset, main_model, head,
                       TrainConfig(**load_config(base[1])["train"]))
        with np.load(out / "head.npz") as saved:
            for name, p in head.parameters().items():
                np.testing.assert_array_equal(saved[f"param/{name}"], p.data, err_msg=name)

    def test_vocab_artifacts(self, workdir):
        _, out = workdir
        freq = json.loads((out / "freq_syn-a.json").read_text())
        assert freq["lang"] == "syn-a" and freq["total"] > 0
        counts = [c for _, c in freq["pairs"]]
        assert counts == sorted(counts, reverse=True)
        vocab = json.loads((out / "vocab_syn-a_64.json").read_text())
        assert vocab["size"] == 64 and len(vocab["keep"]) == 64

    def test_build_vocab_size_zero_rejected(self, workdir):
        base, out = workdir
        with pytest.raises(ConfigError):
            main(base + ["build-vocab", "--lang", "syn-a", "--size", "0"])
        assert not (out / "vocab_syn-a_128.json").exists()

    def test_pretrain_zero_epochs_rejected_before_writing(self, tmp_path):
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps({**TINY, "pretrain": {"epochs": 0}}))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="epoch"):
            main(["--config", str(cfg_path), "--out-dir", str(out), "pretrain-main"])
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("stage", [["dedup", "--input"], ["train-head", "--data"],
                                       ["build-vocab", "--lang", "syn-a", "--data"]])
    def test_dataset_ids_beyond_vocab_rejected(self, workdir, tmp_path, stage):
        base, out = workdir
        path = tmp_path / "wide.jsonl"
        save_dataset(path, [TrainingExample([1, 2], [3, 512], "syn-a", "self-distill")])
        before = sorted(p.name for p in out.iterdir())
        with pytest.raises(ConfigError, match="outside"):
            main(base + stage + [str(path)])
        assert sorted(p.name for p in out.iterdir()) == before


class TestBenchCommands:
    def test_bench_writes_reports_and_logs(self, workdir):
        base, out = workdir
        rc = main(base + ["bench",
                          "--vanilla-head", str(out / "head-vanilla.npz"),
                          "--vocab", str(out / "vocab_syn-a_64.json")])
        assert rc == 0
        rows = load_report_csv(out / "report.csv")
        assert rows == load_report_json(out / "report.json")
        methods = {r.method for r in rows}
        assert methods == {"baseline", "vanilla-head", "finetuned-head",
                           "finetuned-head+FR"}
        records = read_round_log(out / "rounds_cycle_finetuned-head_k3.jsonl")
        assert records and all("drafts" in r for r in records)

    def test_sweep_and_report_commands(self, workdir, capsys):
        base, out = workdir
        assert main(base + ["sweep-k", "--k-max", "2", "--task-lang", "cycle"]) == 0
        assert main(base + ["sweep-vocab", "--sizes", "32,512",
                            "--task-lang", "syn-a"]) == 0
        assert main(base + ["report", "--rows", str(out / "sweep_k.json")]) == 0
        printed = capsys.readouterr().out
        assert "tau" in printed and "analytic" in printed
        ks = [r.k for r in load_report_json(out / "sweep_k.json")]
        assert ks == [0, 1, 2]
