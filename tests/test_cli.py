"""End-to-end CLI smoke test on a miniature configuration."""

import hashlib
import json

import numpy as np
import pytest

from mtpspec.bench import load_report_csv, load_report_json
from mtpspec.cli import DEFAULT_CONFIG, load_config, main
from mtpspec.data import TrainingExample, load_dataset, save_dataset
from mtpspec.distill import GenerationConfig
from mtpspec.errors import ConfigError
from mtpspec.model import MainModel, ModelConfig, MTPHead
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

# SHA-256 of every artifact the TINY pipeline writes before `bench`: checkpoint
# arrays by name, other files by their bytes. Turning a setting that every caller
# leaves at its default into a constant must move none of them. Like
# tests/test_bitpin.py, they pin float64 numpy and its BLAS (x86-64, OpenBLAS).
ARTIFACT_PINS = {
    "corpus.jsonl": "971cba32bc8433fce6d809a9be43eb2d8cd169b00a66de80ff4d5e0aa45c145e",
    "main.npz": "9c20f51630d159f7f28218bcab9642e6c6374663bda8034a837c6c3f2b17929a",
    "pretrain_losses.json": "8eb4e524fdce6662278dc5f05434bf96da0f3ce116db96c63078a23f1fc8535d",
    "distilled.jsonl": "85177b369b64698878654086921041c88cdd3f66418da5d7686371897cdb7279",
    "dataset.jsonl": "a60a9277ad63904d324d25b72390af4fdab2b476e5b71acb1fe73dd0676bece1",
    "head.npz": "921ecc339d4f5e2083e9a09298b93a54a80fefc14ff7ea24b30efb088c66432f",
    "head_losses.json": "4a181dded9a8005329f875448195afc3f504b2e0e8e955ed141e13d275ce9759",
    "head-vanilla.npz": "8c4cce2faa09e93bb78c255d926496b7e392e919b5081ced9a793a9cd08dd0d1",
    "head-vanilla_losses.json": "2a16274d647235fcb5fb5a76aaa0ab3c89ee3e16a4b6d62e016fb8b38b95ede1",
    "freq_syn-a.json": "c71262cbde71a9d1101956e889a8e3e8f7c8a611735e4e0c221003005de5428f",
    "vocab_syn-a_64.json": "0fb148ead29af4a7937741ce38dff45b5657cf04aa4862137650962545b2bc8e",
}


def artifact_digest(path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as saved:
            for name in sorted(saved.files):
                a = np.ascontiguousarray(saved[name])
                h.update(f"{name}{a.dtype}{a.shape}".encode())
                h.update(a.tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


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
        ({"pretrain": {"k_steps": 2}}, "'k_steps'"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, user, named):
        path = tmp_path / "bad.json"
        path.write_text(user if isinstance(user, str) else json.dumps(user))
        with pytest.raises(ConfigError, match=named):
            load_config(str(path))

    # settings with one value in use are constants; an old config that sets one fails
    @pytest.mark.parametrize("section, key", [
        *((section, key) for section in ("pretrain", "train")
          for key in ("adam_beta1", "adam_beta2", "adam_eps", "weight_decay", "warmup_ratio")),
        *(("dedup", key) for key in ("shingle_width", "num_hashes", "hash_seed",
                                     "min_response_len", "max_response_len", "ngram_width",
                                     "min_ngram_total", "drop_truncated")),
        ("vocab", "specials"), ("bench", "repetitions"),
    ])
    def test_retired_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({section: {key: 1}}))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(str(path))

    def test_config_class_fields_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"train": {"beta": 0.5},
                                    "dedup": {"max_ngram_ratio": 0.25}}))
        cfg = load_config(str(path))
        assert cfg["train"]["beta"] == 0.5
        assert cfg["dedup"]["max_ngram_ratio"] == 0.25

    # a value must have its default's type: a bool is not an integer, and a
    # list holds its default's item type; a Jaccard threshold lies in (0, 1];
    # language lists hold known tags, and the data and bench lists at least one;
    # the vocabulary holds every id of the data and bench languages (syn-b
    # reaches 507), so byte-only data with the default bench languages fails;
    # `others` holds the rest of the config file
    @pytest.mark.parametrize("section, key, value, others", [
        *(pytest.param(section, key, value, {}, id=f"{section}-{key}-{value}")
          for section, key, value in (
              ("data", "per_lang", 2.5), ("vocab", "size", 64.0),
              ("dedup", "jaccard_threshold", "0.9"), ("bench", "langs", "en"),
              ("data", "seed", "7"), ("bench", "prompts_per_task", True),
              *(("dedup", "jaccard_threshold", value) for value in (1.5, 0, -0.1)),
              ("model", "vocab_size", 300))),
        *(pytest.param(section, key, value, {}, id=f"{section}-{key}-{name}")
          for section, key in (("bench", "langs"), ("data", "langs"))
          for name, value in (("empty", []), ("unknown", ["xx"]))),
        pytest.param("dedup", "mix_back_langs", ["xx"], {}, id="dedup-mix_back_langs-unknown"),
        pytest.param("model", "vocab_size", 300, {"data": {"langs": ["en", "zh"]}},
                     id="model-vocab_size-300-byte-data"),
    ])
    def test_malformed_value_rejected_at_load(self, tmp_path, section, key, value, others):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}, **others}))
        with pytest.raises(ConfigError, match=rf"bad\.json: {section}\.{key} must be "):
            load_config(str(path))

    def test_byte_only_config_takes_a_byte_vocabulary(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"model": {"vocab_size": 300},
                                    "data": {"langs": ["en", "zh"]},
                                    "bench": {"langs": ["en", "zh"]}}))
        cfg = load_config(str(path))
        assert (cfg["model"]["vocab_size"], cfg["data"]["langs"]) == (300, ["en", "zh"])

    def test_float_setting_takes_an_integer(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"train": {"lr": 1}, "bench": {"langs": ["en"]}}))
        cfg = load_config(str(path))
        assert (cfg["train"]["lr"], cfg["bench"]["langs"]) == (1, ["en"])

    # numpy's generators take no negative seed; a config's is rejected where it is read
    @pytest.mark.parametrize("section", [s for s, v in DEFAULT_CONFIG.items() if "seed" in v])
    def test_negative_seed_rejected_at_load(self, tmp_path, section):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {"seed": -5}}))
        with pytest.raises(ConfigError, match=rf"bad\.json: {section}\.seed must be at least 0"):
            load_config(str(path))

    @pytest.mark.parametrize("seed", ["-1", "-12"])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", seed, "--out-dir", str(tmp_path / "out"), "pretrain-main"])
        assert exit_info.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, field, value", [
        (TrainConfig, "epochs", 2.5), (TrainConfig, "k_steps", 2.0),
        (TrainConfig, "batch_size", True), (ModelConfig, "vocab_size", 512.0),
        (ModelConfig, "n_layers", 2.5), (GenerationConfig, "top_k", 2.5),
        (GenerationConfig, "max_new_tokens", 3.5),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_integer_settings_reject_other_types(self, config, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            config(**{field: value})


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

    @pytest.mark.parametrize("name", list(ARTIFACT_PINS))
    def test_artifacts_keep_their_bytes(self, workdir, name):
        _, out = workdir
        assert artifact_digest(out / name) == ARTIFACT_PINS[name]

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
        with pytest.raises(SystemExit) as exit_info:  # a usage error, at parse time
            main(base + ["build-vocab", "--lang", "syn-a", "--size", "0"])
        assert exit_info.value.code == 2
        assert not (out / "vocab_syn-a_0.json").exists()
        assert not (out / "vocab_syn-a_128.json").exists()

    def test_pretrain_zero_epochs_rejected_before_writing(self, tmp_path):
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps({**TINY, "pretrain": {"epochs": 0}}))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="epoch"):
            main(["--config", str(cfg_path), "--out-dir", str(out), "pretrain-main"])
        assert not out.exists() or not any(out.iterdir())

    def test_float_epochs_rejected_before_writing(self, tmp_path):
        cfg_path = tmp_path / "float.json"
        cfg_path.write_text(json.dumps({**TINY, "pretrain": {"epochs": 2.5}}))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="epochs must be an integer"):
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

    # a bad flag value is a usage error before the stack is loaded
    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--task-lang", "xx"], ["sweep-vocab", "--task-lang", "xx"],
        ["sweep-vocab", "--sizes", "32,abc"], ["bench", "--k", "-1"],
        ["sweep-vocab", "--k", "-1"], ["sweep-k", "--k-max", "-1"], ["train-head", "--k", "0"],
        ["build-vocab", "--size", "0", "--lang", "syn-a"], ["sweep-vocab", "--sizes", "32,0"],
    ], ids=["sweep-k-task-lang", "sweep-vocab-task-lang", "sweep-vocab-sizes", "bench-k",
            "sweep-vocab-k", "sweep-k-k-max", "train-head-k", "build-vocab-size",
            "sweep-vocab-sizes-zero"])
    def test_bad_flag_value_is_a_usage_error(self, workdir, capsys, argv):
        base, _ = workdir
        with pytest.raises(SystemExit) as exit_info:
            main(base + argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err
