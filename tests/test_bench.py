"""Harness-level tests: row math, sequencing, emission round-trips."""

import numpy as np
import pytest

from mtpspec.bench import (
    REPORT_COLUMNS, BenchTask, ReportRow, RunConfig, argmax_speedup, emit_report,
    format_table, load_report_csv, load_report_json, run_benchmark,
    sweep_draft_depth, sweep_vocab_size,
)
from mtpspec.errors import ConfigError, SequencingError
from mtpspec.model import ModelConfig, init_model
from mtpspec.specdec import read_round_log, tau_from_records
from mtpspec.vocab import VocabBank, build_frequency_table, compress_vocab

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=1, n_heads=2,
                  max_seq_len=64, seed=31)


@pytest.fixture(scope="module")
def rig():
    main, head = init_model(CFG)
    main.freeze()
    rng = np.random.default_rng(0)
    prompts = [rng.integers(CFG.vocab_size, size=6).tolist() for _ in range(4)]
    task = BenchTask(name="toy", prompts=prompts, lang=None, max_new_tokens=12)
    return main, head, task


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(method="nope")
        with pytest.raises(ConfigError):
            RunConfig(method="baseline", k_depth=2)
        with pytest.raises(ConfigError):
            BenchTask(name="x", prompts=[], lang=None, max_new_tokens=4)


class TestRunBenchmark:
    def test_baseline_rows_have_exact_unit_metrics(self, rig):
        main, head, task = rig
        rows = run_benchmark([task], [RunConfig("baseline", k_depth=0)], main=main)
        assert rows[0].tau == 1.0
        assert rows[0].analytic_speedup == 1.0
        assert rows[0].wall_speedup == 1.0

    def test_missing_baseline_is_sequencing_error(self, rig):
        main, head, task = rig
        with pytest.raises(SequencingError):
            run_benchmark([task], [RunConfig("finetuned-head")], main=main,
                          finetuned_head=head)

    def test_rows_and_round_logs_agree(self, rig, tmp_path):
        main, head, task = rig
        cfgs = [RunConfig("baseline", k_depth=0), RunConfig("finetuned-head", k_depth=2)]
        rows = run_benchmark([task], cfgs, main=main, finetuned_head=head,
                             log_dir=str(tmp_path))
        spec_row = rows[-1]
        records = read_round_log(tmp_path / "rounds_toy_finetuned-head_k2.jsonl")
        assert tau_from_records(records) == pytest.approx(spec_row.tau, abs=1e-9)
        assert spec_row.rounds == len(records)

    def test_fr_method_requires_bank(self, rig):
        main, head, task = rig
        cfgs = [RunConfig("baseline", k_depth=0), RunConfig("finetuned-head+FR")]
        with pytest.raises(ConfigError):
            run_benchmark([task], cfgs, main=main, finetuned_head=head)

    def test_all_methods_emit_identical_outputs(self, rig):
        # losslessness holds through the harness: same committed token
        # totals for every method on the same prompts
        main, head, task = rig
        table = build_frequency_table(task.prompts, "toy", CFG.vocab_size)
        bank = VocabBank(main, [compress_vocab(table, 16, specials=(), main=main)])
        cfgs = [RunConfig("baseline", k_depth=0),
                RunConfig("vanilla-head", k_depth=2),
                RunConfig("finetuned-head", k_depth=3),
                RunConfig("finetuned-head+FR", k_depth=3)]
        rows = run_benchmark([task], cfgs, main=main, vanilla_head=head,
                             finetuned_head=head, bank=bank)
        generated = {r.method: r.output_tokens + r.prompts for r in rows}
        assert len(set(generated.values())) == 1


class TestSweeps:
    def test_k_zero_row_is_exact_unit(self, rig):
        main, head, task = rig
        rows = sweep_draft_depth(task, range(0, 3), main=main, head=head)
        assert rows[0].k == 0
        assert rows[0].tau == 1.0
        assert rows[0].analytic_speedup == 1.0

    def test_argmax_matches_brute_force(self, rig):
        main, head, task = rig
        rows = sweep_draft_depth(task, range(0, 4), main=main, head=head)
        best = argmax_speedup(rows)
        brute = max(r.analytic_speedup for r in rows)
        assert next(r.analytic_speedup for r in rows if r.k == best) == brute

    def test_vocab_sweep_identity_size_matches_full_run(self, rig):
        main, head, task = rig
        corpus = [list(range(CFG.vocab_size))]
        tables = {"toy": build_frequency_table(corpus, "toy", CFG.vocab_size)}
        rows = sweep_vocab_size(task, [CFG.vocab_size], main=main, head=head,
                                tables=tables, specials=(), k_depth=2)
        full = sweep_draft_depth(task, [2], main=main, head=head)
        assert rows[0].tau == full[0].tau

    def test_oversized_vocab_clamps(self, rig):
        main, head, task = rig
        tables = {"toy": build_frequency_table([[1, 2, 3]], "toy", CFG.vocab_size)}
        rows = sweep_vocab_size(task, [CFG.vocab_size * 2], main=main, head=head,
                                tables=tables, specials=(), k_depth=1)
        assert rows[0].vocab_size == CFG.vocab_size


class TestEmission:
    def _rows(self, rig):
        main, head, task = rig
        cfgs = [RunConfig("baseline", k_depth=0), RunConfig("finetuned-head", k_depth=3)]
        return run_benchmark([task], cfgs, main=main, finetuned_head=head)

    def test_round_trip_csv_and_json(self, rig, tmp_path):
        rows = self._rows(rig)
        paths = emit_report(rows, str(tmp_path))
        assert load_report_csv(paths["csv"]) == rows
        assert load_report_json(paths["json"]) == rows

    def test_csv_header_matches_documented_columns(self, rig, tmp_path):
        paths = emit_report(self._rows(rig), str(tmp_path))
        with open(paths["csv"]) as fh:
            assert fh.readline().strip().split(",") == REPORT_COLUMNS

    def test_tau_formatted_with_at_least_three_decimals(self, rig, tmp_path):
        paths = emit_report(self._rows(rig), str(tmp_path))
        with open(paths["csv"]) as fh:
            fh.readline()
            for line in fh:
                tau_field = line.split(",")[REPORT_COLUMNS.index("tau")]
                assert len(tau_field.split(".")[1]) >= 3
        table = format_table(self._rows(rig))
        assert "1.000" in table

    def test_csv_lines_are_pinned(self, tmp_path):
        # a format change that still round-trips would pass the test above
        rows = [ReportRow(task="zh", method="finetuned-head+FR", k=2, vocab_size=128,
                          prompts=3, output_tokens=40, rounds=17, tau=2.352941176,
                          rates=[0.8125, 0.5], tokens_per_s=1234.5,
                          tokens_per_s_std=0.25, c_draft=0.55,
                          analytic_speedup=1.1204481, wall_speedup=0.9),
                ReportRow(task="en", method="baseline", k=0, vocab_size=512,
                          prompts=3, output_tokens=45, rounds=45, tau=1.0, rates=[],
                          tokens_per_s=2000.0, tokens_per_s_std=0.0, c_draft=0.0,
                          analytic_speedup=1.0, wall_speedup=1.0)]
        paths = emit_report(rows, str(tmp_path))
        with open(paths["csv"], newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[1:] == [
            "zh,finetuned-head+FR,2,128,3,40,17,2.352941176,0.812500000;0.500000000,"
            "1234.500000000,0.250000000,0.550000000,1.120448100,0.900000000",
            "en,baseline,0,512,3,45,45,1.000000000,,"
            "2000.000000000,0.000000000,0.000000000,1.000000000,1.000000000",
            "",
        ]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], str(tmp_path))
