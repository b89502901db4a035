"""Harness-level tests: row math, method rows, emission round-trips."""

import json
import math

import numpy as np
import pytest

from mtpspec import bench
from mtpspec.bench import (
    REPORT_COLUMNS, BenchTask, ReportRow, argmax_speedup, emit_report,
    format_table, load_report_csv, load_report_json, run_benchmark,
    sweep_draft_depth, sweep_vocab_size,
)
from mtpspec.errors import ConfigError
from mtpspec.model import ModelConfig, init_model
from mtpspec.specdec import baseline_decode, read_round_log, speculative_decode
from mtpspec.vocab import VocabBank, build_frequency_table, compress_vocab
from oracles import rates_from_records, tau_from_records

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


class TestBenchTask:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchTask(name="x", prompts=[], lang=None, max_new_tokens=4)
        for budget in (0, -1, -48, 2.5, True):
            with pytest.raises(ConfigError, match="max_new_tokens"):
                BenchTask(name="x", prompts=[[1, 2]], lang=None, max_new_tokens=budget)
        assert BenchTask(name="x", prompts=[[1, 2]], lang=None, max_new_tokens=1)


class TestRunBenchmark:
    def test_baseline_rows_have_exact_unit_metrics(self, rig):
        main, head, task = rig
        rows = run_benchmark([task], main=main, finetuned_head=head)
        assert rows[0].method == "baseline" and rows[0].k == 0
        assert rows[0].tau == 1.0
        assert rows[0].analytic_speedup == 1.0
        assert rows[0].wall_speedup == 1.0

    def test_rows_and_round_logs_agree(self, rig, tmp_path):
        main, head, task = rig
        rows = run_benchmark([task], main=main, finetuned_head=head, k_depth=2,
                             log_dir=str(tmp_path))
        spec_row = rows[-1]
        records = read_round_log(tmp_path / "rounds_toy_finetuned-head_k2.jsonl")
        assert tau_from_records(records) == pytest.approx(spec_row.tau, abs=1e-9)
        assert spec_row.rounds == len(records)

    def test_row_rates_equal_round_log_replay(self, rig, tmp_path):
        # the untrained head never matches, so no round reaches steps 2..4
        main, head, task = rig
        rows = run_benchmark([task], main=main, finetuned_head=head, k_depth=4,
                             log_dir=str(tmp_path))
        records = read_round_log(tmp_path / "rounds_toy_finetuned-head_k4.jsonl")
        replayed = rates_from_records(records, 4)
        assert any(math.isnan(r) for r in replayed)
        np.testing.assert_allclose(rows[-1].rates, replayed, rtol=0, atol=1e-9)

    def test_all_methods_emit_identical_outputs(self, rig):
        # losslessness holds through the harness: same committed token
        # totals for every method on the same prompts
        main, head, task = rig
        table = build_frequency_table(task.prompts, "toy", CFG.vocab_size)
        bank = VocabBank(main, [compress_vocab(table, 16, specials=(), main=main)])
        rows = run_benchmark([task], main=main, vanilla_head=head,
                             finetuned_head=head, bank=bank, k_depth=3)
        generated = {r.method: r.output_tokens + r.prompts for r in rows}
        assert len(set(generated.values())) == 1

    def test_rows_follow_the_heads_and_bank_given(self, rig):
        main, head, task = rig
        other = BenchTask(name="other", prompts=task.prompts[:2], lang="toy",
                          max_new_tokens=6)
        table = build_frequency_table(task.prompts, "toy", CFG.vocab_size)
        bank = VocabBank(main, [compress_vocab(table, 16, specials=(), main=main)])
        rows = run_benchmark([task, other], main=main, vanilla_head=head,
                             finetuned_head=head, bank=bank, k_depth=2)
        assert [(r.method, r.task, r.k, r.vocab_size) for r in rows] == [
            ("baseline", "toy", 0, 64), ("baseline", "other", 0, 64),
            ("vanilla-head", "toy", 2, 64), ("vanilla-head", "other", 2, 64),
            ("finetuned-head", "toy", 2, 64), ("finetuned-head", "other", 2, 64),
            ("finetuned-head+FR", "toy", 2, 16), ("finetuned-head+FR", "other", 2, 16)]
        rows = run_benchmark([task], main=main, finetuned_head=head, k_depth=1)
        assert [(r.method, r.k) for r in rows] == [("baseline", 0), ("finetuned-head", 1)]

    def test_negative_depth_rejected(self, rig):
        main, head, task = rig
        with pytest.raises(ConfigError):
            run_benchmark([task], main=main, finetuned_head=head, k_depth=-1)


class TestSweeps:
    @pytest.mark.parametrize("k_range", [range(0, 0), range(-1, 2)])
    def test_empty_or_negative_depth_range_rejected(self, rig, k_range):
        main, head, task = rig
        with pytest.raises(ConfigError):
            sweep_draft_depth(task, k_range, main=main, head=head)

    def test_k_zero_row_is_exact_unit(self, rig):
        main, head, task = rig
        rows = sweep_draft_depth(task, range(0, 3), main=main, head=head)
        assert rows[0].k == 0
        assert rows[0].tau == 1.0
        assert rows[0].analytic_speedup == 1.0

    def test_k_zero_row_is_the_greedy_baseline(self, rig, monkeypatch):
        main, head, task = rig
        greedy_calls, spec_depths = [], []

        def counted_baseline(*args, **kwargs):
            greedy_calls.append(args[1])
            return baseline_decode(*args, **kwargs)

        def counted_speculative(*args, **kwargs):
            spec_depths.append(args[4])
            return speculative_decode(*args, **kwargs)

        monkeypatch.setattr(bench, "baseline_decode", counted_baseline)
        monkeypatch.setattr(bench, "speculative_decode", counted_speculative)
        rows = sweep_draft_depth(task, range(0, 3), main=main, head=head)
        assert greedy_calls == task.prompts
        assert spec_depths == [1] * len(task.prompts) + [2] * len(task.prompts)
        assert [(r.k, r.method) for r in rows] == [
            (0, "baseline"), (1, "finetuned-head"), (2, "finetuned-head")]
        for row in rows[1:]:
            assert row.wall_speedup == pytest.approx(
                row.tokens_per_s / rows[0].tokens_per_s, rel=1e-6)

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
        return run_benchmark([task], main=main, finetuned_head=head, k_depth=3)

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
                          rates=[0.8125, 0.5], tokens_per_s=1234.5, c_draft=0.55,
                          analytic_speedup=1.1204481, wall_speedup=0.9),
                ReportRow(task="en", method="baseline", k=0, vocab_size=512,
                          prompts=3, output_tokens=45, rounds=45, tau=1.0, rates=[],
                          tokens_per_s=2000.0, c_draft=0.0,
                          analytic_speedup=1.0, wall_speedup=1.0)]
        paths = emit_report(rows, str(tmp_path))
        with open(paths["csv"], newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[1:] == [
            "zh,finetuned-head+FR,2,128,3,40,17,2.352941176,0.812500000;0.500000000,"
            "1234.500000000,0.550000000,1.120448100,0.900000000",
            "en,baseline,0,512,3,45,45,1.000000000,,"
            "2000.000000000,0.000000000,1.000000000,1.000000000",
            "",
        ]

    def test_nan_rate_round_trips(self, tmp_path):
        row = ReportRow(task="toy", method="finetuned-head", k=2, vocab_size=64,
                        prompts=4, output_tokens=48, rounds=48, tau=1.0,
                        rates=[0.0, math.nan], tokens_per_s=800.0, c_draft=0.5,
                        analytic_speedup=0.5, wall_speedup=0.8)
        paths = emit_report([row], str(tmp_path))
        with open(paths["csv"]) as fh:
            assert "0.000000000;nan" in fh.read().splitlines()[1]
        for loaded in (load_report_csv(paths["csv"]), load_report_json(paths["json"])):
            assert loaded == [row]
            assert loaded[0].rates[0] == 0.0 and math.isnan(loaded[0].rates[1])

    # a field's wrong value: each must name the row and the field
    WRONG_VALUES = {"tau-a-string": ("tau", "oops"), "rates-a-string": ("rates", "abc"),
                    "k-a-bool": ("k", True), "k-a-float": ("k", 2.0),
                    "task-a-number": ("task", 3), "tau-a-bool": ("tau", False),
                    "tau-null": ("tau", None), "rates-of-strings": ("rates", ["0.5"]),
                    "rates-of-bools": ("rates", [True]), "rounds-a-list": ("rounds", [48])}

    @pytest.mark.parametrize("case", ["invalid-json", "not-a-list", "row-not-an-object",
                                      "missing-column", "extra-column", *WRONG_VALUES])
    def test_malformed_report_json_rejected(self, tmp_path, case):
        good = ReportRow(task="toy", method="baseline", k=0, vocab_size=64, prompts=4,
                         output_tokens=48, rounds=48, tau=1.0, rates=[],
                         tokens_per_s=800.0, c_draft=0.0,
                         analytic_speedup=1.0, wall_speedup=1.0).to_json()
        match = "report.json"
        if case in self.WRONG_VALUES:
            name, value = self.WRONG_VALUES[case]
            rows = json.dumps([good, {**good, name: value}])
            match = f"report.json: report row 1 field '{name}'"
        else:
            rows = {"invalid-json": json.dumps([good])[:-2],
                    "not-a-list": json.dumps(good),
                    "row-not-an-object": json.dumps([list(good.values())]),
                    "missing-column": json.dumps([{k: v for k, v in good.items()
                                                   if k != "tau"}]),
                    "extra-column": json.dumps([{**good, "speedup": 1.0}])}[case]
        path = tmp_path / "report.json"
        path.write_text(rows)
        with pytest.raises(ConfigError, match=match):
            load_report_json(path)

    # a CSV report is checked as a JSON one is, and each error names the file
    MALFORMED_CSV = {"k-not-a-number": "report row 1 field 'k' must be a int, not 'two'",
                     "rates-not-numbers": "report row 1 field 'rates' must be a list",
                     "missing-cell": "report row 1 must hold exactly the fields",
                     "empty-file": "header", "wrong-header": "header"}

    @pytest.mark.parametrize("case", MALFORMED_CSV)
    def test_malformed_report_csv_rejected(self, tmp_path, case):
        row = ReportRow(task="toy", method="baseline", k=0, vocab_size=64, prompts=4,
                        output_tokens=48, rounds=48, tau=1.0, rates=[],
                        tokens_per_s=800.0, c_draft=0.0, analytic_speedup=1.0,
                        wall_speedup=1.0)
        path = tmp_path / "report.csv"
        emit_report([row, row], str(tmp_path))
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        text = {"k-not-a-number": [header, first, ",".join(cells[:2] + ["two"] + cells[3:])],
                "rates-not-numbers": [header, first, ",".join(cells[:8] + ["0.5;x"] + cells[9:])],
                "missing-cell": [header, first, ",".join(cells[:-1])],
                "empty-file": [],
                "wrong-header": [header.replace("tau", "speedup"), first]}[case]
        path.write_text("\n".join(text))
        with pytest.raises(ConfigError, match=f"report.csv: .*{self.MALFORMED_CSV[case]}"):
            load_report_csv(path)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], str(tmp_path))
