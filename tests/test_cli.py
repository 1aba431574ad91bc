"""CLI surface: subcommands, report formats, exit codes, reproducibility."""
import argparse
import dataclasses
import json

import numpy as np
import pytest
from scipy import stats

from gossipq import harness
from gossipq.cli import build_parser, run_cli
from gossipq.harness import (
    fit_round_constant,
    rank_window,
    rows_to_csv,
    run_trial,
    self_quantile,
    spread_experiment,
)
from gossipq.engine import BudgetExceededError, RoundEngine, SimConfig
from gossipq.exact import ExactParams, InvariantViolation, TrialFailure


class TestScheduleCommand:
    def test_worked_schedule_printed(self, capsys):
        assert run_cli(["schedule", "--phi", "0.25", "--eps", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "h=[0.625, 0.390625, 0.152587890625]" in out
        assert "t=2" in out

    def test_bad_parameters_exit_2(self):
        assert run_cli(["schedule", "--phi", "0.25", "--eps", "0.9"]) == 2


class TestReports:
    def test_csv_shape_and_success_column(self, tmp_path):
        csv = tmp_path / "a.csv"
        rc = run_cli([
            "approx", "--n", "2000", "--phi", "0.5", "--eps", "0.1",
            "--trials", "3", "--seed", "5", "--csv", str(csv),
            "--threads", "1",
        ])
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == (
            "experiment,n,phi,eps,mu,seed,rounds,messages,max_rank_error,success"
        )
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[-1] in ("0", "1")

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "exact", "--n", "256", "--phi", "0.5", "--trials", "2",
            "--seed", "9", "--threads", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--csv", str(a)]) == 0
        assert run_cli(args + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_summary_round_trips(self, tmp_path):
        jpath = tmp_path / "s.json"
        rc = run_cli([
            "spread", "--n", "20000", "--eps", "0.01", "--trials", "2",
            "--seed", "3", "--json", str(jpath), "--threads", "1",
        ])
        assert rc == 0
        summary = json.loads(jpath.read_text())
        assert summary["experiments"]["spread"]["trials"] == 2
        # re-serialise and re-parse: golden stability
        again = json.loads(json.dumps(summary, sort_keys=True))
        assert again == summary

    def test_single_trial_single_row(self, tmp_path):
        csv = tmp_path / "one.csv"
        run_cli(["sketch", "--nprime", "256", "--k", "32", "--trials", "1",
                 "--seed", "1", "--csv", str(csv), "--threads", "1"])
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_unwritable_path_exit_2(self):
        rc = run_cli([
            "sketch", "--nprime", "256", "--k", "32", "--trials", "1",
            "--seed", "1", "--csv", "/nonexistent-dir/x.csv", "--threads", "1",
        ])
        assert rc == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi": 0.5, "eps": 0.125}))
        rc = run_cli(["schedule", "--config", str(cfg), "--phi", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "h=[0.625," in out  # phi flag won; eps came from the file

    @pytest.mark.parametrize("argv", [
        ["robust", "--n", "200", "--phi", "0.5", "--eps", "0.1"],
        ["exact", "--n", "64", "--phi", "0.5"],
    ])
    @pytest.mark.parametrize("mu", ["-0.5", "1.5"])
    def test_mu_outside_its_range_exit_2(self, tmp_path, argv, mu):
        path = tmp_path / "rows.csv"
        assert run_cli(argv + ["--mu", mu, "--csv", str(path)]) == 2
        assert not path.exists()

    def test_missing_required_option_exit_2(self):
        assert run_cli(["approx", "--phi", "0.5", "--eps", "0.1"]) == 2

    def test_unreadable_config_exit_2(self):
        assert run_cli(["schedule", "--config", "/nope.json",
                        "--phi", "0.2", "--eps", "0.1"]) == 2

    @pytest.mark.parametrize("key, value, argv", [
        ("k_sample", 5, ["approx", "--n", "2000", "--phi", "0.3", "--eps", "0.05"]),
        # 2 bad nodes pass only when 2 <= 300 / 2**t_extra (exit 1 at t_extra 10)
        ("t_extra", 7, ["robust", "--n", "300", "--phi", "0.3", "--eps", "0.02",
                        "--mu", "0.5", "--seed", "119"]),
        ("max_iterations", 2, ["exact", "--n", "256", "--phi", "0.5", "--seed", "2"]),
    ])
    def test_file_value_beats_default(self, tmp_path, key, value, argv):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        argv = argv + ["--trials", "1", "--threads", "1"]
        flag = "--" + key.replace("_", "-")
        assert run_cli(argv + [flag, str(value), "--csv", str(by_flag)]) == 0
        assert run_cli(argv + ["--config", str(cfg), "--csv", str(by_file)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()
        # the case tests nothing unless the default gives another row
        by_default = tmp_path / "default.csv"
        run_cli(argv + ["--csv", str(by_default)])
        assert by_default.read_bytes() != by_flag.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_seed_list_exit_2(self, capsys, trials):
        rc = run_cli(["approx", "--n", "100", "--phi", "0.5", "--eps", "0.1",
                      "--trials", trials, "--threads", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


    SKETCH = ["sketch", "--nprime", "64", "--k", "8"]

    @pytest.mark.parametrize("text", ["[1]", '"{"', "3", "null"])
    def test_non_object_config_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        rc = run_cli(self.SKETCH + ["--trials", "1", "--threads", "1",
                                    "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: ")

    @pytest.mark.parametrize("body", [
        {"threads": "two"}, {"threads": True}, {"seed": 1.5}, {"trials": [2]},
        {"seeds": 3}, {"seeds": [1, "x"]}, {"seeds": [1, 2.5]}, {"nprime": {}},
        {"k": "eight"}, {"mu": False}, {"json_path": ["out.json"]},
    ])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(body))
        rc = run_cli(self.SKETCH + ["--trials", "1", "--threads", "1",
                                    "--config", str(cfg)])
        assert rc == 2
        key = next(iter(body))
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config: config key '{key}' needs "
        )

    def test_file_values_typed_like_flags(self, tmp_path):
        # numeric strings and integral floats parse as their flags would;
        # "threads" used to reach run_batch as a string
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "nprime": "64", "k": 8.0, "seed": "4", "trials": 2.0,
            "threads": "1", "mu": None,
        }))
        outs = []
        for name, argv in (
            ("flag", self.SKETCH + ["--seed", "4", "--trials", "2", "--threads", "1"]),
            ("file", ["sketch", "--config", str(cfg)]),
        ):
            csv, js = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run_cli(argv + ["--csv", str(csv), "--json", str(js)]) == 0
            outs.append((csv.read_bytes(), js.read_bytes()))
        assert outs[0] == outs[1]


class TestCommandTable:
    COMMON = {"-h", "--help", "--config", "--trials", "--seed", "--seeds",
              "--csv", "--json", "--threads"}
    OPTIONS = {
        "approx": COMMON | {"--n", "--phi", "--eps", "--k-sample"},
        "exact": COMMON | {"--n", "--phi", "--mu", "--exact-eps", "--k-sample",
                           "--max-iterations"},
        "robust": COMMON | {"--n", "--phi", "--eps", "--mu", "--t-extra",
                            "--k-sample"},
        "sketch": COMMON | {"--nprime", "--k"},
        "spread": COMMON | {"--n", "--eps"},
        "selfq": COMMON | {"--n", "--eps", "--k-sample"},
        "schedule": {"-h", "--help", "--config", "--phi", "--eps", "--n"},
    }

    def test_option_strings_unchanged(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {o for a in p._actions for o in a.option_strings}
                 for name, p in sub.choices.items()}
        assert found == self.OPTIONS

    @pytest.mark.parametrize("argv, defaults", [
        (["approx", "--n", "200", "--phi", "0.5", "--eps", "0.1"],
         {"k_sample": 30}),
        # mu and exact_eps have no CLI default: the runner's own applies
        (["exact", "--n", "64", "--phi", "0.5"],
         {"k_sample": 30, "max_iterations": 25}),
        (["robust", "--n", "200", "--phi", "0.5", "--eps", "0.1", "--mu", "0.5"],
         {"k_sample": 30, "t_extra": 10}),
        (["sketch", "--nprime", "64", "--k", "8"], {}),
        (["spread", "--n", "200", "--eps", "0.1"], {}),
        (["selfq", "--n", "200", "--eps", "0.1"], {"k_sample": 30}),
    ])
    def test_defaults_in_config_echo(self, tmp_path, argv, defaults):
        path = tmp_path / "s.json"
        run_cli(argv + ["--threads", "1", "--json", str(path)])
        flags = dict(zip(argv[1::2], argv[2::2]))
        given = {k[2:]: json.loads(v) for k, v in flags.items()}
        assert json.loads(path.read_text())["config"] == {
            "command": argv[0], "seeds": [1], "threads": 1, **given, **defaults,
        }

    def test_every_experiment_has_golden_case(self):
        from test_golden_rows import GOLDEN

        assert set(harness.EXPERIMENTS) <= {argv[0] for argv, _ in GOLDEN}

    def test_every_exact_param_reachable_from_cli(self):
        # a field no option sets is a setting nothing runs
        exp = harness.EXPERIMENTS["exact"]
        reachable = {exp.renamed.get(name, name) for name in exp.exact_params}
        assert {f.name for f in dataclasses.fields(ExactParams)} == reachable


class TestSelfQuantile:
    def test_minimum_holder_estimates_zero(self):
        values = np.arange(100, dtype=float)
        est, ids, _, _ = self_quantile(0.1, SimConfig(n=100, seed=4), values=values)
        assert est[0] == 0.0

    def test_estimates_within_two_eps(self):
        row = run_trial("selfq", n=2000, eps=0.1, seed=7)
        assert row["success"] == 1

    def test_full_scale_success_rate(self):
        # n=1e4, eps=0.1, 20 seeds: worst node within 2 eps in >= 19
        hits = sum(run_trial("selfq", n=10_000, eps=0.1, seed=seed)["success"]
                   for seed in range(20))
        assert hits >= 19

    def test_round_cost_scales_with_grid(self):
        row = run_trial("selfq", n=1000, eps=0.1, seed=3)
        # nine grid quantiles, each a full approximate run
        assert row["rounds"] >= 9 * 30


class TestSpreadExperiment:
    def test_all_good_start_returns_zero(self):
        # eps large enough that the initial good set covers everyone
        assert spread_experiment(16, 0.124, seed=1) >= 0

    def test_rounds_exceed_lower_threshold(self):
        import math
        r = spread_experiment(100_000, 0.01, seed=5)
        assert r >= math.ceil(math.log(8 / 0.01, 4))

    def test_monotone_in_accuracy(self):
        # rounds grow as eps shrinks (medians over seeds)
        import statistics
        meds = []
        for eps in (0.08, 0.04, 0.02, 0.01):
            meds.append(statistics.median(
                spread_experiment(50_000, eps, seed=s) for s in range(7)
            ))
        assert meds == sorted(meds)

    def test_success_row(self):
        row = run_trial("spread", n=50_000, eps=0.01, seed=2)
        assert row["success"] == 1

    def test_same_law_as_every_contact_drawn(self, monkeypatch):
        # the body that drew a pull and a push contact for every node each
        # iteration, in place of only the contacts that can change a node
        def every_contact(n, eps, seed):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            good = np.zeros(n, dtype=bool)
            initial = 2 * int(2 * eps * n)
            good[engine.values_rng().choice(n, size=initial, replace=False)] = True
            iterations = 0
            while not good.all():
                pulled = engine.next_round().pull(good)
                pushed = np.zeros(n, dtype=bool)
                pushed[engine.next_round().peers()[good]] = True
                good = good | pulled | pushed
                iterations += 1
            return iterations

        engines = []

        class Recording(RoundEngine):
            def __init__(self, config):
                super().__init__(config)
                engines.append(self)

        monkeypatch.setattr(harness, "RoundEngine", Recording)
        n, eps = 3000, 0.01
        new, ref = [], []
        for seed in range(300):
            new.append(spread_experiment(n, eps, seed))
            # two rounds of n messages per iteration
            assert (engines[-1].rounds, engines[-1].messages) == (2 * new[-1], 2 * n * new[-1])
            ref.append(every_contact(n, eps, seed))
        values = sorted(set(new) | set(ref))
        table = [[new.count(v) for v in values], [ref.count(v) for v in values]]
        assert stats.chi2_contingency(table).pvalue > 0.01


class TestParallelism:
    def test_thread_count_does_not_change_rows(self, tmp_path, monkeypatch):
        from gossipq.harness import run_batch
        tasks = [dict(n=256, phi=0.5, seed=s) for s in range(4)]
        serial = run_batch("exact", tasks, threads=1)
        monkeypatch.setenv("GOSSIPQ_THREADS", "2")
        parallel = run_batch("exact", tasks)
        assert serial == parallel


class TestFailedExactRows:
    @pytest.mark.parametrize(
        "error", [TrialFailure, BudgetExceededError, InvariantViolation]
    )
    def test_raising_trial_becomes_failed_row(self, monkeypatch, error):
        def boom(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(harness, "exact_quantile", boom)
        rows = harness.run_batch(
            "exact", [dict(n=64, phi=0.5, seed=s) for s in range(2)], threads=1,
        )
        assert [r["seed"] for r in rows] == [0, 1]
        for row in rows:
            assert row["success"] == 0
            assert row["max_rank_error"] == 64
            assert (row["rounds"], row["messages"]) == (0, 0)
        # the kind reaches the JSON summary; the CSV keeps its columns
        assert rows_to_csv(rows) == (
            ",".join(harness.CSV_COLUMNS) + "\n"
            "exact,64,0.5,0.08,0.0,0,0,0,64,0\n"
            "exact,64,0.5,0.08,0.0,1,0,0,64,0\n"
        )
        exact = harness.summarize(rows, {})["experiments"]["exact"]
        assert exact["failures_by_kind"] == {error.__name__: 2}

    def test_summary_counts_each_kind(self, monkeypatch):
        kinds = [TrialFailure, BudgetExceededError, InvariantViolation]
        real = harness.exact_quantile

        def by_seed(phi, config, **kwargs):
            if config.seed < len(kinds):
                raise kinds[config.seed]("injected")
            return real(phi, config, **kwargs)

        monkeypatch.setattr(harness, "exact_quantile", by_seed)
        rows = [run_trial("exact", n=64, phi=0.5, seed=s) for s in range(4)]
        rows.append(run_trial("approx", n=200, phi=0.5, eps=0.1, seed=1))
        experiments = harness.summarize(rows, {})["experiments"]
        assert experiments["exact"]["failures_by_kind"] == {
            "BudgetExceededError": 1, "InvariantViolation": 1, "TrialFailure": 1,
        }
        assert experiments["exact"]["successes"] == 1
        assert experiments["approx"]["failures_by_kind"] == {}


class TestHarnessHelpers:
    def test_rank_window_inclusive_integer_bounds(self):
        lo, hi = rank_window(100, 0.5, 0.05)
        assert (lo, hi) == (45, 55)
        lo, hi = rank_window(10, 0.0, 0.05)
        assert lo == 1

    def test_fit_round_constant(self):
        rows = [
            {"experiment": "approx", "n": 2 ** 16, "eps": 0.5, "rounds": 10},
            {"experiment": "approx", "n": 2 ** 16, "eps": 0.25, "rounds": 12},
        ]
        c = fit_round_constant(rows)
        assert c is not None and c > 0

    def test_csv_float_formatting_stable(self):
        rows = [{
            "experiment": "approx", "n": 10, "phi": 0.5, "eps": 0.05,
            "mu": 0.0, "seed": 1, "rounds": 4, "messages": 40,
            "max_rank_error": 0, "success": 1,
        }]
        text = rows_to_csv(rows)
        assert "approx,10,0.5,0.05,0.0,1,4,40,0,1" in text
