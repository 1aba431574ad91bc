"""CLI surface: subcommands, report formats, exit codes, reproducibility."""
import argparse
import inspect
import json
import math

import numpy as np
import pytest
from scipy import stats

from gossipq import harness, tournament
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
from gossipq.exact import InvariantViolation, TrialFailure, exact_quantile
from gossipq.tournament import (approx_quantile, clamped_rank, robust_approx_quantile,
                                tournament_plan)


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
        # the draws rest on numpy's Generator methods (tests/test_numpy_streams.py)
        assert summary["numpy"] == np.__version__
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

    @pytest.mark.parametrize("argv", [
        ["approx", "--n", "200", "--phi", "1.5", "--eps", "0.05"],
        ["robust", "--n", "200", "--phi", "-0.5", "--eps", "0.05", "--mu", "0.5"],
        ["robust", "--n", "200", "--phi", "0.5", "--eps", "0.05", "--mu", "0.5",
         "--t-extra", "-1"],
        ["exact", "--n", "64", "--phi", "1.5"],
        ["exact", "--n", "64", "--phi", "-0.5"],
        # 2*floor(2*eps*n) = 0 initial good nodes: no node could turn good
        ["spread", "--n", "2", "--eps", "0.1"],
        ["spread", "--n", "10", "--eps", "0.01"],
        # the least node's estimate 0 misses its quantile 1/n > 2 eps
        ["selfq", "--n", "1", "--eps", "0.1"],
        ["selfq", "--n", "4", "--eps", "0.1"],
    ])
    def test_phi_outside_unit_interval_or_negative_t_extra_exit_2(self, tmp_path, capsys,
                                                                  argv):
        # a clamped phi would run the maximum's or the minimum's trial and
        # could report success for a quantile no one asked for
        path = tmp_path / "rows.csv"
        assert run_cli(argv + ["--threads", "1", "--csv", str(path)]) == 2
        assert not path.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_required_option_exit_2(self):
        assert run_cli(["approx", "--phi", "0.5", "--eps", "0.1"]) == 2

    def test_unreadable_config_exit_2(self):
        assert run_cli(["schedule", "--config", "/nope.json",
                        "--phi", "0.2", "--eps", "0.1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["approx", "--n", "200", "--phi", "0.5", "--eps", "0.1", "--k-sample", "5"],
        ["robust", "--n", "200", "--phi", "0.5", "--eps", "0.1", "--mu", "0.5",
         "--k-sample", "5"],
        ["selfq", "--n", "200", "--eps", "0.1", "--k-sample", "5"],
        *(["exact", "--n", "64", "--phi", "0.5", *flag] for flag in (
            ["--k-sample", "5"], ["--exact-eps", "0.1"], ["--max-iterations", "2"])),
    ])
    def test_protocol_constant_flags_exit_2(self, capsys, argv):
        # K, exact's narrowing eps and its iteration cap are constants
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, argv", [
        # 2 bad nodes pass only when 2 <= 300 / 2**t_extra (exit 1 at t_extra 10)
        ("t_extra", 7, ["robust", "--n", "300", "--phi", "0.3", "--eps", "0.02",
                        "--mu", "0.5", "--seed", "119"]),
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

    @pytest.mark.parametrize("flags, body", [
        (["--trials", "0"], None),
        (["--trials", "-3"], None),
        # an explicit empty list ran seed 1
        (["--seeds"], None),
        ([], {"seeds": []}),
    ])
    def test_empty_seed_list_exit_2(self, tmp_path, capsys, flags, body):
        if body is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(body))
            flags = flags + ["--config", str(cfg)]
        path = tmp_path / "rows.csv"
        rc = run_cli(["approx", "--n", "100", "--phi", "0.5", "--eps", "0.1",
                      *flags, "--threads", "1", "--csv", str(path)])
        assert rc == 2
        assert not path.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["k_sampel", "k_sample", "exact_eps", "max_iterations"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, key):
        # a misspelt or retired key was echoed in the summary and ignored
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 5}))
        rc = run_cli(["approx", "--n", "100", "--phi", "0.5", "--eps", "0.1",
                      "--threads", "1", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config: unknown config key(s): '{key}'\n"
        )

    @pytest.mark.parametrize("body, seeds", [
        ({"trials": 2}, [1, 2]),
        ({"seed": 3}, [3]),
        ({"seeds": [4, 6]}, [4, 6]),
        ({"threads": 1}, [1]),
        ({"csv": "file.csv"}, [1]),
        ({"json_path": "file.json"}, [1]),
    ])
    def test_run_keys_are_known_config_keys(self, tmp_path, monkeypatch, body, seeds):
        # the unknown-key check leaves the run keys and ``seeds`` alone
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(body))
        summary = tmp_path / "s.json"
        rc = run_cli(["approx", "--n", "100", "--phi", "0.5", "--eps", "0.1",
                      "--config", str(cfg)]
                     + ([] if "json_path" in body else ["--json", str(summary)]))
        assert rc == 0
        if "json_path" in body:
            summary = tmp_path / body["json_path"]
        assert json.loads(summary.read_text())["config"]["seeds"] == seeds
        if "csv" in body:
            assert (tmp_path / body["csv"]).read_text().count("\napprox,") == len(seeds)

    def test_other_commands_option_accepted_and_unused(self, tmp_path):
        # one file can serve several commands
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nprime": 64, "k": 8}))
        argv = ["approx", "--n", "100", "--phi", "0.5", "--eps", "0.1", "--threads", "1"]
        with_file, without = tmp_path / "file.csv", tmp_path / "plain.csv"
        assert run_cli(argv + ["--config", str(cfg), "--csv", str(with_file)]) == 0
        assert run_cli(argv + ["--csv", str(without)]) == 0
        assert with_file.read_bytes() == without.read_bytes()


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
        "approx": COMMON | {"--n", "--phi", "--eps"},
        "exact": COMMON | {"--n", "--phi", "--mu"},
        "robust": COMMON | {"--n", "--phi", "--eps", "--mu", "--t-extra"},
        "sketch": COMMON | {"--nprime", "--k"},
        "spread": COMMON | {"--n", "--eps"},
        "selfq": COMMON | {"--n", "--eps"},
        "schedule": {"-h", "--help", "--config", "--phi", "--eps", "--n"},
    }

    def test_option_strings_unchanged(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {o for a in p._actions for o in a.option_strings}
                 for name, p in sub.choices.items()}
        assert found == self.OPTIONS

    @pytest.mark.parametrize("argv, defaults", [
        (["approx", "--n", "200", "--phi", "0.5", "--eps", "0.1"], {}),
        # mu has no CLI default: the runner's own applies
        (["exact", "--n", "64", "--phi", "0.5"], {}),
        (["robust", "--n", "200", "--phi", "0.5", "--eps", "0.1", "--mu", "0.5"],
         {"t_extra": 10}),
        (["sketch", "--nprime", "64", "--k", "8"], {}),
        (["spread", "--n", "200", "--eps", "0.1"], {}),
        (["selfq", "--n", "200", "--eps", "0.1"], {}),
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

    def test_exact_takes_no_settings(self):
        # K, the narrowing eps and the iteration cap are module constants;
        # the one keyword left is the diagnostics hook
        keywords = {name for name, p in inspect.signature(exact_quantile).parameters.items()
                    if p.kind is p.KEYWORD_ONLY}
        assert keywords == {"iteration_callback"}
        exp = harness.EXPERIMENTS["exact"]
        assert set(inspect.signature(exp.runner).parameters) == {"n", "phi", "seed", "mu"}
        assert exp.optional == {"mu": None}
        for front_end in (approx_quantile, robust_approx_quantile, self_quantile):
            assert "k_sample" not in inspect.signature(front_end).parameters


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

    @pytest.mark.parametrize("n, eps, k_sample", [(1000, 0.1, 30), (1000, 0.1, 10), (700, 0.05, 30)])
    def test_rounds_and_messages_are_the_grid_plans(self, monkeypatch, n, eps, k_sample):
        # the engine's ledger: one tournament plan per grid point, and
        # without failures every node sends one message a round
        monkeypatch.setattr(tournament, "K_SAMPLE", k_sample)
        _, _, rounds, messages = self_quantile(eps, SimConfig(n=n, seed=1))
        assert rounds == sum(
            tournament_plan(clamped_rank(j * eps * n, n), eps / 2, n, k_sample, 0).rounds
            for j in range(1, math.ceil(1 / eps))
        )
        assert messages == n * rounds

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_trial_its_oracle_must_fail_raises_before_any_round(self, monkeypatch, n):
        # the least node estimates 0 against its quantile 1/n > 2 eps
        monkeypatch.setattr(harness, "_make_state", None)  # no engine, so no round
        with pytest.raises(ValueError, match="selfq needs 1/n <= 2 eps"):
            run_trial("selfq", n=n, eps=0.1, seed=1)

    def test_trial_at_the_oracle_bound_runs(self):
        # 1/n = 2 eps exactly: the least node's error meets the gate
        row = run_trial("selfq", n=5, eps=0.1, seed=1)
        assert row["rounds"] > 0

    def test_lone_node_runs_no_tournament(self):
        # one node answers every grid point with its own key, never below it
        est, ids, rounds, messages = self_quantile(0.1, SimConfig(n=1, seed=1))
        assert list(est) == [0.0] and list(ids) == [0] and rounds == messages == 0

    def test_max_rounds_bounds_the_whole_grid(self):
        # 577 rounds over nine tournaments of about 64 each
        self_quantile(0.1, SimConfig(n=1000, seed=1, max_rounds=577))
        with pytest.raises(BudgetExceededError):
            self_quantile(0.1, SimConfig(n=1000, seed=1, max_rounds=576))

    def test_missing_grid_answer_counts_neither_way(self, monkeypatch):
        # the first grid tournament leaves the holders of the least and the
        # greatest key without an answer, their outputs set to -1, below
        # every key: the least holder still estimates 0, the greatest loses
        # exactly that grid point, and every other node keeps its estimate
        config = SimConfig(n=500, seed=3)
        est, ids, rounds, messages = self_quantile(0.1, config)
        least, greatest = int(np.argmin(ids)), int(np.argmax(ids))
        real, calls = harness._tournament_core, []

        def dropping(*args, **kwargs):
            outputs, has_output, info = real(*args, **kwargs)
            if not calls:
                lost = np.isin(np.arange(len(ids)), [least, greatest])
                outputs, has_output = np.where(lost, -1, outputs), has_output & ~lost
            calls.append(1)
            return outputs, has_output, info

        monkeypatch.setattr(harness, "_tournament_core", dropping)
        got, _, got_rounds, got_messages = self_quantile(0.1, config)
        assert len(calls) == 9 and (got_rounds, got_messages) == (rounds, messages)
        assert est[least] == got[least] == 0.0
        assert est[greatest] == pytest.approx(0.9) and got[greatest] == pytest.approx(0.8)
        kept = np.ones(len(ids), dtype=bool)
        kept[[least, greatest]] = False
        assert np.array_equal(got[kept], est[kept])


class TestSpreadExperiment:
    def test_all_good_start_returns_zero(self):
        # eps large enough that the initial good set covers everyone
        assert spread_experiment(16, 0.124, seed=1) >= 0

    @pytest.mark.parametrize("n, eps", [(2, 0.1), (10, 0.01), (24, 0.02)])
    def test_empty_initial_good_set_raises_before_any_round(self, monkeypatch, n, eps):
        # with no good node the run could only end at the round budget
        monkeypatch.setattr(harness, "RoundEngine", None)
        with pytest.raises(ValueError, match="initial good set"):
            spread_experiment(n, eps, seed=1)

    def test_smallest_nonempty_good_set_spreads(self):
        # 2*floor(2*0.02*25) = 2 good nodes at the start
        assert spread_experiment(25, 0.02, seed=1) > 0

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
    def test_thread_count_does_not_change_rows(self):
        from gossipq.harness import run_batch
        tasks = [dict(n=256, phi=0.5, seed=s) for s in range(4)]
        serial = run_batch("exact", tasks, threads=1)
        parallel = run_batch("exact", tasks, threads=2)
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
