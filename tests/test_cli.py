"""End-to-end command-line checks, run in process through cli.main."""

import argparse
import csv
import dataclasses
import inspect
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from sigver import cli
from sigver.dataset import ProtocolConfig
from sigver.dtw import DtwConfig
from sigver.features import extract_features
from sigver.siamese import ModelConfig, TrainConfig, TrainingDiverged
from sigver.synth import SynthConfig


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    # 5 users, short signatures: 3 development + 2 evaluation users downstream
    root = tmp_path_factory.mktemp("clidata") / "corpus"
    assert run("generate", "--users", 5, "--max-duration", 1.8,
               "--out", root) == 0
    return root


@pytest.fixture(scope="session")
def model_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("clitrain")
    assert run("train", "--data", corpus, "--iterations", 2, "--out", out) == 0
    return out


@pytest.fixture(scope="session")
def eval_dir(corpus, model_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("clieval")
    assert run("evaluate", "--data", corpus, "--model", model_dir / "model.npz",
               "--baseline", "--columns", "1,2,5", "--out", out) == 0
    return out


class TestGenerate:
    def test_reports_counts_and_writes_config(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("generate", "--users", 2, "--max-duration", 1.6,
                   "--out", out) == 0
        text = capsys.readouterr().out
        assert f"generated 2 users, 56 signature files under {out}" in text
        assert (out / "synth.cfg").is_file()
        assert (out / "u000").is_dir() and (out / "u001").is_dir()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--users", 2, "--max-duration", 1.6,
                       "--out", out) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_config_file_regenerates_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--users", 2, "--max-duration", 1.6,
                   "--noise", 0.7, "--seed", 5, "--out", a) == 0
        assert run("generate", "--config", a / "synth.cfg", "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_rejects_zero_users(self, tmp_path, capsys):
        assert run("generate", "--users", 0, "--out", tmp_path / "c") == 2
        assert "usage error" in capsys.readouterr().err


class TestConfigFile:
    def test_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 2\nmax-duration = 1.6  # keep it quick\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "c") == 0
        assert "generated 2 users" in capsys.readouterr().out

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# a small corpus\n\nusers = 2\n   \n  # quick\nmax_duration = 1.6\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "c") == 0
        assert "generated 2 users" in capsys.readouterr().out

    def test_without_subcommand_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 2\n")
        assert run("--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "usage error: a subcommand is required before a --config file applies "
            "(choose from generate, extract, train, evaluate, report)\n")
        assert "Traceback" not in err

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 2\nmax_duration = 1.6\n")
        assert run("generate", "--config", cfg, "--users", 3,
                   "--out", tmp_path / "c") == 0
        assert "generated 3 users" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        for key in ("wobble", "threads"):
            cfg.write_text(f"{key} = 2\n")
            assert run("generate", "--config", cfg,
                       "--out", tmp_path / "c") == 2
            assert f"unknown option {key!r}" in capsys.readouterr().err

    def test_flag_words_in_any_case(self, tmp_path):
        cfg = tmp_path / "ext.cfg"
        for word, expected in (("ON", True), ("Yes", True), ("0", False), ("False", False)):
            cfg.write_text(f"raw = {word}\n")
            argv = ["extract", "--config", str(cfg), "--data", "d", "--out", "o"]
            parser = cli.build_parser()
            cli._apply_config_file(parser, argv)
            assert parser.parse_args(argv).raw is expected

    def test_bad_line(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 2\njust words\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "c") == 2
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


def test_option_surface_is_pinned():
    """Every option of every subcommand; adding one means editing this."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: {a.dest for a in p._actions} - {"help"}
               for name, p in sub.choices.items()}
    assert surface == {
        "generate": {"config", "seed", "users", "sessions", "genuine_per_session",
                     "forgeries", "noise", "jitter", "min_duration", "max_duration",
                     "out"},
        "extract": {"config", "data", "manifest", "raw", "out"},
        "train": {"config", "seed", "data", "manifest", "dev_users", "iterations",
                  "batch_size", "learning_rate", "branch_hidden", "merge_hidden",
                  "time_stride", "optimizer", "patience", "clip_norm",
                  "stop_below_cost", "dev_eval", "out"},
        "evaluate": {"config", "data", "manifest", "dev_users", "model", "baseline",
                     "sffs", "sffs_k", "sffs_pairs", "columns", "band", "det_points",
                     "out"},
        "report": {"config", "results", "out"},
    }


def test_library_settable_values_are_pinned():
    """Every field of the library's configs and every parameter of
    extract_features; adding a knob to the library means editing this."""
    configs = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
               for cls in (SynthConfig, ModelConfig, TrainConfig, DtwConfig, ProtocolConfig)}
    assert configs == {
        "SynthConfig": ["n_users", "n_sessions", "genuine_per_session",
                        "forgeries_per_user", "seed", "session_jitter", "forgery_noise",
                        "min_duration", "max_duration"],
        "ModelConfig": ["n_features", "branch_hidden", "merge_hidden", "symmetric",
                        "concat", "readout", "time_stride"],
        "TrainConfig": ["learning_rate", "batch_size", "max_iterations", "patience",
                        "clip_norm", "seed", "optimizer", "stop_below_cost"],
        "DtwConfig": ["selected_columns", "band"],
        "ProtocolConfig": ["enrollment_per_user", "test_genuine_per_user",
                           "forgeries_per_user"],
    }
    assert list(inspect.signature(extract_features).parameters) == ["record", "normalize"]


def assert_option_is_unknown(argv, flag, key, value, tmp_path, capsys):
    """``flag`` (a token list) after ``argv`` is an argparse usage error,
    and so is a ``key = value`` line in a --config file."""
    with pytest.raises(SystemExit) as exc:
        run(*argv, *flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err
    cfg = tmp_path / "option.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run(argv[0], "--config", cfg, *argv[1:]) == 2
    assert capsys.readouterr().err == f"usage error: {cfg}: unknown option {key!r}\n"


@pytest.mark.parametrize("option", ["time_scaled", "drop_pen_up"])
def test_removed_extract_options_are_usage_errors(option, tmp_path, capsys):
    assert_option_is_unknown(["extract", "--data", "d", "--out", "o"],
                             ["--" + option.replace("_", "-")], option, 1, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["extract", "--data", "d", "--out", "o"],
    ["evaluate", "--data", "d", "--baseline", "--out", "o"],
    ["report", "results.csv"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_nothing_is_random(argv, tmp_path, capsys):
    assert_option_is_unknown(argv, ["--seed", "5"], "seed", 5, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "o"],
    ["train", "--data", "d", "--out", "o"],
], ids=lambda argv: argv[0])
def test_generate_and_train_take_seed(argv, tmp_path):
    parser = cli.build_parser()
    assert parser.parse_args([*argv, "--seed", "5"]).seed == 5
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 6\n")
    argv = [argv[0], "--config", str(cfg), *argv[1:]]
    cli._apply_config_file(parser, argv)
    assert parser.parse_args(argv).seed == 6


class TestExtract:
    def test_writes_per_record_csvs(self, corpus, tmp_path, capsys):
        out = tmp_path / "feats"
        assert run("extract", "--data", corpus, "--out", out) == 0
        assert "wrote 140 feature files" in capsys.readouterr().out
        sample = out / "u000" / "genuine_1_00.csv"
        assert sample.is_file()
        header = sample.read_text().splitlines()[0]
        assert header.startswith("1:x,2:y,3:p")
        assert (out / "u004" / "forgery_4_02.csv").is_file()
        assert sum(1 for _ in out.rglob("*.csv")) == 140


class TestTrain:
    def test_writes_model_and_log(self, corpus, model_dir, capsys):
        # model_dir fixture already ran the command; check its artifacts
        assert (model_dir / "model.npz").is_file()
        rows = list(csv.DictReader((model_dir / "training_log.csv").read_text().splitlines()))
        assert len(rows) == 2
        assert rows[0]["iteration"] == "1"
        assert float(rows[1]["cost"]) > 0
        assert rows[0]["dev_eer_1vs1"] == ""  # --dev-eval was off

    def test_stdout_summary(self, corpus, tmp_path, capsys):
        assert run("train", "--data", corpus, "--iterations", 1,
                   "--out", tmp_path) == 0
        captured = capsys.readouterr()
        text = captured.out
        assert re.search(r"^iteration 1: \d+\.\d\d s elapsed$", captured.err, re.M)
        assert "development users: 3, pairs: 288" in text
        assert "trained 1 iterations, final cost" in text
        assert "dev EER 1vs1:" in text and "dev EER 4vs1:" in text
        assert f"model written to {tmp_path / 'model.npz'}" in text

    def test_zero_iterations_saves_initialization(self, corpus, tmp_path,
                                                  capsys):
        assert run("train", "--data", corpus, "--iterations", 0,
                   "--out", tmp_path) == 0
        assert "trained 0 iterations, saved the initialization" \
            in capsys.readouterr().out
        log = (tmp_path / "training_log.csv").read_text().splitlines()
        assert log == ["iteration,cost,dev_eer_1vs1,dev_eer_4vs1"]
        assert (tmp_path / "model.npz").is_file()

    def test_rerun_same_seed_byte_identical(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("train", "--data", corpus, "--iterations", 2,
                       "--out", out) == 0
        for name in ("model.npz", "training_log.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dev_eval_fills_log_columns(self, corpus, tmp_path):
        assert run("train", "--data", corpus, "--iterations", 2, "--dev-eval",
                   "--out", tmp_path) == 0
        rows = list(csv.DictReader((tmp_path / "training_log.csv").read_text().splitlines()))
        for row in rows:
            assert 0.0 <= float(row["dev_eer_1vs1"]) <= 100.0
            assert 0.0 <= float(row["dev_eer_4vs1"]) <= 100.0

    def test_needs_two_development_users(self, corpus, tmp_path, capsys):
        assert run("train", "--data", corpus, "--dev-users", 1,
                   "--out", tmp_path) == 2
        assert "at least 2 development users" in capsys.readouterr().err

    def test_missing_data_root(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "nowhere",
                   "--out", tmp_path / "m") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_diverged_training_is_a_runtime_error(self, corpus, tmp_path,
                                                  capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDiverged("training cost became nan at iteration 3")

        monkeypatch.setattr(cli, "train", diverge)
        assert run("train", "--data", corpus, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == "error: training cost became nan at iteration 3\n"


class TestEvaluate:
    def test_echoes_protocol_counts(self, corpus, model_dir, tmp_path, capsys):
        assert run("evaluate", "--data", corpus,
                   "--model", model_dir / "model.npz",
                   "--out", tmp_path) == 0
        text = capsys.readouterr().out
        assert "evaluation users: 2" in text
        assert "1vs1 genuine scores: 96, impostor scores: 96" in text
        assert "4vs1 genuine scores: 24, impostor scores: 24" in text
        assert "proposed 1vs1 EER:" in text
        assert "proposed 4vs1 EER:" in text

    def test_results_and_det_files(self, eval_dir):
        rows = list(csv.DictReader((eval_dir / "results.csv").read_text().splitlines()))
        assert [(r["system"], r["protocol"]) for r in rows] == [
            ("proposed", "1vs1"), ("proposed", "4vs1"),
            ("baseline", "1vs1"), ("baseline", "4vs1"),
        ]
        for row in rows:
            assert 0.0 <= float(row["eer_percent"]) <= 100.0
            assert row["n_genuine"] in ("96", "24")
        det = list(csv.DictReader((eval_dir / "det.csv").read_text().splitlines()))
        assert {r["system"] for r in det} == {"proposed", "baseline"}
        assert all(0.0 <= float(r["far"]) <= 1.0 for r in det)

    def test_rerun_byte_identical(self, corpus, model_dir, eval_dir, tmp_path):
        assert run("evaluate", "--data", corpus,
                   "--model", model_dir / "model.npz",
                   "--baseline", "--columns", "1,2,5",
                   "--out", tmp_path) == 0
        for name in ("results.csv", "det.csv"):
            assert (tmp_path / name).read_bytes() \
                == (eval_dir / name).read_bytes()

    def test_requires_a_system(self, corpus, tmp_path, capsys):
        assert run("evaluate", "--data", corpus, "--out", tmp_path) == 2
        assert "needs --model and/or --baseline" in capsys.readouterr().err

    def test_sffs_requires_baseline(self, corpus, model_dir, tmp_path, capsys):
        assert run("evaluate", "--data", corpus,
                   "--model", model_dir / "model.npz", "--sffs",
                   "--out", tmp_path) == 2
        assert "--sffs applies to the --baseline scorer" \
            in capsys.readouterr().err

    def test_threads_option_is_gone(self, corpus, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--data", corpus, "--baseline",
                "--out", tmp_path, "--threads", 2)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err
        assert "Traceback" not in err

    def test_sffs_writes_report(self, corpus, tmp_path, capsys):
        assert run("evaluate", "--data", corpus, "--baseline", "--sffs",
                   "--sffs-k", 1, "--sffs-pairs", 24,
                   "--out", tmp_path) == 0
        assert "selected columns:" in capsys.readouterr().out
        report = (tmp_path / "sffs_report.txt").read_text()
        assert report.startswith("step\taction\tcolumn")
        assert "selected\t" in report

    def test_missing_model_file(self, corpus, tmp_path, capsys):
        assert run("evaluate", "--data", corpus,
                   "--model", tmp_path / "no.npz", "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestReport:
    def test_prints_table(self, eval_dir, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run("report", eval_dir / "results.csv", "--out", out) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0].split() == ["system", "protocol", "eer_percent",
                                    "reference_eer_percent"]
        assert sum(1 for ln in lines if ln.startswith("baseline")) == 2
        assert sum(1 for ln in lines if ln.startswith("proposed")) == 2
        assert out.read_text().splitlines()[0] == lines[0]

    def test_empty_results(self, tmp_path, capsys):
        empty = tmp_path / "results.csv"
        empty.write_text("system,protocol,eer_percent\n")
        assert run("report", empty) == 2
        assert "no result rows found" in capsys.readouterr().err


# --- each bad input ends in one line on stderr and exit 1 or 2 ---


def results_without_system(tmp, corpus):
    path = tmp / "results.csv"
    path.write_text("a,b\n1,2\n")
    return ["report", path], 1, f"error: {path}: no 'system' column"


def config_bad_columns(tmp, corpus):
    cfg = tmp / "eval.cfg"
    cfg.write_text("columns = x\n")
    argv = ["evaluate", "--config", cfg, "--data", corpus, "--baseline", "--out", tmp]
    return argv, 2, f"usage error: {cfg}: bad value for columns: bad column list 'x'"


def config_bad_users(tmp, corpus):
    cfg = tmp / "gen.cfg"
    cfg.write_text("users = abc\n")
    return (["generate", "--config", cfg, "--out", tmp / "c"], 2,
            f"usage error: {cfg}: bad value for users: invalid literal for int()")


def config_misspelt_flag(tmp, corpus):
    cfg = tmp / "ext.cfg"
    cfg.write_text("raw = ture\n")
    return (["extract", "--config", cfg, "--data", corpus, "--out", tmp / "f"], 2,
            f"usage error: {cfg}: bad value for raw: expected 1/true/yes/on or "
            "0/false/no/off, got 'ture'")


def config_bad_choice(tmp, corpus):
    cfg = tmp / "train.cfg"
    cfg.write_text("optimizer = foo\n")
    return (["train", "--config", cfg, "--data", corpus, "--out", tmp / "m"], 2,
            f"usage error: {cfg}: bad value for optimizer: invalid choice 'foo'")


def corpus_bad_session(tmp, corpus):
    (tmp / "data" / "u0").mkdir(parents=True)
    (tmp / "data" / "u0" / "genuine_x_00.svc").write_text("2\n0 0 0 1\n1 1 10 1\n")
    return (["train", "--data", tmp / "data", "--out", tmp / "m"], 1,
            "error: file name 'genuine_x_00.svc' does not match")


def corpus_bad_token(tmp, corpus):
    svc = tmp / "data" / "u0" / "genuine_1_00.svc"
    svc.parent.mkdir(parents=True)
    svc.write_text("4\n0 0 0 1\n1 1 10 1\n2 2 20 1\nx 3 30 1\n")
    return (["train", "--data", tmp / "data", "--out", tmp / "m"], 1,
            f"error: {svc}: line 5: non-numeric token 'x'")


def corpus_int64_overflow(tmp, corpus):
    svc = tmp / "data" / "u0" / "genuine_1_00.svc"
    svc.parent.mkdir(parents=True)
    svc.write_text("2\n0 0 0 1\n99999999999999999999 1 10 1\n")
    return (["evaluate", "--data", tmp / "data", "--baseline", "--out", tmp / "r"], 1,
            f"error: {svc}: line 3: token '99999999999999999999' outside the 64-bit "
            "integer range")


def corpus_non_ascii_session(tmp, corpus):
    (tmp / "data" / "u0").mkdir(parents=True)
    (tmp / "data" / "u0" / "genuine_\u0663_00.svc").write_text("2\n0 0 0 1\n1 1 10 1\n")
    return (["train", "--data", tmp / "data", "--out", tmp / "m"], 1,
            "error: file name 'genuine_\u0663_00.svc' does not match")


def manifest_non_ascii_session(tmp, corpus):
    manifest = tmp / "index.tsv"
    svc = corpus / "u000" / "genuine_1_00.svc"
    manifest.write_text(f"{svc}\tu000\tgenuine\t\u0663\t0\n")
    return (["train", "--data", tmp, "--manifest", manifest, "--out", tmp / "m"], 1,
            f"error: {manifest}:1: session and index must be integers")


def manifest_bad_session(tmp, corpus):
    manifest = tmp / "index.tsv"
    svc = corpus / "u000" / "genuine_1_00.svc"
    manifest.write_text(f"{svc}\tu000\tgenuine\tone\t0\n")
    return (["train", "--data", tmp, "--manifest", manifest, "--out", tmp / "m"], 1,
            f"error: {manifest}:1: session and index must be integers")


def corpus_session_zero(tmp, corpus):
    svc = tmp / "data" / "u0" / "genuine_0_00.svc"
    svc.parent.mkdir(parents=True)
    svc.write_text("2\n0 0 0 1\n1 1 10 1\n")
    return (["evaluate", "--data", tmp / "data", "--baseline", "--out", tmp / "r"], 1,
            f"error: {svc}: session must be at least 1")


def manifest_session_zero(tmp, corpus):
    manifest = tmp / "index.tsv"
    svc = corpus / "u000" / "genuine_1_00.svc"
    manifest.write_text(f"{svc}\tu000\tgenuine\t1\t0\n{svc}\tu000\tgenuine\t0\t1\n")
    return (["train", "--data", tmp, "--manifest", manifest, "--out", tmp / "m"], 1,
            f"error: {manifest}:2: session must be at least 1")


def corpus_too_short(tmp, corpus):
    shutil.copytree(corpus, tmp / "data")
    svc = tmp / "data" / "u004" / "genuine_1_00.svc"
    svc.write_text("6\n" + "".join(f"{k} {k} {10 * k} 1\n" for k in range(6)))
    return (["evaluate", "--data", tmp / "data", "--baseline", "--out", tmp / "r"], 1,
            "error: u004/genuine_1_0: sequence too short: 6 samples, need at least 7")


def corpus_duplicate_key(tmp, corpus):
    shutil.copytree(corpus, tmp / "data")
    second = tmp / "data" / "u000" / "genuine_1_00.svc"
    first = shutil.copy(second, second.with_name("genuine_1_0.svc"))
    return (["extract", "--data", tmp / "data", "--out", tmp / "f"], 1,
            f"error: {second}: duplicate record key 'u000/genuine_1_0', also from {first}")


def sffs_k_zero(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--sffs", "--sffs-k", 0,
             "--out", tmp], 2, "usage error: --sffs-k must be at least 1")


def sffs_pairs_one_class(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--sffs", "--sffs-k", 1,
             "--sffs-pairs", 1, "--out", tmp], 1,
            "error: max_pairs=1 keeps development pairs of one class only")


def sffs_pairs_below_one(value):
    """A development pair budget below 1 fails before the corpus is read."""
    def case(tmp, corpus):
        return (["evaluate", "--data", corpus, "--baseline", "--sffs", "--sffs-pairs", value,
                 "--out", tmp], 2, "usage error: --sffs-pairs must be at least 1")
    case.__name__ = f"sffs_pairs_{value}"
    case.quiet = True
    return case


def sffs_with_columns(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--sffs", "--columns", "4,5",
             "--out", tmp], 2, "usage error: --columns and --sffs exclude each other")


def config_columns_with_sffs(tmp, corpus):
    cfg = tmp / "eval.cfg"
    cfg.write_text("columns = 4,5\n")
    return (["evaluate", "--config", cfg, "--data", corpus, "--baseline", "--sffs",
             "--out", tmp], 2, "usage error: --columns and --sffs exclude each other")


def config_empty_columns(tmp, corpus):
    cfg = tmp / "eval.cfg"
    cfg.write_text("columns = ,\n")
    argv = ["evaluate", "--config", cfg, "--data", corpus, "--baseline", "--out", tmp]
    return argv, 2, f"usage error: {cfg}: bad value for columns: column list is empty"


def dev_users_negative(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--dev-users", -1,
             "--out", tmp], 1, "error: n_dev_users must be non-negative")


def train_with(option, value, message):
    """A bad training value fails before the corpus is read: stdout stays empty."""
    def case(tmp, corpus):
        return (["train", "--data", corpus, "--iterations", 1, option, value,
                 "--out", tmp / "m"], 1, f"error: {message}")
    case.__name__ = f"train_{option[2:].replace('-', '_')}_{value}"
    case.quiet = True
    return case


def evaluate_without(owner, option, value, config=False):
    """An option of the --baseline scorer or the --sffs search where it does not run."""
    def case(tmp, corpus):
        argv = ["evaluate", "--data", corpus, "--model", "m.npz"]
        if owner == "sffs":
            argv.append("--baseline")
        if config:
            cfg = tmp / "eval.cfg"
            cfg.write_text(f"{option.replace('-', '_')} = {value}\n")
            argv += ["--config", cfg]
        else:
            argv += [f"--{option}", value]
        what = "scorer" if owner == "baseline" else "search"
        return ([*argv, "--out", tmp], 2,
                f"usage error: --{option} applies to the --{owner} {what}")
    case.__name__ = f"{option.replace('-', '_')}_without_{owner}" + ("_config" if config else "")
    case.quiet = True
    return case


def generate_zero_sessions(tmp, corpus):
    return (["generate", "--sessions", 0, "--out", tmp / "c"], 1,
            "error: n_sessions must be at least 1, got 0")


def evaluate_no_evaluation_users(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--dev-users", 5,
             "--out", tmp / "r"], 2,
            "usage error: evaluation needs at least 1 evaluation user, got 0")


evaluate_no_evaluation_users.quiet = True


def det_points_zero(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--det-points", 0,
             "--out", tmp], 2, "usage error: --det-points must be at least 2")


def det_points_negative(tmp, corpus):
    return (["evaluate", "--data", corpus, "--baseline", "--det-points", -5,
             "--out", tmp], 2, "usage error: --det-points must be at least 2")


def config_empty_path(command, key, *argv):
    """An empty path in a --config file is rejected like an empty flag."""
    def case(tmp, corpus):
        cfg = tmp / "paths.cfg"
        cfg.write_text(f"{key} =\n")
        return ([command, "--config", cfg, *[str(a).format(corpus=corpus, tmp=tmp) for a in argv]],
                2, f"usage error: {cfg}: bad value for {key}: empty path")
    case.__name__ = f"config_empty_{key}_{command}"
    case.quiet = True
    return case


def extract_empty_corpus(tmp, corpus):
    (tmp / "empty").mkdir()
    return (["extract", "--data", tmp / "empty", "--out", tmp / "f"], 1,
            f"error: {tmp / 'empty'}: no signature files")


extract_empty_corpus.quiet = True


def bench_model_with(tmp, config=None, **members):
    """The benchmark's frozen model file with config keys or members replaced."""
    frozen = Path(__file__).resolve().parents[1] / "bench" / "model.npz"
    with np.load(frozen) as data:
        entries = {name: data[name] for name in data.files}
    if config:
        entries["config"] = json.dumps({**json.loads(str(entries["config"])), **config})
    path = tmp / "bad_model.npz"
    np.savez(path, **{**entries, **members})
    return path


def model_float_stride(tmp, corpus):
    path = bench_model_with(tmp, config={"time_stride": 3.0})
    return (["evaluate", "--data", corpus, "--model", path, "--out", tmp], 1,
            f"error: {path}: cannot read model file (time_stride must be an integer")


def model_empty_head_b(tmp, corpus):
    path = bench_model_with(tmp, head_b=np.empty(0))
    return (["evaluate", "--data", corpus, "--model", path, "--out", tmp], 1,
            f"error: {path}: head_b has shape (0,), expected (1,)")


@pytest.mark.parametrize("case", [
    results_without_system, config_bad_columns, config_bad_users,
    config_misspelt_flag, config_bad_choice, corpus_bad_session, corpus_bad_token,
    corpus_int64_overflow, manifest_bad_session, corpus_session_zero, manifest_session_zero,
    corpus_non_ascii_session, manifest_non_ascii_session, corpus_too_short,
    corpus_duplicate_key, sffs_k_zero, sffs_pairs_one_class, sffs_pairs_below_one(0),
    sffs_pairs_below_one(-5), det_points_zero,
    det_points_negative, model_float_stride, model_empty_head_b, sffs_with_columns,
    config_columns_with_sffs, config_empty_columns, dev_users_negative,
    train_with("--clip-norm", -1, "clip_norm must be non-negative (0 disables it), got -1.0"),
    train_with("--patience", -3, "patience must be non-negative (0 disables it), got -3"),
    train_with("--stop-below-cost", -1,
               "stop_below_cost must be non-negative (0 disables it), got -1.0"),
    train_with("--learning-rate", "nan", "learning_rate must be finite, got nan"),
    train_with("--learning-rate", -1, "learning_rate must be non-negative, got -1.0"),
    train_with("--batch-size", 0, "batch_size must be at least 1, got 0"),
    train_with("--iterations", -1, "max_iterations must be non-negative, got -1"),
    train_with("--time-stride", 0, "time_stride must be a positive integer, got 0"),
    evaluate_without("baseline", "columns", "1,2"),
    evaluate_without("baseline", "band", 5),
    evaluate_without("baseline", "band", 5, config=True),
    evaluate_without("sffs", "sffs-k", 2),
    evaluate_without("sffs", "sffs-pairs", 24),
    evaluate_without("sffs", "sffs-pairs", 24, config=True),
    generate_zero_sessions, evaluate_no_evaluation_users,
    config_empty_path("generate", "out"),
    config_empty_path("extract", "data", "--out", "{tmp}/f"),
    config_empty_path("train", "manifest", "--data", "{corpus}", "--out", "{tmp}/m"),
    config_empty_path("evaluate", "model", "--data", "{corpus}", "--out", "{tmp}/r"),
    config_empty_path("report", "out", "{tmp}/results.csv"),
    extract_empty_corpus,
], ids=lambda case: case.__name__)
def test_bad_input_is_one_line_error(case, corpus, tmp_path, capsys):
    argv, code, message = case(tmp_path, corpus)
    assert run(*argv) == code
    captured = capsys.readouterr()
    err = captured.err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(message)
    if getattr(case, "quiet", False):
        assert captured.out == ""


EMPTY_PATHS = [
    ["generate", "--config", "", "--out", "{out}"],
    ["generate", "--out", ""],
    ["extract", "--data", "", "--out", "{out}"],
    ["extract", "--data", "{corpus}", "--manifest", "", "--out", "{out}"],
    ["train", "--data", "{corpus}", "--out", ""],
    ["evaluate", "--data", "{corpus}", "--model", "", "--baseline", "--out", "{out}"],
    ["report", ""],
    ["report", "{out}/results.csv", "--out", ""],
]


@pytest.mark.parametrize("argv", EMPTY_PATHS, ids=lambda argv: " ".join(argv))
def test_empty_path_is_a_usage_error(argv, corpus, tmp_path, capsys):
    """argparse rejects it, naming the option, before anything runs."""
    out = tmp_path / "out"
    argv = [a.format(corpus=corpus, out=out) for a in argv]
    option = argv[argv.index("") - 1] if argv.index("") > 1 else "results"
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"sigver {argv[0]}: error: argument {option}: empty path")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_no_evaluation_user_writes_nothing(corpus, tmp_path):
    assert run("evaluate", "--data", corpus, "--baseline", "--dev-users", 5,
               "--out", tmp_path / "r") == 2
    assert not (tmp_path / "r").exists()


BAD_SETTINGS = [
    (["evaluate", "--baseline", "--columns", "0"], "columns must lie in 1..23, got (0,)"),
    (["evaluate", "--baseline", "--columns", "1,1"], "selected_columns contains duplicates"),
    (["evaluate", "--baseline", "--band", "-1"], "band must be >= 0"),
    (["evaluate", "--model", "{tmp}/missing.npz"],
     "{tmp}/missing.npz: cannot read model file ("),
    (["train", "--batch-size", "0"], "batch_size must be at least 1, got 0"),
    (["train", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["generate", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["train", "--branch-hidden", "0"], "branch_hidden must be a positive integer, got 0"),
    (["generate", "--jitter", "nan"], "session_jitter must be finite and non-negative, got nan"),
    (["generate", "--min-duration", "inf", "--max-duration", "inf"],
     "durations must satisfy 0.1 <= min_duration <= max_duration < inf, got inf and inf"),
]


@pytest.mark.parametrize("argv, message", BAD_SETTINGS,
                         ids=[" ".join(argv) for argv, _ in BAD_SETTINGS])
def test_bad_setting_fails_before_any_file_is_read(argv, message, tmp_path, capsys):
    """The setting's own error, though --data does not exist, and no --out."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] != "generate":
        argv += ["--data", tmp_path / "no-such-corpus"]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message.format(tmp=tmp_path)}")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("cls, field, bad", [
    (ModelConfig, "merge_hidden", 0), (TrainConfig, "batch_size", 0),
    (SynthConfig, "session_jitter", float("nan")), (DtwConfig, "band", -1),
    (SynthConfig, "seed", -1), (TrainConfig, "seed", -1),
    (ProtocolConfig, "forgeries_per_user", -1),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_configs_check_themselves_when_built(cls, field, bad):
    assert not hasattr(cls, "validate")
    with pytest.raises(ValueError, match=field):
        cls(**{field: bad})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(cls(), **{field: bad})


@pytest.mark.parametrize("failure, line", [
    (MemoryError(), "error: MemoryError"),
    (MemoryError("Unable to allocate 608. GiB"), "error: Unable to allocate 608. GiB"),
    (ChildProcessError("a worker process exited with code -9 before returning its "
                       "results"),
     "error: a worker process exited with code -9 before returning its results"),
], ids=["bare-MemoryError", "MemoryError", "ChildProcessError"])
def test_failure_kinds_end_in_one_line(failure, line, tmp_path, monkeypatch, capsys):
    """Out of memory and a lost worker are failures, with the class name
    standing in for an empty message."""
    def fail(cfg, root):
        raise failure
    monkeypatch.setattr(cli, "generate", fail)
    assert run("generate", "--users", 1, "--out", tmp_path / "c") == 1
    assert capsys.readouterr().err == line + "\n"


def test_a_bug_keeps_its_traceback(tmp_path, monkeypatch):
    def fail(cfg, root):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "generate", fail)
    with pytest.raises(RecursionError):
        run("generate", "--users", 1, "--out", tmp_path / "c")
