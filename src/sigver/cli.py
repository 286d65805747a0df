"""Command-line workflow: generate | extract | train | evaluate | report.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines
(keys are the long option names with dashes or underscores); explicit
flags override file values. ``generate`` and ``train``, the two
commands that draw random numbers, take ``--seed``; all their randomness
flows from it.
Exit status is 0 only when every requested output was written.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    DEVELOPMENT,
    EVALUATION,
    build_pairs,
    build_split,
    load_dataset,
    record_filename,
)
from .dtw import ALL_COLUMNS, DtwConfig, score_pairs_dtw, sffs_select, write_sffs_report
from .features import extract_features, write_feature_csv
from .metrics import (
    aggregate_4vs1,
    compute_eer,
    det_curve,
    evaluation_row,
    make_score_set,
    write_det_csv,
    write_results_csv,
)
from .siamese import (
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    init_model,
    load_model,
    save_model,
    score_pairs,
    train,
    write_training_log,
)
from .synth import SynthConfig, generate


class UsageError(ValueError):
    """Bad argument combination detected after parsing."""


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_FLAG_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Let a --config file supply defaults, with explicit flags winning."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    sub_action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    names = [tok for tok in argv if tok in sub_action.choices]
    if not names:
        raise UsageError("a subcommand is required before a --config file applies "
                         f"(choose from {', '.join(sub_action.choices)})")
    sub = sub_action.choices[names[0]]
    values = _read_config_file(known.config)
    valid = {a.dest: a for a in sub._actions}
    for key, text in values.items():
        if key not in valid or key in ("help", "config"):
            raise UsageError(f"{known.config}: unknown option {key!r}")
        action = valid[key]
        parsed: object = text
        try:
            if isinstance(action, argparse._StoreTrueAction):
                if text.lower() not in _FLAG_WORDS:
                    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
                parsed = _FLAG_WORDS[text.lower()]
            elif action.type is not None:
                parsed = action.type(text)
            if action.choices is not None and parsed not in action.choices:
                raise ValueError(f"invalid choice {text!r} (choose from "
                                 f"{', '.join(map(str, action.choices))})")
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"{known.config}: bad value for {key}: {exc}") from exc
        sub.set_defaults(**{key: parsed})
        action.required = False


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _columns(text: str) -> tuple:
    try:
        cols = tuple(int(c) for c in text.split(",") if c.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad column list {text!r}") from exc
    if not cols:
        raise argparse.ArgumentTypeError("column list is empty")
    return cols


def _load_features(records) -> dict:
    return {r.key: extract_features(r) for r in records}


def _split_from_args(args: argparse.Namespace):
    records = load_dataset(args.data, manifest=args.manifest)
    users = sorted({r.user_id for r in records})
    n_dev = args.dev_users
    if n_dev is None:
        n_dev = (3 * len(users)) // 4  # development fraction 3/4
    return build_split(records, n_dev_users=n_dev)


# --- subcommands ---


def cmd_generate(args: argparse.Namespace) -> int:
    if args.users < 1:
        raise UsageError("--users must be at least 1")
    # option -> SynthConfig field; synth.cfg is a --config file of the options
    fields = {"users": "n_users", "sessions": "n_sessions",
              "genuine_per_session": "genuine_per_session",
              "forgeries": "forgeries_per_user", "seed": "seed",
              "jitter": "session_jitter", "noise": "forgery_noise",
              "min_duration": "min_duration", "max_duration": "max_duration"}
    cfg = SynthConfig(**{field: getattr(args, opt) for opt, field in fields.items()})
    out = Path(args.out)
    users, files = generate(cfg, out)
    (out / "synth.cfg").write_text(
        "".join(f"{opt} = {getattr(args, opt)}\n" for opt in fields))
    print(f"generated {users} users, {files} signature files under {out}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    records = load_dataset(args.data, manifest=args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = 0
    for record in records:
        seq = extract_features(record, normalize=not args.raw)
        user_dir = out / record.user_id
        user_dir.mkdir(exist_ok=True)
        name = Path(record_filename(record)).with_suffix(".csv")
        write_feature_csv(seq, user_dir / name)
        n += 1
    print(f"wrote {n} feature files under {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    # both configs check their values when built, before any file is read
    model_cfg = ModelConfig(
        branch_hidden=args.branch_hidden,
        merge_hidden=args.merge_hidden,
        time_stride=args.time_stride,
    )
    train_cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_iterations=args.iterations,
        patience=args.patience,
        clip_norm=args.clip_norm,
        seed=args.seed,
        optimizer=args.optimizer,
        stop_below_cost=args.stop_below_cost,
    )
    split = _split_from_args(args)
    if len(split.development_users) < 2:
        raise UsageError(
            f"training needs at least 2 development users, "
            f"got {len(split.development_users)}"
        )
    dev_pairs = build_pairs(split, DEVELOPMENT)
    features = _load_features(split.records(DEVELOPMENT))
    print(f"development users: {len(split.development_users)}, "
          f"pairs: {len(dev_pairs)}")

    model = init_model(model_cfg, np.random.default_rng(args.seed))

    def dev_eers(m) -> tuple[float, float]:
        scores = score_pairs(
            m,
            [features[p.enroll_key] for p in dev_pairs],
            [features[p.probe_key] for p in dev_pairs],
        )
        one = compute_eer(make_score_set(dev_pairs, scores))[0]
        four = compute_eer(aggregate_4vs1(dev_pairs, scores))[0]
        return one, four

    trained, history = train(model, dev_pairs, features, train_cfg,
                             dev_eval_hook=dev_eers if args.dev_eval else None)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.npz"
    save_model(trained, model_path)
    write_training_log(history, out / "training_log.csv")
    for row in history:  # wall clock stays out of the reproducible log
        print(f"iteration {row['iteration']}: {row['seconds']:.2f} s elapsed",
              file=sys.stderr)

    if history:
        print(f"trained {len(history)} iterations, "
              f"final cost {history[-1]['cost']:.4f}")
    else:
        print("trained 0 iterations, saved the initialization")
    eer_1vs1, eer_4vs1 = dev_eers(trained)
    print(f"dev EER 1vs1: {eer_1vs1:.2f}%")
    print(f"dev EER 4vs1: {eer_4vs1:.2f}%")
    print(f"model written to {model_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.model and not args.baseline:
        raise UsageError("evaluate needs --model and/or --baseline")
    if args.sffs and not args.baseline:
        raise UsageError("--sffs applies to the --baseline scorer")
    # None unless a flag or config line gives it; then its scorer must run
    for owner, what, options in (("baseline", "scorer", ("columns", "band")),
                                 ("sffs", "search", ("sffs_k", "sffs_pairs"))):
        for option in options:
            if getattr(args, option) is not None and not getattr(args, owner):
                raise UsageError(f"--{option.replace('_', '-')} applies to the "
                                 f"--{owner} {what}")
    for option, default in (("band", 0), ("sffs_k", 9), ("sffs_pairs", 500)):
        if getattr(args, option) is None:
            setattr(args, option, default)
    if args.sffs and args.columns is not None:
        raise UsageError("--columns and --sffs exclude each other")
    for option in ("sffs_k", "sffs_pairs"):  # given only with --sffs, as checked above
        if getattr(args, option) < 1:
            raise UsageError(f"--{option.replace('_', '-')} must be at least 1")
    if args.det_points < 2:
        raise UsageError("--det-points must be at least 2")
    # settings and the model file fail before any signature file is read
    dtw_cfg = DtwConfig(args.columns or ALL_COLUMNS, args.band)
    model = load_model(args.model) if args.model else None
    split = _split_from_args(args)
    if not split.evaluation_users:
        raise UsageError("evaluation needs at least 1 evaluation user, got 0")
    pairs = build_pairs(split, EVALUATION)
    n_genuine = sum(p.label for p in pairs)
    probes_genuine = len({(p.user_id, p.probe_index) for p in pairs if p.label == 1})
    probes_impostor = len({(p.user_id, p.probe_index) for p in pairs if p.label == 0})
    print(f"evaluation users: {len(split.evaluation_users)}")
    print(f"1vs1 genuine scores: {n_genuine}, "
          f"impostor scores: {len(pairs) - n_genuine}")
    print(f"4vs1 genuine scores: {probes_genuine}, "
          f"impostor scores: {probes_impostor}")

    features = _load_features(split.records(EVALUATION))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    curves = []

    def add_system(system: str, scores: np.ndarray) -> None:
        one = make_score_set(pairs, scores, system)
        four = aggregate_4vs1(pairs, scores, system)
        for scoreset in (one, four):
            row = evaluation_row(scoreset)
            rows.append(row)
            curves.append((system, scoreset.protocol,
                           det_curve(scoreset, n_points=args.det_points)))
            print(f"{system} {row['protocol']} EER: {row['eer_percent']}% "
                  f"(threshold {row['threshold']})")

    if model is not None:
        scores = score_pairs(
            model,
            [features[p.enroll_key] for p in pairs],
            [features[p.probe_key] for p in pairs],
        )
        add_system("proposed", scores)

    if args.baseline:
        if args.sffs:
            dev_features = _load_features(split.records(DEVELOPMENT))
            columns, steps = sffs_select(
                split, dev_features, k_max=args.sffs_k,
                max_pairs=args.sffs_pairs, band=args.band,
            )
            write_sffs_report(out / "sffs_report.txt", steps, columns)
            print(f"selected columns: {','.join(str(c) for c in columns)}")
            dtw_cfg = dataclasses.replace(dtw_cfg, selected_columns=columns)
        add_system("baseline", score_pairs_dtw(pairs, features, dtw_cfg))

    write_results_csv(out / "results.csv", rows)
    write_det_csv(out / "det.csv", curves)
    print(f"results written to {out / 'results.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for path in args.results:
        with open(path) as fh:
            reader = csv.DictReader(fh)
            for column in ("system", "protocol", "eer_percent"):
                if reader.fieldnames and column not in reader.fieldnames:
                    raise ValueError(f"{path}: no {column!r} column")
            rows.extend(reader)
    if not rows:
        raise UsageError("no result rows found")
    header = ("system", "protocol", "eer_percent", "reference_eer_percent")
    widths = [max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in sorted(rows, key=lambda r: (r["system"], r["protocol"])):
        lines.append(
            "  ".join(str(r.get(h, "")).ljust(w) for h, w in zip(header, widths))
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    return 0


# --- argument wiring ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigver",
        description="online signature verification workflows",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=_path, help="key = value defaults file; flags win")

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=20240816,
                       help="seed for every stochastic component")

    g = sub.add_parser("generate", help="write a synthetic SVC corpus")
    common(g)
    add_seed(g)
    g.add_argument("--users", type=int, default=40)
    g.add_argument("--sessions", type=int, default=4)
    g.add_argument("--genuine-per-session", type=int, default=4)
    g.add_argument("--forgeries", type=int, default=12)
    g.add_argument("--noise", type=float, default=1.5,
                   help="forgery distortion amplitude")
    g.add_argument("--jitter", type=float, default=0.035,
                   help="session-to-session variation")
    g.add_argument("--min-duration", type=float, default=1.5)
    g.add_argument("--max-duration", type=float, default=4.0)
    g.add_argument("--out", type=_path, required=True)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("extract", help="write per-signature feature CSVs")
    common(e)
    e.add_argument("--data", type=_path, required=True, help="SVC dataset root")
    e.add_argument("--manifest", type=_path, default=None)
    e.add_argument("--raw", action="store_true", help="skip the per-signature z-score")
    e.add_argument("--out", type=_path, required=True)
    e.set_defaults(func=cmd_extract)

    t = sub.add_parser("train", help="train the verifier on development users")
    common(t)
    add_seed(t)
    t.add_argument("--data", type=_path, required=True)
    t.add_argument("--manifest", type=_path, default=None)
    t.add_argument("--dev-users", type=int, default=None,
                   help="development user count (default: 3/4 of users)")
    t.add_argument("--iterations", type=int, default=200)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--learning-rate", type=float, default=3e-3)
    t.add_argument("--branch-hidden", type=int, default=16)
    t.add_argument("--merge-hidden", type=int, default=8)
    t.add_argument("--time-stride", type=int, default=3)
    t.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    t.add_argument("--patience", type=int, default=0)
    t.add_argument("--clip-norm", type=float, default=5.0)
    t.add_argument("--stop-below-cost", type=float, default=0.05)
    t.add_argument("--dev-eval", action="store_true",
                   help="track development EER every iteration")
    t.add_argument("--out", type=_path, required=True)
    t.set_defaults(func=cmd_train)

    v = sub.add_parser("evaluate", help="score evaluation users")
    common(v)
    v.add_argument("--data", type=_path, required=True)
    v.add_argument("--manifest", type=_path, default=None)
    v.add_argument("--dev-users", type=int, default=None)
    v.add_argument("--model", type=_path, default=None, help="trained model file")
    v.add_argument("--baseline", action="store_true",
                   help="also run the DTW reference system")
    v.add_argument("--sffs", action="store_true",
                   help="select baseline columns on the development split")
    v.add_argument("--sffs-k", type=int, help="largest subset to search (default 9)")
    v.add_argument("--sffs-pairs", type=int, help="development pair budget (default 500)")
    v.add_argument("--columns", type=_columns, default=None,
                   help="baseline feature columns, e.g. 1,2,5 (default: all "
                        "23); excludes --sffs")
    v.add_argument("--band", type=int, help="DTW band |i-j| (default 0: none)")
    v.add_argument("--det-points", type=int, default=200)
    v.add_argument("--out", type=_path, required=True)
    v.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("report", help="summarize results CSVs as a table")
    common(r)
    r.add_argument("results", type=_path, nargs="+", help="results.csv files")
    r.add_argument("--out", type=_path, default=None, help="also write the table here")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads != "1":
        print(f"warning: OPENBLAS_NUM_THREADS={threads}; results can differ in the "
              "last bits from the one-thread default", file=sys.stderr)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, TrainingDiverged) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
