"""Command-line surface: gen, train, gradcheck, eval, embed.

Exit codes: 0 success, 1 usage, 2 I/O or data format, 3 training failure,
4 gradient-check failure, 5 artifact mismatch. Every JSON artifact is decoded
by `data.read_json_object` and fails with its own code and one line naming
the file: a config 1, a sidecar 2, a checkpoint or manifest 5. Every command
takes ``--config path`` pointing at a JSON object mirroring its flags (dashes
or underscores), required flags included; explicit flags override the file.
Seeds are always explicit, never wall-clock.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import (
    POSITIVE_FRACTION,
    DataFormatError,
    DatasetMeta,
    encode,
    encode_triplets,
    generate_synthetic,
    is_class_id,
    is_number,
    labeled_pool,
    load_arrays,
    load_jsonl,
    read_json_object,
    read_records,
    records_of,
    sample_triplets,
    sidecar_path,
    split_by_class,
    standardize_attributes,
    write_csv,
    write_json,
    write_jsonl,
    write_meta,
)
from .encoder import BRANCH_MODES, ModelConfig, embed_instances, init_params
from .encoder import omega_forward  # noqa: F401  (bench/tracer.py wraps it here)
from .episodes import evaluate
from .gradients import DISTANCE_KINDS, GRAD_MODES, gradcheck_suite
from .kernel import ACTIVATIONS, Rng
from .training import (
    CheckpointError,
    ShapeMismatchError,
    TrainConfig,
    TrainingDiverged,
    check_meta_compatible,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_TRAINING = 3
EXIT_GRADCHECK = 4
EXIT_MISMATCH = 5

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, config=None, probe=False, **kwargs):
        super().__init__(*args, add_help=not probe, **kwargs)
        self.config = config  # the --config file whose entries this parser reads
        if probe:  # the probe only looks for --config; -h is left to the full parse
            self.add_argument("-h", "--help", action="store_true", default=argparse.SUPPRESS)

    def error(self, message):  # a usage problem: one line and exit 1, not argparse's 2
        raise ValueError(f"config {self.config}: {message}" if self.config else message)


def _fail(message: str, code: int) -> int:
    print(f"attrseq: error: {message}", file=sys.stderr)
    return code


def positive_int(text) -> int:
    """argparse type of a count flag: an integer >= 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_ints(text) -> list:
    """argparse type of --sweep-triplets: distinct comma-separated integers >= 1."""
    counts = [positive_int(count) for count in text.split(",")]
    if len(set(counts)) < len(counts):
        raise argparse.ArgumentTypeError(f"repeats a count: {text}")
    return counts


# (flag, kwargs) specs per command; every dest is the flag without its
# leading dashes, with dashes turned into underscores.
_COMMON = [("--config", dict(help="JSON file mirroring this command's flags"))]

_GEN_ARGS = [
    ("--classes", dict(type=int, default=10, help="number of classes (>= 2)")),
    ("--per-class", dict(type=int, default=120, help="records per class")),
    ("--u", dict(type=int, default=10, help="attribute dimension")),
    ("--r", dict(type=int, default=12, help="item alphabet size")),
    ("--t-max", dict(type=int, default=15, help="maximum sequence length")),
    ("--attr-noise", dict(type=float, default=0.05)),
    ("--seq-noise", dict(type=float, default=0.05)),
    ("--seed", dict(type=int, required=True)),
    ("--standardize-attrs", dict(action="store_true", help="z-score attributes per dimension")),
    ("--out", dict(default="dataset.jsonl")),
]

_MODEL_ARGS = [
    ("--fc-depth", dict(type=int, default=ModelConfig.m)),
    ("--fc-width", dict(type=int, default=ModelConfig.n_m)),
    ("--lstm-width", dict(type=int, default=ModelConfig.n_l)),
    ("--embed-dim", dict(type=int, default=ModelConfig.n)),
    ("--activation", dict(choices=list(ACTIVATIONS), default=ModelConfig.activation)),
    ("--branch-mode", dict(choices=list(BRANCH_MODES), default=ModelConfig.branch_mode)),
]

_TRAINER_ARGS = [
    ("--lr", dict(type=float, default=TrainConfig.lr)),
    ("--epochs", dict(type=int, default=TrainConfig.max_epochs)),
    ("--margin", dict(type=float, default=TrainConfig.margin)),
    ("--l2", dict(type=float, default=TrainConfig.l2)),
    ("--val-fraction", dict(type=float, default=TrainConfig.val_fraction)),
    ("--patience", dict(type=int, default=TrainConfig.patience)),
    ("--converge-eps", dict(type=float, default=TrainConfig.converge_eps)),
    ("--distance", dict(choices=list(DISTANCE_KINDS), default=TrainConfig.distance)),
    ("--grad-mode", dict(choices=list(GRAD_MODES), default=TrainConfig.grad_mode)),
]

# Each checkpoint `train` key that is a training setting, which is also its
# flag's dest, and the TrainConfig field it sets.
_TRAIN_SETTINGS = {
    "lr": "lr", "epochs": "max_epochs", "margin": "margin", "l2": "l2",
    "val_fraction": "val_fraction", "patience": "patience", "converge_eps": "converge_eps",
    "distance": "distance", "grad_mode": "grad_mode",
}

_TRAIN_ARGS = [
    ("--data", dict(required=True)),
    ("--triplets", dict(type=int, default=1000)),
    ("--positive-fraction", dict(type=float, default=POSITIVE_FRACTION)),
    ("--train-fraction", dict(type=float, default=0.6)),
    ("--seed", dict(type=int, required=True)),
    *_MODEL_ARGS,
    *_TRAINER_ARGS,
    ("--checkpoint", dict(default="checkpoint.json")),
    ("--metrics", dict(default="metrics.csv")),
    ("--manifest", dict(default="split_manifest.json")),
]

_GRADCHECK_ARGS = [
    ("--trials", dict(type=positive_int, default=20)),
    ("--seed", dict(type=int, required=True)),
    ("--grad-mode", dict(choices=list(GRAD_MODES), default=TrainConfig.grad_mode)),
    ("--step", dict(type=float, default=1e-5)),
]

_EVAL_ARGS = [
    ("--checkpoint", dict(required=True)),
    ("--data", dict(required=True)),
    ("--manifest", dict(required=True)),
    ("--g", dict(type=positive_int, default=None, help="episode way; default: all one-shot classes")),
    ("--queries", dict(type=positive_int, default=2000)),
    ("--runs", dict(type=positive_int, default=10)),
    ("--seed", dict(type=int, required=True)),
    ("--distance", dict(choices=list(DISTANCE_KINDS), default=None,
                        help="default: the distance recorded in the checkpoint")),
    ("--sweep-triplets", dict(type=positive_ints, default=None,
                              help="comma-separated counts; retrain at each and emit a curve")),
    ("--out-json", dict(default="eval.json")),
    ("--out-csv", dict(default="eval.csv")),
]

_EMBED_ARGS = [
    ("--checkpoint", dict(required=True)),
    ("--data", dict(required=True)),
    ("--out", dict(default="embeddings.csv")),
]


def build_parser(config=None, probe=False) -> _Parser:
    """The CLI's parser; `config` names the --config file spliced into the
    argv it parses. A `probe` parser requires nothing and ignores -h: it only
    finds the --config file, so a required flag may come from that file."""
    parser = _Parser(prog="attrseq", description=__doc__.splitlines()[0], config=config,
                     probe=probe)
    sub = parser.add_subparsers(dest="command", required=not probe, parser_class=_Parser)
    for name, specs, runner in (
        ("gen", _GEN_ARGS, cmd_gen),
        ("train", _TRAIN_ARGS, cmd_train),
        ("gradcheck", _GRADCHECK_ARGS, cmd_gradcheck),
        ("eval", _EVAL_ARGS, cmd_eval),
        ("embed", _EMBED_ARGS, cmd_embed),
    ):
        sp = sub.add_parser(name, config=config, probe=probe)
        for flag, kwargs in specs + _COMMON:
            sp.add_argument(flag, **((kwargs | {"required": False}) if probe else kwargs))
        sp.set_defaults(func=runner)
    return parser


def _config_argv(args, argv) -> list:
    """argv with the --config file's entries spliced in as flags right after
    the command name, so argparse type- and choice-checks them like typed
    flags, and the explicit flags, parsed after them, win."""
    tokens = []
    for key, value in read_json_object(args.config, ValueError, "config").items():
        dest, where = key.replace("-", "_"), f"config {args.config}: key {key!r}"
        if dest not in vars(args) or dest in ("command", "func"):
            raise ValueError(f"{where} is not a flag of this command")
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):  # a store_true switch
            if not isinstance(value, bool):
                raise ValueError(f"{where} must be true or false, got {value!r}")
            if value:
                tokens.append(flag)
        elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"{where} must be a number or a string, got {value!r}")
        else:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _parse(argv):
    """Parse argv, with the entries of its --config file spliced in; required
    flags are enforced only on the spliced argv. With -h the file is not read."""
    probe = build_parser(probe=True).parse_args(argv)
    if getattr(probe, "config", None) and not hasattr(probe, "help"):
        return build_parser(probe.config).parse_args(_config_argv(probe, argv))
    return build_parser().parse_args(argv)


def cmd_gen(args) -> int:
    meta = DatasetMeta(  # checks the dimensions, the one-hot size included, first
        u=args.u, r=args.r, t_max=args.t_max,
        class_ids=frozenset(range(args.classes)),
    )
    records = generate_synthetic(
        classes=args.classes, per_class=args.per_class, u=args.u, r=args.r,
        t_max=args.t_max, attr_noise=args.attr_noise, seq_noise=args.seq_noise,
        seed=args.seed,
    )
    if args.standardize_attrs:
        records, _, _ = standardize_attributes(records)
    write_jsonl(records, args.out)
    write_meta(meta, sidecar_path(args.out))
    print(
        f"wrote {len(records)} records over {args.classes} classes to {args.out} "
        f"(u={args.u} r={args.r} t_max={args.t_max})"
    )
    return EXIT_OK


def _fit(records, count, positive_fraction, meta, cfg, settings, rng):
    """The training recipe of `train` and of each `eval --sweep-triplets`
    count: `count` triplets sampled from `records`, fresh parameters and SGD
    under `settings`, each from its own labeled child stream of `rng`.
    Returns (trained params, report)."""
    params = init_params(cfg, meta, rng.child("init"))  # an oversized model fails before sampling
    triplets = sample_triplets(records, count, rng.child("triplets"),
                               positive_fraction=positive_fraction)
    encoded = encode_triplets(triplets, meta)
    return train(params, cfg, encoded, dataclasses.replace(settings, seed=rng.child("train").seed))


def cmd_train(args) -> int:
    records, meta = load_jsonl(args.data)
    rng = Rng(args.seed)
    train_records, oneshot_records = split_by_class(records, args.train_fraction, rng.child("split"))
    cfg = ModelConfig(m=args.fc_depth, n_m=args.fc_width, n_l=args.lstm_width,
                      n=args.embed_dim, activation=args.activation,
                      branch_mode=args.branch_mode)
    stored = {key: getattr(args, key) for key in _TRAIN_SETTINGS}  # in the checkpoint too
    settings = TrainConfig(**{field: stored[key] for key, field in _TRAIN_SETTINGS.items()})
    trained, report = _fit(train_records, args.triplets, args.positive_fraction, meta, cfg,
                           settings, rng)

    train_info = {
        **stored, "triplets": args.triplets, "positive_fraction": args.positive_fraction,
        "seed": args.seed, "train_fraction": args.train_fraction,
        "stop_reason": report.stop_reason, "best_epoch": report.best_epoch,
    }
    save_checkpoint(trained, cfg, meta, args.checkpoint, train_info=train_info)
    write_metrics(report, args.metrics)
    write_json({
        "train_classes": sorted({rec.label for rec in train_records}),
        "oneshot_classes": sorted({rec.label for rec in oneshot_records}),
        "train_fraction": args.train_fraction,
        "seed": args.seed,
        "data": Path(args.data).name,
    }, args.manifest)
    print(
        f"trained {report.n_train}+{report.n_val} triplets "
        f"(distance={args.distance}, grad_mode={args.grad_mode}), "
        f"stop={report.stop_reason} best_epoch={report.best_epoch} "
        f"val={report.val_losses[report.best_epoch - 1]:.6f} "
        f"({report.wall_time:.1f}s); checkpoint={args.checkpoint}"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    suite = gradcheck_suite(trials=args.trials, seed=args.seed, mode=args.grad_mode,
                            step=args.step, tolerance=GRADCHECK_TOLERANCE)
    worst = suite["worst"]
    if suite["exempt"]:
        print(
            f"EXEMPT grad-mode={args.grad_mode}: finite-difference agreement not "
            f"required; informational max_rel_err={suite['max_rel_err']:.3e} "
            f"over {args.trials} trials"
        )
        if not suite["passed"]:
            return _fail("paper-literal gradients produced non-finite values", EXIT_GRADCHECK)
        return EXIT_OK
    if suite["passed"]:
        print(f"PASS max_rel_err={suite['max_rel_err']:.3e} < {GRADCHECK_TOLERANCE:.0e} "
              f"({args.trials} trials, step={args.step})")
        return EXIT_OK
    print(
        f"FAIL max_rel_err={suite['max_rel_err']:.3e} >= {GRADCHECK_TOLERANCE:.0e} at "
        f"tensor={worst['tensor']} index={worst['index']} "
        f"analytic={worst['analytic']!r} numeric={worst['numeric']!r}",
        file=sys.stderr,
    )
    return EXIT_GRADCHECK


def _load_manifest(path):
    manifest = read_json_object(path, ShapeMismatchError, "manifest")
    for key in ("train_classes", "oneshot_classes"):
        classes = manifest.get(key)
        if not isinstance(classes, list) or not all(is_class_id(c) for c in classes):
            raise ShapeMismatchError(f"manifest {path}: {key!r} must be a list of integers, got {classes!r}")
    if not manifest["oneshot_classes"]:
        raise ShapeMismatchError(f"manifest {path}: 'oneshot_classes' is empty")
    if shared := set(manifest["train_classes"]) & set(manifest["oneshot_classes"]):
        raise ShapeMismatchError(f"manifest {path}: classes {sorted(shared)} are both training and one-shot")
    return manifest


def cmd_eval(args) -> int:
    params, cfg, ckpt_meta, train_info = load_checkpoint(args.checkpoint)
    arrays, data_meta = load_arrays(args.data)
    manifest = _load_manifest(args.manifest)
    check_meta_compatible(ckpt_meta, data_meta)

    manifest_classes = set(manifest["train_classes"]) | set(manifest["oneshot_classes"])
    if manifest_classes != set(data_meta.class_ids):
        raise ShapeMismatchError(
            f"manifest classes {sorted(manifest_classes)} do not match dataset "
            f"classes {sorted(data_meta.class_ids)}"
        )
    oneshot_classes = set(manifest["oneshot_classes"])
    kind = args.distance or train_info.get("distance", TrainConfig.distance)
    if kind not in DISTANCE_KINDS:  # a flag is checked by argparse, so this came from the file
        raise CheckpointError(f"checkpoint {args.checkpoint}: unknown training distance {kind!r}")
    g = args.g if args.g is not None else len(oneshot_classes)

    # views into the arrays: the dataset's rules and meta and the checkpoint
    # fit above cover every check `encode` would make
    pool = labeled_pool(arrays, oneshot_classes)

    if args.sweep_triplets:
        return _eval_sweep(args, cfg, ckpt_meta, train_info, arrays, manifest, pool, kind, g)

    report = evaluate(params, cfg, kind, pool, g, args.queries, args.runs, args.seed)
    write_json(report.to_dict(), args.out_json)
    write_csv(args.out_csv, ["g", "queries", "runs", "distance", "median", "p25", "p75"],
              [(g, args.queries, args.runs, kind, report.median, report.p25, report.p75)])
    print(f"eval g={g} queries={args.queries} runs={args.runs} distance={kind}: "
          f"median={report.median:.4f} p25={report.p25:.4f} p75={report.p75:.4f}")
    return EXIT_OK


def _eval_sweep(args, cfg, ckpt_meta, train_info, arrays, manifest, pool, kind, g) -> int:
    train_classes = set(manifest["train_classes"])
    train_records = [rec for rec in records_of(arrays) if rec.label in train_classes]
    # the checkpoint's training settings, checked once before any retraining;
    # a setting it lacks keeps TrainConfig's default, and eval's distance wins
    positive_fraction = train_info.get("positive_fraction", POSITIVE_FRACTION)
    stored = {field: train_info[key] for key, field in _TRAIN_SETTINGS.items() if key in train_info}
    try:
        if not is_number(positive_fraction) or not 0 <= positive_fraction <= 1:
            raise ValueError(f"positive_fraction must be in [0, 1], got {positive_fraction!r}")
        settings = TrainConfig(**(stored | {"distance": kind}))
    except ValueError as e:
        raise CheckpointError(f"checkpoint {args.checkpoint}: unusable train settings: {e}") from None
    rng = Rng(args.seed)
    rows = []
    for count in args.sweep_triplets:
        crng = rng.child(f"sweep{count}")
        trained, _ = _fit(train_records, count, positive_fraction, ckpt_meta, cfg, settings, crng)
        report = evaluate(trained, cfg, kind, pool, g, args.queries, args.runs,
                          crng.child("eval").seed)
        rows.append((count, report))
        print(f"sweep triplets={count}: median={report.median:.4f} "
              f"p25={report.p25:.4f} p75={report.p75:.4f}")

    write_csv(args.out_csv, ["triplets", "median", "p25", "p75"],
              [(count, report.median, report.p25, report.p75) for count, report in rows])
    write_json([{"triplets": count, **report.to_dict()} for count, report in rows], args.out_json)
    return EXIT_OK


def cmd_embed(args) -> int:
    params, cfg, ckpt_meta, _ = load_checkpoint(args.checkpoint)
    records = read_records(args.data)
    try:
        instances = [encode(rec, ckpt_meta) for rec in records]
    except ValueError as e:
        raise ShapeMismatchError(f"record does not fit checkpoint encoding: {e}") from None
    write_csv(args.out, ["label", *(f"e{k}" for k in range(cfg.n))],
              [("" if rec.label is None else rec.label, *emb)
               for rec, emb in zip(records, embed_instances(params, cfg, instances).tolist())])
    print(f"wrote {len(records)} embeddings of width {cfg.n} to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except SystemExit as e:  # -h printed the help
        return int(e.code) if e.code else EXIT_OK
    except DataFormatError as e:
        return _fail(str(e), EXIT_IO)
    except (CheckpointError, ShapeMismatchError) as e:
        return _fail(str(e), EXIT_MISMATCH)
    except TrainingDiverged as e:
        return _fail(str(e), EXIT_TRAINING)
    except OSError as e:
        return _fail(str(e), EXIT_IO)
    except ValueError as e:
        return _fail(str(e), EXIT_USAGE)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
