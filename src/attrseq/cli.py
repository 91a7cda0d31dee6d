"""Command-line surface: gen, train, gradcheck, eval, embed.

Exit codes: 0 success, 1 usage, 2 I/O or data format, 3 training failure,
4 gradient-check failure, 5 artifact mismatch. Every command takes
``--config path`` pointing at a JSON object mirroring its flags (dashes or
underscores); explicit flags override the file. Seeds are always explicit,
never wall-clock.
"""

import argparse
import json
import sys
from pathlib import Path

from .data import (
    DataFormatError,
    DatasetMeta,
    encode,
    encode_labeled,
    encode_triplets,
    generate_synthetic,
    is_json_int,
    load_jsonl,
    read_records,
    sample_triplets,
    sidecar_path,
    split_by_class,
    standardize_attributes,
    write_jsonl,
    write_meta,
)
from .encoder import BRANCH_MODES, ModelConfig, embed_instances, init_params
from .encoder import omega_forward  # noqa: F401  (bench/tracer.py wraps it here)
from .episodes import evaluate
from .gradients import DISTANCE_KINDS, GRAD_MODES, gradcheck_suite
from .kernel import Rng
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
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str, code: int) -> int:
    print(f"attrseq: error: {message}", file=sys.stderr)
    return code


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
    ("--fc-depth", dict(type=int, default=3)),
    ("--fc-width", dict(type=int, default=50)),
    ("--lstm-width", dict(type=int, default=50)),
    ("--embed-dim", dict(type=int, default=50)),
    ("--activation", dict(choices=["tanh", "relu"], default="tanh")),
    ("--branch-mode", dict(choices=list(BRANCH_MODES), default="both")),
]

_TRAINER_ARGS = [
    ("--lr", dict(type=float, default=0.01)),
    ("--epochs", dict(type=int, default=100)),
    ("--margin", dict(type=float, default=1.0)),
    ("--l2", dict(type=float, default=1e-4)),
    ("--val-fraction", dict(type=float, default=0.2)),
    ("--patience", dict(type=int, default=5)),
    ("--converge-eps", dict(type=float, default=1e-4)),
]

_TRAIN_ARGS = [
    ("--data", dict(required=True)),
    ("--triplets", dict(type=int, default=1000)),
    ("--positive-fraction", dict(type=float, default=0.5)),
    ("--train-fraction", dict(type=float, default=0.6)),
    ("--distance", dict(choices=list(DISTANCE_KINDS), default="euclidean")),
    ("--grad-mode", dict(choices=list(GRAD_MODES), default="exact")),
    ("--seed", dict(type=int, required=True)),
    *_MODEL_ARGS,
    *_TRAINER_ARGS,
    ("--checkpoint", dict(default="checkpoint.json")),
    ("--metrics", dict(default="metrics.csv")),
    ("--manifest", dict(default="split_manifest.json")),
]

_GRADCHECK_ARGS = [
    ("--trials", dict(type=int, default=20)),
    ("--seed", dict(type=int, required=True)),
    ("--grad-mode", dict(choices=list(GRAD_MODES), default="exact")),
    ("--step", dict(type=float, default=1e-5)),
]

_EVAL_ARGS = [
    ("--checkpoint", dict(required=True)),
    ("--data", dict(required=True)),
    ("--manifest", dict(required=True)),
    ("--g", dict(type=int, default=None, help="episode way; default: all one-shot classes")),
    ("--queries", dict(type=int, default=2000)),
    ("--runs", dict(type=int, default=10)),
    ("--seed", dict(type=int, required=True)),
    ("--distance", dict(choices=list(DISTANCE_KINDS), default=None,
                        help="default: the distance recorded in the checkpoint")),
    ("--sweep-triplets", dict(default=None,
                              help="comma-separated counts; retrain at each and emit a curve")),
    ("--out-json", dict(default="eval.json")),
    ("--out-csv", dict(default="eval.csv")),
]

_EMBED_ARGS = [
    ("--checkpoint", dict(required=True)),
    ("--data", dict(required=True)),
    ("--out", dict(default="embeddings.csv")),
]


def build_parser() -> _Parser:
    parser = _Parser(prog="attrseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, specs, runner in (
        ("gen", _GEN_ARGS, cmd_gen),
        ("train", _TRAIN_ARGS, cmd_train),
        ("gradcheck", _GRADCHECK_ARGS, cmd_gradcheck),
        ("eval", _EVAL_ARGS, cmd_eval),
        ("embed", _EMBED_ARGS, cmd_embed),
    ):
        sp = sub.add_parser(name)
        for flag, kwargs in specs + _COMMON:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=runner)
    return parser


def _config_argv(args, argv) -> list:
    """argv with the --config file's entries spliced in as flags right after
    the command name, so argparse type- and choice-checks them like typed
    flags, and the explicit flags, parsed after them, win."""
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"config {args.config} is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    tokens = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "func"):
            raise ValueError(f"config key {key!r} is not a flag of this command")
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):  # a store_true switch
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
            if value:
                tokens.append(flag)
        elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"config key {key!r} must be a number or a string, got {value!r}")
        else:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _parse(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(_config_argv(args, argv))
    return args


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


def cmd_train(args) -> int:
    records, meta = load_jsonl(args.data)
    rng = Rng(args.seed)
    train_records, oneshot_records = split_by_class(records, args.train_fraction, rng.child("split"))
    triplets = sample_triplets(train_records, args.triplets, rng.child("triplets"),
                               positive_fraction=args.positive_fraction)
    encoded = encode_triplets(triplets, meta)
    cfg = ModelConfig(m=args.fc_depth, n_m=args.fc_width, n_l=args.lstm_width,
                      n=args.embed_dim, activation=args.activation,
                      branch_mode=args.branch_mode)
    params = init_params(cfg, meta, rng.child("init"))
    tcfg = TrainConfig(
        lr=args.lr, max_epochs=args.epochs, converge_eps=args.converge_eps,
        margin=args.margin, l2=args.l2, val_fraction=args.val_fraction,
        patience=args.patience, distance=args.distance, grad_mode=args.grad_mode,
        seed=rng.child("train").seed,
    )
    trained, report = train(params, cfg, encoded, tcfg)

    train_info = {
        "distance": args.distance, "grad_mode": args.grad_mode,
        "triplets": args.triplets, "positive_fraction": args.positive_fraction,
        "lr": args.lr, "epochs": args.epochs, "margin": args.margin,
        "l2": args.l2, "val_fraction": args.val_fraction,
        "patience": args.patience, "converge_eps": args.converge_eps,
        "seed": args.seed, "train_fraction": args.train_fraction,
        "stop_reason": report.stop_reason, "best_epoch": report.best_epoch,
    }
    save_checkpoint(trained, cfg, meta, args.checkpoint, train_info=train_info)
    write_metrics(report, args.metrics)
    manifest = {
        "train_classes": sorted({rec.label for rec in train_records}),
        "oneshot_classes": sorted({rec.label for rec in oneshot_records}),
        "train_fraction": args.train_fraction,
        "seed": args.seed,
        "data": Path(args.data).name,
    }
    with open(args.manifest, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(
        f"trained {report.n_train}+{report.n_val} triplets "
        f"(distance={args.distance}, grad_mode={args.grad_mode}), "
        f"stop={report.stop_reason} best_epoch={report.best_epoch} "
        f"val={report.val_losses[report.best_epoch - 1]:.6f} "
        f"({report.wall_time:.1f}s); checkpoint={args.checkpoint}"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}", EXIT_USAGE)
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
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as e:
        raise ShapeMismatchError(f"manifest {path} is not valid JSON: {e}") from None
    for key in ("train_classes", "oneshot_classes"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise ShapeMismatchError(f"manifest {path} is missing {key!r}")
        classes = manifest[key]
        if not isinstance(classes, list) or not all(is_json_int(c) for c in classes):
            raise ShapeMismatchError(f"manifest {path}: {key!r} must be a list of integers, got {classes!r}")
    return manifest


def cmd_eval(args) -> int:
    if args.queries < 1:
        return _fail(f"--queries must be >= 1, got {args.queries}", EXIT_USAGE)
    if args.runs < 1:
        return _fail(f"--runs must be >= 1, got {args.runs}", EXIT_USAGE)
    params, cfg, ckpt_meta, train_info = load_checkpoint(args.checkpoint)
    records, data_meta = load_jsonl(args.data)
    manifest = _load_manifest(args.manifest)
    check_meta_compatible(ckpt_meta, data_meta)

    manifest_classes = set(manifest["train_classes"]) | set(manifest["oneshot_classes"])
    if manifest_classes != set(data_meta.class_ids):
        raise ShapeMismatchError(
            f"manifest classes {sorted(manifest_classes)} do not match dataset "
            f"classes {sorted(data_meta.class_ids)}"
        )
    oneshot_classes = set(manifest["oneshot_classes"])
    kind = args.distance or train_info.get("distance", "euclidean")
    g = args.g if args.g is not None else len(oneshot_classes)

    pool_records = [rec for rec in records if rec.label in oneshot_classes]
    try:
        pool = encode_labeled(pool_records, ckpt_meta)
    except ValueError as e:
        raise ShapeMismatchError(f"dataset does not fit checkpoint encoding: {e}") from None

    if args.sweep_triplets:
        return _eval_sweep(args, params, cfg, ckpt_meta, train_info, records,
                           manifest, pool, kind, g)

    report = evaluate(params, cfg, kind, pool, g, args.queries, args.runs, args.seed)
    payload = report.to_dict()
    with open(args.out_json, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    with open(args.out_csv, "w") as fh:
        fh.write("g,queries,runs,distance,median,p25,p75\n")
        fh.write(f"{g},{args.queries},{args.runs},{kind},"
                 f"{report.median!r},{report.p25!r},{report.p75!r}\n")
    print(f"eval g={g} queries={args.queries} runs={args.runs} distance={kind}: "
          f"median={report.median:.4f} p25={report.p25:.4f} p75={report.p75:.4f}")
    return EXIT_OK


def _eval_sweep(args, params, cfg, ckpt_meta, train_info, records, manifest,
                pool, kind, g) -> int:
    try:
        counts = [int(x) for x in str(args.sweep_triplets).split(",") if x.strip()]
    except ValueError:
        return _fail(f"--sweep-triplets must be comma-separated integers, "
                     f"got {args.sweep_triplets!r}", EXIT_USAGE)
    if not counts or any(c < 1 for c in counts):
        return _fail(f"--sweep-triplets needs positive counts, got {args.sweep_triplets!r}",
                     EXIT_USAGE)
    train_classes = set(manifest["train_classes"])
    train_records = [rec for rec in records if rec.label in train_classes]
    rng = Rng(args.seed)
    rows = []
    for count in counts:
        crng = rng.child(f"sweep{count}")
        triplets = sample_triplets(
            train_records, count, crng.child("triplets"),
            positive_fraction=train_info.get("positive_fraction", 0.5),
        )
        encoded = encode_triplets(triplets, ckpt_meta)
        fresh = init_params(cfg, ckpt_meta, crng.child("init"))
        tcfg = TrainConfig(
            lr=train_info.get("lr", 0.01),
            max_epochs=train_info.get("epochs", 100),
            converge_eps=train_info.get("converge_eps", 1e-4),
            margin=train_info.get("margin", 1.0),
            l2=train_info.get("l2", 1e-4),
            val_fraction=train_info.get("val_fraction", 0.2),
            patience=train_info.get("patience", 5),
            distance=kind,
            grad_mode=train_info.get("grad_mode", "exact"),
            seed=crng.child("train").seed,
        )
        trained, _ = train(fresh, cfg, encoded, tcfg)
        report = evaluate(trained, cfg, kind, pool, g, args.queries, args.runs,
                          crng.child("eval").seed)
        rows.append((count, report))
        print(f"sweep triplets={count}: median={report.median:.4f} "
              f"p25={report.p25:.4f} p75={report.p75:.4f}")

    with open(args.out_csv, "w") as fh:
        fh.write("triplets,median,p25,p75\n")
        for count, report in rows:
            fh.write(f"{count},{report.median!r},{report.p25!r},{report.p75!r}\n")
    payload = [{"triplets": count, **report.to_dict()} for count, report in rows]
    with open(args.out_json, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return EXIT_OK


def cmd_embed(args) -> int:
    params, cfg, ckpt_meta, _ = load_checkpoint(args.checkpoint)
    records = read_records(args.data)
    header = "label," + ",".join(f"e{k}" for k in range(cfg.n))
    instances = []
    for rec in records:
        if len(rec.attributes) != ckpt_meta.u:
            raise ShapeMismatchError(
                f"record has {len(rec.attributes)} attributes but checkpoint "
                f"expects u={ckpt_meta.u}"
            )
        try:
            instances.append(encode(rec, ckpt_meta))
        except ValueError as e:
            raise ShapeMismatchError(f"record does not fit checkpoint encoding: {e}") from None
    lines = [header]
    for rec, emb in zip(records, embed_instances(params, cfg, instances)):
        label = "" if rec.label is None else str(rec.label)
        lines.append(label + "," + ",".join(repr(float(x)) for x in emb))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(records)} embeddings of width {cfg.n} to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    except OSError as e:
        return _fail(f"cannot read config: {e}", EXIT_IO)
    except ValueError as e:
        return _fail(str(e), EXIT_USAGE)
    try:
        return args.func(args)
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
