"""Command-line interface.

Commands: convert, train, eval, predict, gradcheck, stats, neighbors,
synth. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure, 141 standard output closed by its reader. Every command is
deterministic given --seed, and all printed tables are byte-stable across
runs with identical inputs.

Configuration precedence: explicit command-line flags beat the optional
key=value --config file, which beats built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import classifier, corpus, evaluation, numerics, path_cnn, synth


class UnknownQuery(LookupError):
    """A --query-id that names no instance of the file."""


_DATA_ERRORS = (corpus.FormatError, corpus.DimensionMismatch, corpus.VocabularyError,
                classifier.InvalidConfig, path_cnn.InvalidWindowSize, classifier.ModelFileMismatch,
                numerics.ModelFormatError, evaluation.LengthMismatch, UnknownQuery, OSError)
_NUMERIC_ERRORS = (numerics.NonFiniteLoss, numerics.NonFiniteValue,
                   numerics.ShapeMismatch, evaluation.ZeroVector)

_TYPES = {"int": int, "float": float, "bool": bool}
_CONFIG_KEYS = {f.name: _TYPES[f.type] for f in fields(classifier.TrainConfig)}
# per command, the config keys it refuses: a gradient check takes no SGD
# step, runs no epoch and shuffles nothing
_UNREAD_KEYS = {"gradcheck": ("learning_rate", "epochs", "shuffle")}


def _read_config_file(path, command: str | None = None) -> dict:
    """Plain key=value lines; '#' starts a comment. A value is checked as
    it is read: each TrainConfig check is of one field. A key that the
    command does not read is refused, as an unknown key is."""
    values = {}
    with corpus.open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise corpus.FormatError("expected key=value", line_no)
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise corpus.FormatError(f"unknown config key {key!r}", line_no)
            if key in _UNREAD_KEYS.get(command, ()):
                raise corpus.FormatError(f"config key {key!r} is not read by {command}",
                                         line_no)
            typ = _CONFIG_KEYS[key]
            if typ is bool:
                if raw.lower() not in ("true", "false", "on", "off", "1", "0"):
                    raise corpus.FormatError(f"bad boolean {raw!r} for {key}", line_no)
                values[key] = raw.lower() in ("true", "on", "1")
            else:
                try:
                    values[key] = typ(raw)
                except ValueError:
                    raise corpus.FormatError(
                        f"bad {typ.__name__} {raw!r} for {key}", line_no) from None
            try:
                classifier.TrainConfig(**{key: values[key]})
            except (classifier.InvalidConfig, path_cnn.InvalidWindowSize) as exc:
                raise corpus.FormatError(str(exc), line_no) from None
    return values


def _resolve_config(args, embedding_dim: int | None,
                    base: dict | None = None) -> classifier.TrainConfig:
    """base < the --config file < the flags given, whose dests are TrainConfig fields."""
    settings = dict(base or {})
    if args.config:
        settings.update(_read_config_file(args.config, args.command))
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _CONFIG_KEYS and value is not None)
    if embedding_dim is not None:
        if settings.get("dim", embedding_dim) != embedding_dim:
            raise corpus.DimensionMismatch(
                f"--dim {settings['dim']} conflicts with {embedding_dim}-d embeddings")
        settings["dim"] = embedding_dim
    return classifier.TrainConfig.for_embedding_dim(settings.pop("dim", 50), **settings)


def _echo_config(config: classifier.TrainConfig) -> str:
    def flag(value):
        return "on" if value else "off"

    return ("config: "
            f"k={config.window} lambda={config.learning_rate} dim={config.dim} "
            f"dim_c={config.dim_c} l={config.hidden} epochs={config.epochs} "
            f"seed={config.seed} subtrees={flag(config.use_subtrees)} "
            f"ner={flag(config.use_ner)} wordnet={flag(config.use_wordnet)} "
            f"lex_dim={config.lex_dim} conv_tanh={flag(config.conv_tanh)} "
            f"shuffle={flag(config.shuffle)}")


def _add_model_flags(parser):
    """train's and gradcheck's configuration flags; each left out reads None."""
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--dim", type=int, help="word/relation embedding size")
    parser.add_argument("--dim-c", type=int, help="subtree vector size")
    parser.add_argument("--hidden", type=int, help="convolution output size")
    parser.add_argument("--window", type=int, help="convolution window size (odd, >=3)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--lex-dim", type=int, help="embedding size per lexical feature")
    parser.add_argument("--no-subtrees", dest="use_subtrees", action="store_false",
                        default=None, help="path-only ablation: drop attached subtrees")
    parser.add_argument("--ner", dest="use_ner", action="store_true", default=None,
                        help="use entity NER tags")
    parser.add_argument("--wordnet", dest="use_wordnet", action="store_true", default=None,
                        help="use entity WordNet hypernym tags")
    parser.add_argument("--linear-conv", dest="conv_tanh", action="store_false",
                        default=None, help="ablation: no activation after the convolution")


def cmd_convert(args) -> int:
    raw = corpus.read_semeval_raw(args.raw)
    blocks = corpus.read_parse_blocks(args.parses)
    instances, failures = corpus.convert(raw, blocks)
    corpus.write_parsed_instances(args.out, instances)
    print(f"wrote {len(instances)} instances to {args.out}")
    print(f"alignment failures: {len(failures)}")
    for rec_id, reason in failures:
        print(f"  {rec_id}: {reason}", file=sys.stderr)
    return 0


def _nonempty(items: list, path, role: str) -> list:
    """The instances read from a file, unless it holds none."""
    if not items:
        raise corpus.FormatError(f"{role} file holds no instances", path=path)
    return items


def _read_labeled(path, role: str) -> list:
    instances = _nonempty(corpus.read_parsed_instances(path), path, role)
    if any(inst.gold is None for inst in instances):
        raise corpus.FormatError(f"{role} file contains unlabeled instances", path=path)
    return instances


def cmd_train(args) -> int:
    instances = _read_labeled(args.instances, "training")
    embeddings = corpus.load_embeddings(args.embeddings) if args.embeddings else None
    config = _resolve_config(args, embeddings.dim if embeddings else None)
    print(_echo_config(config))
    validation = _read_labeled(args.val, "validation") if args.val else None

    vocab = corpus.Vocabulary.build(instances)
    model = classifier.Model.build(config, vocab, embeddings)
    model.train(instances, validation=validation,
                progress=lambda *epoch: print(classifier.epoch_line(*epoch)))
    model.save(args.out, precision=args.precision)
    print(f"model written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = classifier.Model.load(args.model)
    instances = _read_labeled(args.instances, "evaluation")
    gold = [inst.gold for inst in instances]
    predicted = [model.predict(inst).label for inst in instances]
    report = evaluation.score(gold, predicted)
    print(evaluation.render_report(report))
    print()
    for line in evaluation.metric_lines(report):
        print(line)
    return 0


def cmd_predict(args) -> int:
    model = classifier.Model.load(args.model)
    for inst in _nonempty(corpus.read_parsed_instances(args.instances), args.instances,
                          "prediction"):
        pred = model.predict(inst)
        probs = " ".join(f"{p:.6f}" for p in pred.distribution)
        print(f"{inst.id}\t{pred.label}\t{probs}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances:
        instances = _read_labeled(args.instances, "gradient-check")[:args.limit]
    else:
        seed = synth.GRADCHECK_SEED if args.seed is None else args.seed
        instances = synth.make_gradcheck_instances(args.n, seed=seed)
    # entrywise central differences want compact tensors, so the defaults
    # here are diagnostic sizes rather than the training defaults
    base = {"dim": 8, "dim_c": 5, "hidden": 7, "window": 3, "lex_dim": 4,
            "use_ner": True, "use_wordnet": True}
    config = _resolve_config(args, None, base=base)
    vocab = corpus.Vocabulary.build(instances)
    model = classifier.Model.build(config, vocab)

    worst: dict[str, float] = {name: 0.0 for name in model.store.names()}
    skipped = 0
    for inst in instances:
        compiled = model.compile(inst)
        gradient = numerics.Gradient(model.store)
        model.accumulate_gradients(compiled, gradient)
        errors, kinks = numerics.gradient_check(lambda: model.evaluate_loss(compiled),
                                                model.store, gradient, epsilon=args.epsilon)
        skipped += kinks
        for name, err in errors.items():
            worst[name] = max(worst[name], err)

    print("tensor\tmax_rel_err")
    for name in sorted(worst):
        print(f"{name}\t{worst[name]:.3e}")
    print(f"skipped\t{skipped} entries whose perturbed forwards pooled different windows")
    peak = max(worst.values())
    print(f"worst\t{peak:.3e}")
    if peak >= args.tolerance:
        print(f"gradient check failed: {peak:.3e} >= {args.tolerance:g}",
              file=sys.stderr)
        return 3
    return 0


def cmd_stats(args) -> int:
    with corpus.open_utf8(args.instances) as fh:
        first = fh.readline().rstrip("\n")
    if first == corpus.INSTANCE_FORMAT_HEADER:
        labels = [inst.gold for inst in corpus.read_parsed_instances(args.instances)]
    else:
        labels = [rec.label for rec in corpus.read_semeval_raw(args.instances)]
    if any(label is None for label in _nonempty(labels, args.instances, "statistics")):
        raise corpus.FormatError("stats need labeled data", path=args.instances)
    for line in corpus.dataset_stats(labels).lines():
        print(line)
    return 0


def cmd_neighbors(args) -> int:
    model = classifier.Model.load(args.model)
    instances = corpus.read_parsed_instances(args.instances)
    by_id = {inst.id: inst for inst in instances}
    if args.query_id not in by_id:
        raise UnknownQuery(f"no instance with id {args.query_id}")
    query = by_id[args.query_id]
    candidates = [inst for inst in instances if inst.id != args.query_id]
    ranked, skipped = evaluation.nearest_paths(query, candidates, model,
                                               top_n=args.top_n)
    label = query.gold if query.gold else "?"
    print(f"query {query.id} [{label}]: {evaluation.describe_path(query)}")
    for inst, similarity in ranked:
        print(f"{similarity:+.4f}\t{inst.id}\t{evaluation.describe_path(inst)}")
    for inst_id in skipped:
        print(f"skipped {inst_id}: zero path representation", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    instances = synth.make_separable_corpus(args.n, seed=args.seed)
    corpus.write_parsed_instances(args.out, instances)
    print(f"wrote {len(instances)} synthetic instances to {args.out}")
    return 0


def count(text: str) -> int:
    """The argparse type of a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depnn",
        description="Relation classification over augmented dependency paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="join raw SemEval text with parse annotations")
    p.add_argument("--raw", required=True)
    p.add_argument("--parses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a model on a parsed-instance file")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val", help="validation instances, scored per epoch")
    p.add_argument("--precision", choices=("f8", "f4"), default="f8")
    p.add_argument("--embeddings", help="pretrained word vectors (text format)")
    p.add_argument("--lr", dest="learning_rate", type=float, help="SGD learning rate")
    p.add_argument("--epochs", type=int)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on labeled instances")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print per-instance label and distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all analytic gradients")
    p.add_argument("--instances", help="defaults to a generated synthetic set")
    p.add_argument("--n", type=count, default=5, help="synthetic instance count")
    p.add_argument("--limit", type=count,
                   help="check only the first N instances of the file")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    _add_model_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="per-relation counts and percentages")
    p.add_argument("--instances", required=True,
                   help="parsed-instance file or raw SemEval file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("neighbors",
                       help="rank paths by cosine similarity to a query instance")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--top-n", type=count, default=3)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("synth", help="write the deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=count, default=50)
    p.add_argument("--seed", type=int, default=synth.SEPARABLE_SEED)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse exits 2 on usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        # the typed checks (NonFiniteLoss, validate_finite) report overflow, not numpy
        with np.errstate(all="ignore"):
            return args.func(args)
    except BrokenPipeError:
        # the reader closed standard output, as `depnn predict ... | head`
        # does: stop quietly, as a process killed by SIGPIPE would, and point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
