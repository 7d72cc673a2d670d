"""Command-line surface: build-vocab, train, encode, rank, pool, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error. The environment
variable ``TEXTOVISION_THREADS`` caps internal parallelism; it is applied
before numpy loads, so heavyweight imports stay inside the command
handlers. ``evaluate`` and ``build-vocab`` do no array math and never
import numpy, which is most of a short command's start-up time;
``formats``, ``metrics`` and ``textvec`` load it only where they use it.
"""

from __future__ import annotations

import argparse
import os
import sys

_DEFAULT_METRICS = "r@1,r@5,r@10,medr,meanr,mir,map"


class UsageError(Exception):
    """Bad flag combination detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_thread_cap() -> None:
    value = os.environ.get("TEXTOVISION_THREADS")
    if value:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            os.environ.setdefault(var, value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="textovision")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="write a word or trigram listing")
    p.add_argument("--sentences", required=True)
    p.add_argument("--vectorizer", choices=["bow", "hashing"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="fit the sentence-to-visual-feature network")
    p.add_argument("--sentences", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--val-sentences", required=True)
    p.add_argument("--val-features", required=True)
    p.add_argument("--vectorizer", choices=["bow", "hashing", "word2vec"], default="bow")
    p.add_argument("--embeddings", help="word2vec text file (required with --vectorizer word2vec)")
    p.add_argument("--layers", default="1000", help="comma-separated hidden sizes")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", help="explicit sentence-to-item pairs file")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--history", help="history TSV path (default: <out>.history.tsv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="predict visual features for sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("rank", help="rank candidate items for each query")
    p.add_argument("--queries", required=True, help="feature file of query vectors")
    p.add_argument("--items", required=True, help="feature file of candidate vectors")
    p.add_argument("--top", type=int, help="keep only the best K entries per query")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pool", help="mean-pool frame features per video")
    p.add_argument("--features", required=True, help="frame feature file, ids '<video>#<n>'")
    p.add_argument("--audio", help="per-video audio feature file to concatenate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("evaluate", help="score a ranking file against ground truth")
    p.add_argument("--rankings", required=True)
    p.add_argument("--ground-truth", required=True, help="TSV of '<query_id>\\t<item_id>'")
    p.add_argument("--metrics", default=_DEFAULT_METRICS)
    p.add_argument("--out", help="also write the TSV report line to this path")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"textovision: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"textovision: error: {exc}", file=sys.stderr)
        return 2


def _vectorizer_builder(args):
    """Map ``--vectorizer`` to a function that builds that vectorizer from
    the training sentences. A missing ``--embeddings`` is reported here,
    before any file is read."""
    from . import formats, textvec

    if args.vectorizer != "word2vec":
        return lambda sentences: textvec.build_vocab(args.vectorizer, sentences)
    if not args.embeddings:
        raise UsageError("--vectorizer word2vec requires --embeddings")
    return lambda sentences: textvec.WordEmbeddingTable(formats.read_features(args.embeddings))


def cmd_build_vocab(args) -> int:
    from . import formats

    build = _vectorizer_builder(args)
    terms = build(formats.read_sentences(args.sentences)).terms
    formats.write_word_list(args.out, terms)
    print(len(terms))
    return 0


def _parse_hidden_sizes(text: str) -> list[int]:
    sizes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            size = int(token)
        except ValueError:
            raise UsageError(f"--layers expects comma-separated integers, got {token!r}") from None
        if size < 1:
            raise UsageError("--layers sizes must be positive")
        sizes.append(size)
    return sizes


def _training_rows(vectorizer, sentences, features, pair_map):
    """Inputs and targets with one row per sentence: its vector, stacked
    one sentence at a time by ``neuralnet.stack_rows``, and the feature row
    of its item, by index.

    The item is looked up in ``pair_map`` (from an explicit pairs file)
    if given, otherwise derived from the '<item_id>#<n>' sentence id
    convention.
    """
    import numpy as np

    from . import formats, neuralnet

    row_of = {item_id: row for row, item_id in enumerate(features.ids)}
    targets = []
    for sentence in sentences:
        if pair_map is not None:
            item = pair_map.get(sentence.id)
            if item is None:
                raise ValueError(f"sentence {sentence.id!r} is missing from the pairs file")
        else:
            item = formats.item_id_of(sentence.id)
        if item not in row_of:
            raise ValueError(f"sentence {sentence.id!r}: item {item!r} has no feature row")
        targets.append(row_of[item])
    inputs = neuralnet.stack_rows(vectorizer.dim, map(vectorizer.vectorize, sentences))
    return inputs, neuralnet.SelectedRows(features.matrix, np.array(targets, dtype=np.intp))


def cmd_train(args) -> int:
    from . import formats, modelio, neuralnet

    build = _vectorizer_builder(args)
    train_sentences = formats.read_sentences(args.sentences)
    train_features = formats.read_features(args.features)
    val_sentences = formats.read_sentences(args.val_sentences)
    val_features = formats.read_features(args.val_features)
    vectorizer = build(train_sentences)

    out_dim = train_features.dim
    if val_features.dim != out_dim:
        raise ValueError(f"validation feature dim {val_features.dim} does not match "
                         f"training dim {out_dim}")

    net_cfg = neuralnet.NetworkConfig(
        layer_sizes=[vectorizer.dim, *_parse_hidden_sizes(args.layers), out_dim],
        dropout_rate=args.dropout,
    )
    opt_cfg = neuralnet.OptimizerConfig(
        learning_rate=args.lr,
        gamma=args.gamma,
        epsilon=args.epsilon,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    pair_map = dict(formats.read_pairs(args.pairs, unique_left=True)) if args.pairs else None
    x_train, t_train = _training_rows(vectorizer, train_sentences, train_features, pair_map)
    x_val, t_val = _training_rows(vectorizer, val_sentences, val_features, pair_map)
    result = neuralnet.train(x_train, t_train, x_val, t_val, net_cfg, opt_cfg)

    modelio.save_model(args.out, modelio.TrainedModel(vectorizer, result.params))
    formats.write_history(args.history or args.out + ".history.tsv", result.history)
    print(
        f"trained {len(result.history)} epochs; "
        f"best epoch {result.best_epoch} with validation loss {result.best_val_loss!r}"
    )
    return 0


def cmd_encode(args) -> int:
    import numpy as np

    from . import formats, modelio, neuralnet, retrieval

    model = modelio.load_model(args.model)
    sentences = formats.read_sentences(args.sentences)

    ids = []

    def vectors():
        for sentence in sentences:
            try:
                row = model.vectorizer.vectorize(sentence)
            except ValueError as exc:
                print(f"textovision: skipping {sentence.id!r}: {exc}", file=sys.stderr)
                continue
            ids.append(sentence.id)
            yield row

    with np.errstate(over="ignore", invalid="ignore"):  # a damaged model is reported below
        encoded = neuralnet.encode(model.params, vectors())
    if not ids:
        raise ValueError("no sentence could be encoded")
    if not np.isfinite(encoded).all():
        raise ValueError(f"{args.model}: the model predicts non-finite features")
    formats.write_features(args.out, retrieval.Features(ids, encoded))
    zero, skipped = len(ids) - np.count_nonzero(encoded.any(axis=1)), len(sentences) - len(ids)
    print(f"encoded {len(ids)} sentences, skipped {skipped}, {zero} all-zero predictions",
          file=sys.stderr)
    return 0


def cmd_rank(args) -> int:
    from . import formats, retrieval

    if args.top is not None and args.top < 1:
        raise UsageError("--top must be >= 1")
    queries = formats.read_features(args.queries)
    items = formats.read_features(args.items)
    formats.write_ranking(args.out, retrieval.rank_all(queries, items, top=args.top))
    return 0


def cmd_pool(args) -> int:
    from . import formats, videofeat

    pooled = videofeat.mean_pool(formats.read_features(args.features))
    if args.audio:
        pooled = videofeat.concat_visual_audio(pooled, formats.read_features(args.audio))
    formats.write_features(args.out, pooled)
    return 0


def cmd_evaluate(args) -> int:
    from . import formats, metrics

    try:
        names = metrics.parse_metric_names(args.metrics)
    except ValueError as exc:
        raise UsageError(f"--metrics: {exc}") from None
    rankings = formats.read_ranking(args.rankings)
    truth = metrics.GroundTruth.from_pairs(formats.read_pairs(args.ground_truth))
    values = metrics.evaluate(names, rankings, truth)

    tsv_line = "\t".join(f"{n}\t{v!r}" for n, v in zip(names, values))
    print(tsv_line)
    width = max(len(n) for n in names)
    for name, value in zip(names, values):
        print(f"{name:<{width}}  {value:.6f}")
    if args.out:
        with formats.atomic_open(args.out) as fh:
            fh.write(tsv_line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
