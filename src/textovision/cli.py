"""Command-line surface: build-vocab, train, encode, rank, pool, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error or out of memory.
``textovision.thread_count()`` (``TEXTOVISION_THREADS``, or else the
usable CPUs) sizes the BLAS threads, ``train``'s optimizer threads and
``encode``'s block threads; a malformed ``TEXTOVISION_THREADS`` is a
usage error for every command. ``main`` sets the BLAS variables over any
caller's, only if numpy has not loaded, so heavyweight imports stay
inside the command handlers; ``encode`` runs BLAS at one thread, so its
bytes do not depend on the count. ``evaluate`` and ``build-vocab``
do no array math and never import numpy, which is most of a short
command's start-up time; ``formats``, ``metrics`` and ``textvec`` load
it only where they use it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import thread_count

_DEFAULT_METRICS = "r@1,r@5,r@10,medr,meanr,mir,map"


class UsageError(Exception):
    """Bad flag combination detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_thread_cap(command: str) -> None:
    """Check ``TEXTOVISION_THREADS`` and, before numpy loads (it reads them
    only then; later they would only leak), set the BLAS thread counts over
    any caller's: to 1 for ``encode``, to ``thread_count()`` otherwise."""
    try:
        threads = thread_count()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if "numpy" in sys.modules:
        return
    # idle OpenBLAS workers sleep at once instead of spinning on the cores
    # that rmsprop_step's threads need between products
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        # encode runs BLAS at one thread, so its bytes do not depend on the count
        os.environ[var] = "1" if command == "encode" else str(threads)


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
    p.add_argument("--layers", dest="hidden_sizes", help="comma-separated hidden sizes")
    p.add_argument("--dropout", dest="dropout_rate", type=float)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_thread_cap(args.command)
        return args.func(args)
    except UsageError as exc:
        print(f"textovision: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"textovision: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"textovision: error: out of memory: {exc}", file=sys.stderr)
        return 2


def cmd_build_vocab(args) -> int:
    from . import formats, textvec

    terms = textvec.build_vocab(args.vectorizer, formats.read_sentences(args.sentences)).terms
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
            sizes.append(int(token))
        except ValueError:
            raise UsageError(f"--layers expects comma-separated integers, got {token!r}") from None
    return sizes


def _no_term(vectorizer, sentence) -> str:
    return f"sentence {sentence.id!r} has no {vectorizer.term_noun}"


def _training_rows(vectorizer, path, sentences, features, pair_map):
    """Inputs and targets with one row per sentence of file ``path``: its
    vector, in the form ``vectorizer.rows`` gives, and its item's feature
    row. The item is looked up in ``pair_map`` (from a pairs file) if given,
    else taken from an '<item_id>#<n>' id; any other id is an error naming
    ``path``. Then the first sentence without a known term is an error."""
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
            try:
                item = formats.item_id_of(sentence.id)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if item not in row_of:
            raise ValueError(f"sentence {sentence.id!r}: item {item!r} has no feature row")
        targets.append(row_of[item])
    inputs, known = vectorizer.rows(sentences)
    if not known.all():
        raise ValueError(_no_term(vectorizer, sentences[int(known.argmin())]))
    return inputs, neuralnet.SelectedRows(features.matrix, np.array(targets, dtype=np.intp))


def _train_config(args):
    """The ``TrainConfig`` of the training flags given, each stored under
    its field's name; a value out of range is a usage error."""
    from . import neuralnet

    given = {name: value for name, value in vars(args).items()
             if value is not None and name in neuralnet.TrainConfig.__dataclass_fields__}
    if "hidden_sizes" in given:
        given["hidden_sizes"] = _parse_hidden_sizes(given["hidden_sizes"])
    try:
        return neuralnet.TrainConfig(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args) -> int:
    from . import formats, modelio, neuralnet, textvec

    if args.vectorizer == "word2vec" and not args.embeddings:
        raise UsageError("--vectorizer word2vec requires --embeddings")
    cfg = _train_config(args)
    train_sentences = formats.read_sentences(args.sentences)
    train_features = formats.read_features(args.features)
    val_sentences = formats.read_sentences(args.val_sentences)
    # the features as a whole often serve both sets: parse them once
    if os.path.exists(args.val_features) and os.path.samefile(args.val_features, args.features):
        val_features = train_features
    else:
        val_features = formats.read_features(args.val_features)
    if val_features.dim != train_features.dim:
        raise ValueError(f"validation feature dim {val_features.dim} does not match "
                         f"training dim {train_features.dim}")
    if args.vectorizer == "word2vec":
        vectorizer = textvec.WordEmbeddingTable(formats.read_features(args.embeddings))
    else:
        vectorizer = textvec.build_vocab(args.vectorizer, train_sentences)

    pair_map = dict(formats.read_pairs(args.pairs, unique_left=True)) if args.pairs else None
    x_train, t_train = _training_rows(vectorizer, args.sentences, train_sentences, train_features,
                                      pair_map)
    x_val, t_val = _training_rows(vectorizer, args.val_sentences, val_sentences, val_features,
                                  pair_map)
    result = neuralnet.train(x_train, t_train, x_val, t_val, cfg)

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
    rows, known = model.vectorizer.rows(sentences)
    for sentence, found in zip(sentences, known):
        if not found:
            print(f"textovision: skipping {sentence.id!r}: {_no_term(model.vectorizer, sentence)}",
                  file=sys.stderr)
    ids = [s.id for s, found in zip(sentences, known) if found]
    if not ids:
        raise ValueError("no sentence could be encoded")

    # only the kept rows are encoded, into one matrix; each has its own product
    kept = neuralnet.SelectedRows(rows, np.flatnonzero(known))
    with np.errstate(over="ignore", invalid="ignore"):  # a damaged model is reported below
        encoded = neuralnet.encode(model.params, kept)
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
    import numpy as np

    from . import formats, videofeat

    frames = formats.read_features(args.features)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mean is reported below
            pooled = videofeat.mean_pool(frames)
    except ValueError as exc:  # a frame id that does not name its video
        raise ValueError(f"{args.features}: {exc}") from None
    finite = np.isfinite(pooled.matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"{args.features}: video {pooled.ids[int(finite.argmin())]!r} "
                         "pools to non-finite features (values too large)")
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
    # written before anything is printed, so a failed write leaves stdout empty
    if args.out:
        with formats.atomic_open(args.out) as fh:
            fh.write(tsv_line + "\n")
    print(tsv_line)
    width = max(len(n) for n in names)
    for name, value in zip(names, values):
        print(f"{name:<{width}}  {value:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
