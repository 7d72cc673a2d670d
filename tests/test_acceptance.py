"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import synthdata
from oracles import (
    brute_force_metrics,
    max_relative_error,
    numeric_gradients,
    random_net,
    whole_gradients,
)

from textovision import formats, metrics
from textovision import neuralnet as nn
from textovision import retrieval, textvec
from textovision.cli import main as cli_main
from textovision.formats import item_id_of
from textovision.retrieval import Features, Ranking
from textovision.textvec import Sentence


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(510510)
        checked = 0
        while checked < 50:
            depth = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 17)) for _ in range(depth)]
            batch = int(rng.integers(1, 9))
            params = random_net(sizes, rng)
            inputs = rng.normal(size=(batch, sizes[0]))
            targets = np.abs(rng.normal(size=(batch, sizes[-1])))
            cache = nn.forward(params, inputs)
            # finite differences are invalid within h of a ReLU kink
            if any(np.any(np.abs(z) < 1e-4) for z in cache.preacts):
                continue
            analytic = whole_gradients(nn.backward(params, cache, targets))
            numeric = numeric_gradients(params, inputs, targets, h=1e-5)
            err = max_relative_error(analytic, numeric)
            assert err <= 1e-4, f"config {sizes} batch {batch}: relative error {err}"
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"


def test_criterion_2_rmsprop_unit_fixture():
    with criterion(2, "rmsprop unit fixture"):
        params = [(np.array([[0.0]]), np.array([0.0]))]
        grads = [(np.array([[1.0]]), np.array([0.0]))]
        new_params, new_state = nn.rmsprop_step(
            params, grads, nn.zero_state(params), nn.TrainConfig()
        )
        expected = -0.001 / math.sqrt(0.100001)
        assert abs(new_params[0][0][0, 0] - expected) <= 1e-12
        assert abs(new_state[0][0][0, 0] - 0.1) <= 1e-12


def _matrices(vocab, corpus, sentences):
    """Bag-of-words rows and item targets of ``sentences``."""
    x = vocab.rows(sentences).take(np.arange(len(sentences)))
    t = np.stack([corpus.targets[item_id_of(s.id)] for s in sentences])
    return x, t


def _train_on_corpus(corpus, seed=42):
    vocab = textvec.build_vocab("bow", corpus.train_sentences)
    cfg = nn.TrainConfig(hidden_sizes=(128,), dropout_rate=0.2, seed=seed)
    result = nn.train(
        *_matrices(vocab, corpus, corpus.train_sentences),
        *_matrices(vocab, corpus, corpus.val_sentences),
        cfg,
    )
    return vocab, cfg, result


_shared = {}


def _shared_run():
    if not _shared:
        corpus = synthdata.make_corpus()
        _shared["corpus"] = corpus
        _shared["run"] = _train_on_corpus(corpus)
    return _shared["corpus"], _shared["run"]


def _test_truth(corpus):
    return metrics.GroundTruth(
        {item: {f"{item}#{k}" for k in range(synthdata.SENTENCES_PER_ITEM)}
         for item in corpus.test_items}
    )


def _table(ids, rows):
    return Features(ids, np.stack(rows))


def test_criterion_3_synthetic_end_to_end_retrieval():
    with criterion(3, "synthetic end-to-end retrieval"):
        start = time.perf_counter()
        corpus = synthdata.make_corpus()
        truth = _test_truth(corpus)
        queries = _table(corpus.test_items, [corpus.targets[item] for item in corpus.test_items])
        pool = corpus.test_sentences + corpus.distractor_sentences

        # the task must be solvable from word-cluster lookups alone before
        # the trained network is held to any threshold
        oracle_candidates = _table([s.id for s in pool], [corpus.oracle_vector(s) for s in pool])
        oracle_rankings = retrieval.rank_all(queries, oracle_candidates)
        assert metrics.evaluate(["r@1"], oracle_rankings, truth) == [100.0]

        vocab, cfg, result = _train_on_corpus(corpus)

        x_val, t_val = _matrices(vocab, corpus, corpus.val_sentences)
        initial_params = nn.init_network([vocab.dim, *cfg.hidden_sizes, synthdata.VISUAL_DIM],
                                         cfg.seed)
        initial_val_loss = nn.mse_loss(nn.forward(initial_params, x_val).output, t_val)
        assert result.best_val_loss < initial_val_loss

        encoded = nn.encode(result.params, vocab.rows(pool))
        candidates = Features([s.id for s in pool], encoded)
        r_at_1, med_r = metrics.evaluate(["r@1", "medr"],
                                         retrieval.rank_all(queries, candidates), truth)
        chance = 100.0 * synthdata.SENTENCES_PER_ITEM / len(pool)
        assert chance < 2.0 + 1e-9
        assert r_at_1 >= 60.0, f"R@1 {r_at_1} vs chance {chance:.2f}"
        assert med_r <= 2.0, f"Med r {med_r}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"end-to-end retrieval took {elapsed:.1f}s"


def test_criterion_4_overfit_oracle():
    with criterion(4, "single-pair overfit oracle"):
        # seed 7 keeps both initial output preactivations positive; the
        # output ReLU would pin a negative one at zero forever
        x, t = np.array([[1.0, 0.5]]), np.array([[0.6, 0.4]])
        result = nn.train(
            x, t, x, t,
            nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0, seed=7),
        )
        assert len(result.history) <= 500
        assert result.best_val_loss < 1e-3


def test_criterion_5_early_stopping_fixture(monkeypatch):
    with criterion(5, "early stopping fixture"):
        # train's validation losses are scripted; its training steps run as usual
        rng = np.random.default_rng(5)
        x, t = np.abs(rng.normal(size=(9, 3))), np.abs(rng.normal(size=(9, 2)))
        real = nn.mse_loss

        def run(val_losses, **settings):
            scripted = iter(val_losses)
            # 3 validation rows; training batches of 4, 2 rows
            monkeypatch.setattr(nn, "mse_loss", lambda p, q: next(scripted) if len(p) == 3
                                else real(p, q))
            cfg = nn.TrainConfig(hidden_sizes=(4,), batch_size=4, seed=5, **settings)
            return nn.train(x[:6], t[:6], x[6:], t[6:], cfg)

        result = run([1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9], patience=5)
        assert len(result.history) == 7
        assert result.best_epoch == 2
        two = run([1.0, 0.9], max_epochs=2)
        for (w, b), (w2, b2) in zip(result.params, two.params):
            assert w.tobytes() == w2.tobytes() and b.tobytes() == b2.tobytes()


def test_criterion_6_metric_oracle_equivalence():
    with criterion(6, "metric oracle equivalence"):
        rng = np.random.default_rng(424242)
        ks = (1, 5, 10)
        for _ in range(200):
            n_queries = int(rng.integers(1, 11))
            pool = [f"i{j}" for j in range(int(rng.integers(2, 21)))]
            scores = {}
            relevance = {}
            rankings = []
            for qi in range(n_queries):
                query_id = f"q{qi}"
                row = {item: float(rng.normal()) for item in pool}
                chosen = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)),
                                    replace=False)
                scores[query_id] = row
                relevance[query_id] = {pool[c] for c in chosen}
                ordered = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))
                rankings.append(Ranking(query_id, *zip(*ordered)))

            truth = metrics.GroundTruth(relevance)
            expected = brute_force_metrics(scores, relevance, ks)
            # a query's rank is the mean rank over its ranking alone
            ranks = [metrics.evaluate(["meanr"], [r], truth)[0] for r in rankings]
            assert ranks == expected["ranks"]
            names = [f"r@{k}" for k in ks] + ["medr", "meanr", "mir", "map"]
            report = dict(zip(names, metrics.evaluate(names, rankings, truth)))
            for k in ks:
                assert abs(report[f"r@{k}"] - expected["r_at"][k]) <= 1e-12
            for name in ("medr", "meanr", "mir", "map"):
                assert abs(report[name] - expected[name]) <= 1e-12


def test_criterion_7_vectorizer_fixtures():
    with criterion(7, "vectorizer fixtures"):
        assert textvec.letter_trigrams("cat") == ["#ca", "cat", "at#"]
        assert textvec.letter_trigrams("dog") == ["#do", "dog", "og#"]

        # >=1000 distinct words of length >=6 over a small alphabet: the
        # trigram inventory saturates far below the word count
        rng = np.random.default_rng(11)
        pool = set()
        while len(pool) < 1200:
            length = int(rng.integers(6, 11))
            pool.add("".join("abcde"[i] for i in rng.integers(0, 5, size=length)))
        corpus = [Sentence(f"w#{i}", word) for i, word in enumerate(sorted(pool))]
        vocab = textvec.build_vocab("bow", corpus)
        index = textvec.build_vocab("hashing", corpus)
        assert vocab.dim >= 1000
        assert all(len(w) >= 6 for w in vocab.terms)
        assert index.dim < vocab.dim


def _run_cli_pipeline(workdir):
    corpus, _ = _shared_run()
    workdir.mkdir(exist_ok=True)
    train_s = str(workdir / "train.tsv")
    val_s = str(workdir / "val.tsv")
    pool_s = str(workdir / "pool.tsv")
    item_feats = str(workdir / "items.feat")
    query_feats = str(workdir / "queries.feat")
    gt = str(workdir / "gt.tsv")

    synthdata.write_sentences(train_s, corpus.train_sentences)
    synthdata.write_sentences(val_s, corpus.val_sentences)
    pool = corpus.test_sentences + corpus.distractor_sentences
    synthdata.write_sentences(pool_s, pool)
    formats.write_features(
        item_feats, _table(corpus.item_ids, [corpus.targets[i] for i in corpus.item_ids])
    )
    formats.write_features(
        query_feats, _table(corpus.test_items, [corpus.targets[i] for i in corpus.test_items])
    )
    with open(gt, "w", encoding="utf-8") as fh:
        for item in corpus.test_items:
            for k in range(synthdata.SENTENCES_PER_ITEM):
                fh.write(f"{item}\t{item}#{k}\n")

    vocab_file = str(workdir / "vocab.txt")
    model = str(workdir / "model.bin")
    encoded = str(workdir / "encoded.feat")
    ranking = str(workdir / "ranking.tsv")
    report = str(workdir / "report.tsv")

    assert cli_main(["build-vocab", "--sentences", train_s, "--vectorizer", "bow",
                     "--out", vocab_file]) == 0
    assert cli_main(["train", "--sentences", train_s, "--features", item_feats,
                     "--val-sentences", val_s, "--val-features", item_feats,
                     "--vectorizer", "bow", "--layers", "128", "--seed", "42",
                     "--out", model]) == 0
    assert cli_main(["encode", "--model", model, "--sentences", pool_s,
                     "--out", encoded]) == 0
    assert cli_main(["rank", "--queries", query_feats, "--items", encoded,
                     "--out", ranking]) == 0
    assert cli_main(["evaluate", "--rankings", ranking, "--ground-truth", gt,
                     "--out", report]) == 0
    return {
        "vocab": vocab_file,
        "model": model,
        "history": model + ".history.tsv",
        "encoded": encoded,
        "ranking": ranking,
        "report": report,
    }


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    with criterion(8, "pipeline determinism"):
        first = _run_cli_pipeline(tmp_path / "run1")
        second = _run_cli_pipeline(tmp_path / "run2")
        for key in first:
            a = Path(first[key]).read_bytes()
            b = Path(second[key]).read_bytes()
            assert a == b, f"{key} differs between identical runs"


def test_criterion_9_text_to_text_in_visual_space():
    with criterion(9, "text-to-text retrieval in visual space"):
        corpus, (vocab, _, result) = _shared_run()

        # first sentence of each held-out item queries the remaining four
        queries = [s for s in corpus.test_sentences if s.id.endswith("#0")]
        pool = [s for s in corpus.test_sentences if not s.id.endswith("#0")]
        truth = metrics.GroundTruth(
            {
                f"{item}#0": {f"{item}#{k}" for k in range(1, synthdata.SENTENCES_PER_ITEM)}
                for item in corpus.test_items
            }
        )

        def map_score(vectors):
            qs = Features([s.id for s in queries], vectors(queries))
            cs = Features([s.id for s in pool], vectors(pool))
            (value,) = metrics.evaluate(["map"], retrieval.rank_all(qs, cs), truth)
            return value

        in_visual_space = map_score(lambda sentences: nn.encode(result.params,
                                                                vocab.rows(sentences)))
        raw_bag_of_words = map_score(
            lambda sentences: vocab.rows(sentences).take(np.arange(len(sentences))))
        assert in_visual_space > raw_bag_of_words, (
            f"visual-space mAP {in_visual_space:.4f} "
            f"not above bag-of-words mAP {raw_bag_of_words:.4f}"
        )
