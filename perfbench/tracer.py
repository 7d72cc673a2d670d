"""Per-layer trace of one textovision command, recorded from outside `src/`.

    python3 perfbench/tracer.py SPANS_JSON STEP -- <textovision arguments>

runs ``textovision.cli.main`` in this process after replacing the public
functions of each layer module with timing wrappers. This works because
the CLI imports the layer modules lazily and calls through module
attributes, and ``neuralnet.train``/``encode`` look up ``forward``,
``backward`` and ``rmsprop_step`` as module globals. Spans (name, start,
end, parent, counters) are kept in memory and written to SPANS_JSON when
the command ends. Counts named ``flops`` and ``bytes`` are computed from
array shapes, not measured.

``summarize`` turns the spans of one command chain into the per-layer
metrics; a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, counters]
        self._stack: list[int] = []

    def run(self, name, fn, *args, counter=None, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span[4]["failed"] = 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[4].update(counter(args, kwargs, result))
        return result

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, counter=counter, **kwargs)

        return traced


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _weights(params):
    return [w.size for w, _ in params]


def _forward_flops(args, kwargs, result):
    weights = _weights(_arg(args, kwargs, 0, "params"))
    return {"flops": 2 * result.inputs.shape[0] * sum(weights)}


def _backward_flops(args, kwargs, result):
    # one GEMM per weight gradient, one per upstream delta below the output
    weights = _weights(_arg(args, kwargs, 0, "params"))
    batch = _arg(args, kwargs, 1, "cache").inputs.shape[0]
    return {"flops": 2 * batch * (2 * sum(weights) - weights[0])}


def _rmsprop_bytes(args, kwargs, result):
    # float64 reads of parameter, gradient and state; writes of parameter and state
    params = _arg(args, kwargs, 0, "params")
    return {"bytes": 5 * 8 * sum(w.size + b.size for w, b in params)}


def _ranking_lines(rankings, top=None):
    return sum(len(r.entries) if top is None else min(top, len(r.entries)) for r in rankings)


# (module, function, span name, counter) for every traced layer function
LAYER_FUNCTIONS = [
    ("textvec", "vectorize", "textvec.vectorize",
     lambda a, k, r: {"nnz": int((r.values != 0).sum()), "dim": r.values.size}),
    ("textvec", "build_vocab", "textvec.build_vocab", None),
    ("textvec", "build_trigram_index", "textvec.build_vocab", None),
    ("neuralnet", "train", "neuralnet.train", lambda a, k, r: {"epochs": len(r.history)}),
    ("neuralnet", "forward", "neuralnet.forward", _forward_flops),
    ("neuralnet", "backward", "neuralnet.backward", _backward_flops),
    ("neuralnet", "rmsprop_step", "neuralnet.rmsprop_step", _rmsprop_bytes),
    ("neuralnet", "encode", "neuralnet.encode", None),
    ("retrieval", "rank_all", "retrieval.rank_all",
     lambda a, k, r: {"pairs": len(_arg(a, k, 0, "queries")) * len(_arg(a, k, 1, "candidates"))}),
    ("formats", "read_sentences", "formats.read_sentences", None),
    ("formats", "read_features", "formats.read_features", lambda a, k, r: {"rows": len(r)}),
    ("formats", "write_features", "formats.write_features",
     lambda a, k, r: {"rows": len(_arg(a, k, 1, "features"))}),
    ("formats", "write_ranking", "formats.write_ranking",
     lambda a, k, r: {"lines": _ranking_lines(_arg(a, k, 1, "rankings"), k.get("top"))}),
    ("formats", "read_ranking", "formats.read_ranking", lambda a, k, r: {"lines": _ranking_lines(r)}),
    ("metrics", "first_relevant_rank", "metrics.first_relevant_rank", None),
    ("metrics", "mean_average_precision", "metrics.mean_average_precision", None),
    ("modelio", "save_model", "modelio.save_model",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("modelio", "load_model", "modelio.load_model", None),
    ("videofeat", "group_frames", "videofeat.group_frames", None),
    ("videofeat", "mean_pool", "videofeat.mean_pool", None),
    ("videofeat", "concat_visual_audio", "videofeat.concat_visual_audio", None),
]

# metric name -> (span name, counter) for metrics that sum a span counter
COUNTER_METRICS = {
    "textvec.vectorize.failed": ("textvec.vectorize", "failed"),
    "neuralnet.train.epochs": ("neuralnet.train", "epochs"),
    "neuralnet.forward.flops": ("neuralnet.forward", "flops"),
    "neuralnet.backward.flops": ("neuralnet.backward", "flops"),
    "neuralnet.rmsprop_step.bytes": ("neuralnet.rmsprop_step", "bytes"),
    "retrieval.rank_all.pairs": ("retrieval.rank_all", "pairs"),
    "formats.read_features.rows": ("formats.read_features", "rows"),
    "formats.write_features.rows": ("formats.write_features", "rows"),
    "formats.write_ranking.lines": ("formats.write_ranking", "lines"),
    "formats.read_ranking.lines": ("formats.read_ranking", "lines"),
    "modelio.model_bytes": ("modelio.save_model", "bytes"),
}


def install(tracer: Tracer) -> None:
    """Replace each layer function with a traced one. A module or function
    the program no longer has is skipped, and its metrics read 0."""
    for module_name, attr, span, counter in LAYER_FUNCTIONS:
        try:
            module = importlib.import_module(f"textovision.{module_name}")
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, tracer.wrap(span, fn, counter))


def summarize(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of every command of one chain."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(float)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, span_counters), children in zip(spans, child_time):
            total[name] += end - start
            self_time[name] += end - start - children
            calls[name] += 1
            for key, value in span_counters.items():
                counters[name, key] += value

    metrics: dict[str, float] = {}
    for name in total:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_time[name]
        metrics[f"{name}.calls"] = calls[name]
    for metric, key in COUNTER_METRICS.items():
        metrics[metric] = counters[key]
    dims = counters["textvec.vectorize", "dim"]
    metrics["textvec.input_nnz_ratio"] = counters["textvec.vectorize", "nnz"] / dims if dims else 0.0
    return metrics


def main(argv: list[str]) -> int:
    spans_path, step, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON STEP -- <textovision arguments>")
    # wrapping imports the layer modules, and numpy with them, before
    # cli.main could apply the thread cap, so apply it here first
    threads = os.environ.get("TEXTOVISION_THREADS")
    if threads:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, threads)
    from textovision import cli

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.run(f"cli.{step}", cli.main, cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
