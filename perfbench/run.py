"""Benchmark of the textovision CLI, end to end, on seeded synthetic workloads.

    python3 perfbench/run.py --workload train_bow [--seed 1] [--seconds 60] [--trace 0]

Run from anywhere inside a checkout; the checkout's own ``src/`` is put on
``PYTHONPATH``. Each workload is one closed loop with one client: the
command chain pool, build-vocab, train, encode, rank, evaluate and
rank --top runs one command after another as subprocesses, chain after
chain, until ``--seconds`` is spent, after one process has imported every
layer module (a warm-up). Each metric is its median over the chains.
Set-up (input generation) runs ``SETUP_REPEATS`` times before the first
chain; ``setup_s`` is their median.

Every command's output is checked on every chain: exit code, structure
(row, line and rank counts, finite metrics), byte-identity with the first
chain, and, where ``golden.json`` holds digests for this seed and numeric
environment, byte-identity with those. A failed check counts the command
as failed.

``--trace 1`` alternates untraced chains with chains whose commands run
under ``tracer.py`` and reports the per-layer metrics instead, with
``trace.overhead_ratio`` = traced wall time / untraced wall time.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (names and units from BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from tracer import BLAS_THREAD_VARS, summarize
from workloads import AUDIO_DIM, SHAPES, TOP_K, VISUAL_DIM, Shape

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 100
MAX_THREADS = 2
LAYERS = ("cli", "textvec", "neuralnet", "retrieval", "metrics", "formats", "modelio", "videofeat")
STEPS = ("pool", "build-vocab", "train", "encode", "rank", "evaluate", "rank_top")
EVALUATE_METRICS = ("r@1", "r@5", "r@10", "medr", "meanr", "mir", "map")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run ``argv`` to completion: (exit code, seconds, peak RSS in MB).

    fork and exec rather than posix_spawn or subprocess: a vfork-style child
    starts with the parent's RSS high-water mark, so its rusage would report
    max(parent, child). The rusage comes from this child's own wait4.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execve(argv[0], argv, env)
            finally:
                os._exit(127)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- output checks: each returns None or the reason the output is wrong -----


def check_features(path: Path, rows: int, dim: int) -> Optional[str]:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if header != [str(rows).encode(), str(dim).encode()]:
            return f"feature header {header}, expected {rows} {dim}"
        count = 0
        for count, line in enumerate(fh, start=1):
            if line.count(b" ") != dim or not line.endswith(b"\n"):
                return f"feature row {count} does not hold an id and {dim} values"
    return None if count == rows else f"{count} feature rows, expected {rows}"


def check_ranking(path: Path, queries: list[str], per_query: int) -> Optional[str]:
    """Queries in order, each with ranks 1..per_query; streamed to keep this
    process small (its RSS would otherwise leak into the next child's)."""
    ranks = [str(r).encode() for r in range(1, per_query + 1)]
    with open(path, "rb") as fh:
        for query in queries:
            query = query.encode()
            for rank in ranks:
                fields = fh.readline().split(b"\t")
                if len(fields) != 4 or fields[0] != query or fields[2] != rank:
                    return f"query {query.decode()!r}: expected rank {rank.decode()}, got {fields}"
        if fh.readline():
            return f"more than {len(queries)} x {per_query} ranking lines"
    return None


def check_evaluate(stdout: bytes, report: Path) -> Optional[str]:
    line = stdout.split(b"\n", 1)[0].decode()
    fields = line.split("\t")
    names, values = fields[0::2], fields[1::2]
    if tuple(names) != EVALUATE_METRICS or len(values) != len(names):
        return f"evaluate printed {line!r}"
    if not all(math.isfinite(float(v)) for v in values):
        return f"non-finite metric in {line!r}"
    if report.read_text(encoding="utf-8") != line + "\n":
        return "evaluate --out differs from the printed line"
    return None


def check_listing(stdout: bytes, path: Path, entries: int) -> Optional[str]:
    lines = path.read_bytes().count(b"\n")
    if stdout.strip() != str(entries).encode() or lines != entries:
        return f"build-vocab printed {stdout.strip()!r} and wrote {lines} entries, expected {entries}"
    return None


def check_history(path: Path, epochs: int) -> Optional[str]:
    lines = path.read_bytes().count(b"\n")
    return None if lines == epochs + 1 else f"history has {lines} lines, expected {epochs + 1}"


@dataclass
class Step:
    name: str  # also the traced root span: cli.<name>
    argv: list[str]  # textovision arguments
    output: Path  # the file digested and, for --corrupt, damaged
    check: Callable[[bytes], Optional[str]]  # stdout -> None or reason


@dataclass
class Record:
    seconds: float
    rss_mb: float
    error: Optional[str]


def build_chain(shape: Shape, inputs: Path, out: Path, properties: dict) -> list[Step]:
    inp = {name: str(inputs / name) for name in
           ("frames.feat", "audio.feat", "train.tsv", "val.tsv", "queries.tsv", "truth.tsv")}
    videos, vocab, model = out / "videos.feat", out / "vocab.txt", out / "model.bin"
    encoded, ranking, report, top = (out / "encoded.feat", out / "ranking.tsv",
                                     out / "report.tsv", out / "top.tsv")
    video_ids = [f"v{i:05d}" for i in range(shape.videos)]
    with open(inputs / "queries.tsv", encoding="utf-8") as fh:
        query_ids = [line.split("\t", 1)[0] for line in fh]
    out_dim = VISUAL_DIM + AUDIO_DIM

    steps = [Step("pool", ["pool", "--features", inp["frames.feat"], "--audio", inp["audio.feat"],
                           "--out", str(videos)],
                  videos, lambda _: check_features(videos, shape.videos, out_dim))]
    train = ["train", "--sentences", inp["train.tsv"], "--features", str(videos),
             "--val-sentences", inp["val.tsv"], "--val-features", str(videos),
             "--vectorizer", shape.vectorizer, "--layers", shape.hidden,
             "--max-epochs", str(shape.epochs), "--patience", str(shape.epochs + 1),
             "--seed", "1", "--out", str(model)]
    entries = properties["vocabulary" if shape.vectorizer == "bow" else "trigrams"]
    steps += [
        Step("build-vocab", ["build-vocab", "--sentences", inp["train.tsv"],
                             "--vectorizer", shape.vectorizer, "--out", str(vocab)],
             vocab, lambda so: check_listing(so, vocab, entries)),
        Step("train", train, model,
             lambda _: check_history(Path(f"{model}.history.tsv"), shape.epochs)),
        # encode loads the model just written: this is the reload check
        Step("encode", ["encode", "--model", str(model), "--sentences", inp["queries.tsv"],
                        "--out", str(encoded)],
             encoded, lambda _: check_features(encoded, shape.queries, out_dim)),
        Step("rank", ["rank", "--queries", str(encoded), "--items", str(videos),
                      "--out", str(ranking)],
             ranking, lambda _: check_ranking(ranking, query_ids, shape.videos)),
        Step("evaluate", ["evaluate", "--rankings", str(ranking), "--ground-truth",
                          inp["truth.tsv"], "--out", str(report)],
             report, lambda so: check_evaluate(so, report)),
        Step("rank_top", ["rank", "--queries", str(videos), "--items", str(encoded),
                          "--top", str(TOP_K), "--out", str(top)],
             top, lambda _: check_ranking(top, video_ids, TOP_K)),
    ]
    return steps


def corrupt(path: Path) -> None:
    """Drop the file's last line (for --corrupt: shows that checks catch it)."""
    data = path.read_bytes().rstrip(b"\n")
    path.write_bytes(data[: data.rfind(b"\n") + 1])


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.shape = SHAPES[args.workload]
        self.work = work
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = min(MAX_THREADS, self.nproc)
        # the cap reaches BLAS only through TEXTOVISION_THREADS
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["TEXTOVISION_THREADS"] = str(self.threads)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, Optional[str]] = {}
        self.records: dict[str, list[Record]] = {}  # untraced chains only
        self.setup_times: list[float] = []

    def generate(self, target: Path) -> None:
        """Write the workload's inputs under ``target``, timed as one set-up."""
        shutil.rmtree(target, ignore_errors=True)
        argv = [sys.executable, str(BENCH_DIR / "generate.py"), self.args.workload,
                str(self.args.seed), str(target)]
        code, seconds, _ = spawn(argv, self.env, self.work / "setup.out", self.work / "setup.err")
        if code:
            raise BenchError("input generation failed:\n"
                             + (self.work / "setup.err").read_text(errors="replace"))
        self.setup_times.append(seconds)

    def setup(self) -> None:
        inputs = self.work / "inputs"
        for _ in range(SETUP_REPEATS):
            self.generate(inputs)
        generated = json.loads((self.work / "setup.out").read_text())
        self.properties = generated["properties"]
        self.environment = {
            "nproc": self.nproc, "threads": self.threads,
            "python": sys.version.split()[0], **generated["environment"],
        }
        self.steps = build_chain(self.shape, inputs, self.work / "out", self.properties)
        self.goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        self.golden = self.goldens.get(self.golden_key(), {}).get(self.args.workload, {}).get(
            str(self.args.seed), {})

    def golden_key(self) -> str:
        env = self.environment
        return f"threads={env['threads']} numpy={env['numpy']} blas={env['blas_config']}"

    def record_golden(self) -> None:
        by_seed = self.goldens.setdefault(self.golden_key(), {}).setdefault(self.args.workload, {})
        by_seed[str(self.args.seed)] = dict(self.reference)
        GOLDEN_PATH.write_text(json.dumps(self.goldens, indent=1, sort_keys=True) + "\n")

    def warm_up(self) -> None:
        """Import every layer module once, so that bytecode is compiled and
        the libraries are in the page cache before the first timed command."""
        code = "import " + ", ".join(f"textovision.{layer}" for layer in LAYERS)
        status, _, _ = spawn([sys.executable, "-c", code], self.env,
                             self.work / "warmup.out", self.work / "warmup.err")
        if status:
            raise BenchError("importing textovision failed:\n"
                             + (self.work / "warmup.err").read_text(errors="replace"))

    def run_chain(self, traced: bool) -> dict[str, Record]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        records = {}
        for step in self.steps:
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                        str(out / f"{step.name}.spans.json"), step.name, "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "textovision", *step.argv]
            stdout, stderr = out / f"{step.name}.stdout", out / f"{step.name}.stderr"
            code, seconds, rss = spawn(argv, self.env, stdout, stderr)
            if step.name == self.args.corrupt and step.output.exists():
                corrupt(step.output)
            if code:
                error = f"exit code {code}: {stderr.read_text(errors='replace').strip()[-300:]}"
            else:
                error = step.check(stdout.read_bytes())
            digest = sha256(step.output) if step.output.exists() else None
            reference = self.reference.setdefault(step.name, digest)
            golden = self.golden.get(step.name)
            if error is None and digest != reference:
                error = "output differs from the first chain's"
            elif error is None and golden is not None and digest != golden:
                error = "output differs from the digest recorded in golden.json"
            self.attempted += 1
            if error:
                self.failures.append(f"{step.name}: {error}")
            records[step.name] = Record(seconds, rss, error)
            if not traced:
                self.records.setdefault(step.name, []).append(records[step.name])
        return records

    def chain_spans(self) -> list:
        spans = []
        for step in self.steps:
            path = self.work / "out" / f"{step.name}.spans.json"
            if path.exists():
                spans.append(json.loads(path.read_text()))
        return spans

    def chain_metrics(self, records: dict[str, Record]) -> dict[str, float]:
        seconds = {name: r.seconds for name, r in records.items()}
        return {
            "wall_s": sum(seconds.values()),
            "train_s": seconds["train"],
            "encode_sentences_per_s": self.shape.queries / seconds["encode"],
            "pool_s": seconds["pool"],
            "rank_queries_per_s": self.shape.queries / seconds["rank"],
            "rank_top_queries_per_s": self.shape.videos / seconds["rank_top"],
            "evaluate_s": seconds["evaluate"],
            "peak_rss_mb": max(r.rss_mb for r in records.values()),
        }

    def measure(self) -> tuple[list[dict], list[dict]]:
        """Closed loop for --seconds: a new chain (or, traced, an untraced
        and traced pair in alternating order) starts only if the last one
        would still fit."""
        untraced, traced = [], []
        self.warm_up()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if self.args.trace:
                order = (False, True) if len(traced) % 2 == 0 else (True, False)
                for is_traced in order:
                    records = self.run_chain(is_traced)
                    if is_traced:
                        traced.append({**summarize(self.chain_spans()),
                                       "wall_s": self.chain_metrics(records)["wall_s"]})
                    else:
                        untraced.append(self.chain_metrics(records))
            else:
                untraced.append(self.chain_metrics(self.run_chain(False)))
            now = time.perf_counter()
            if now - start + (now - began) > self.args.seconds:
                return untraced, traced


def median_of(rows: list[dict], name: str) -> float:
    """The median over chains: on a shared two-core VM, CPU speed shifts in
    phases of seconds, and the median of chains spread over the whole run
    moves less from run to run than the best chain does."""
    return statistics.median(row.get(name, 0.0) for row in rows)


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=STEPS,
                        help="damage this step's output after it runs, to show the checks fail")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's output digests in golden.json")
    return parser.parse_args(argv)


def report(bench: Bench, spec: dict, metrics: dict, section: str) -> None:
    args, env = bench.args, bench.environment
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {why}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("  inputs: " + ", ".join(f"{k} {v}" for k, v in bench.properties.items()))
    print(f"  setup: {len(bench.setup_times)} runs, median"
          f" {statistics.median(bench.setup_times):.4f} s")
    chains = len(bench.records["pool"])
    print(f"  {chains} untraced chains; per command: fastest s, median s, max peak RSS MB,"
          " failed/attempted")
    for name, records in bench.records.items():
        seconds = [r.seconds for r in records]
        failed = sum(r.error is not None for r in records)
        print(f"    {name:12s} {min(seconds):9.4f} {statistics.median(seconds):9.4f}"
              f" {max(r.rss_mb for r in records):9.1f}  {failed}/{len(records)}")
    print(f"  failed_ops_ratio {len(bench.failures) / bench.attempted:.4f}"
          f" ({len(bench.failures)} of {bench.attempted} commands)")
    for failure in bench.failures[:10]:
        print(f"    FAILED {failure}")
    golden = "checked" if bench.golden else "none recorded"
    print(f"  golden digests for this seed and environment: {golden}")
    print(f"  {section} metrics:")
    units = {m["name"]: m for m in spec[section]}
    for name, value in metrics.items():
        m = units[name]
        bound = f", bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"    {name:36s} {value:14.6g} {m['unit']:6s} ({m['better']} is better{bound})")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "textovision" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: no textovision checkout at {ROOT} (src/textovision and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        try:
            bench.setup()
            untraced, traced = bench.measure()
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        setup_s = statistics.median(bench.setup_times)

        if args.trace:
            section = "per_layer"
            metrics = {m["name"]: median_of(traced, m["name"]) for m in spec[section]}
            metrics["trace.overhead_ratio"] = (median_of(traced, "wall_s")
                                               / median_of(untraced, "wall_s"))
            metrics["failed_ops_ratio"] = len(bench.failures) / bench.attempted
        else:
            section = "end_to_end"
            metrics = {m["name"]: median_of(untraced, m["name"]) for m in spec[section]}
            metrics["setup_s"] = setup_s

        if args.record_golden and not bench.failures:
            bench.record_golden()

        report(bench, spec, metrics, section)
        units = {m["name"]: m["unit"] for m in spec[section]}
        print(json.dumps({
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
