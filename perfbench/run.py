"""End-to-end and per-layer benchmark of the sentpop pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload topics-wide [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Each stage runs as its own ``python3 -m sentpop.cli <stage>`` process, as a
user or a Makefile would run it, with ``src`` on ``PYTHONPATH``. A run
generates the workload's corpus from ``--seed`` and repeats the analysis
pipeline (ingest to evaluate) in a fresh output directory until ``--seconds``
are used, checking every repetition's outputs. Between repetitions it
generates the corpus again (for ``setup_s``) whenever set-up has had less
than ``SETUP_SHARE`` of the run so far. ``--trace 1`` alternates untraced
repetitions with repetitions whose stages run under ``trace_stage.py`` and
reports the per-layer metrics named in ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
STAGE_TIMEOUT_S = 150.0
STARTUP_PROBES = 5
MIN_REPS = 2  # untraced repetitions per run, however short --seconds is
SETUPS = 3  # least synth runs per untraced run; setup_s is their median
SETUP_SHARE = 0.15  # share of an untraced run spent on further synth runs


@dataclass(frozen=True)
class Workload:
    why: str
    seed: int  # default seed
    held_out_seed: int  # confirms a gain on a seed not used while writing it
    synth: tuple[str, ...]
    gaps: str
    trains: tuple[tuple[str, ...], ...]  # one train/evaluate pair per predictor


WORKLOADS = {
    "topics-wide": Workload(
        why="100 topics over a 200-user, 3,000-edge community: sentiment and energy "
            "take nearly half of pipeline_s",
        seed=5,
        held_out_seed=105,
        synth=("--n-users", "200", "--edge-density", "0.15", "--n-topics", "100",
               "--tweets-per-user", "20", "--emoticon-rate", "1.0", "--planted", "linear",
               "--alpha", "0.5", "--beta", "150", "--noise-sigma", "0.1", "--max-depth", "4"),
        gaps="1,10",
        trains=(("--predictor", "linear"),
                ("--predictor", "edge", "--eta", "0.0005", "--epochs", "50")),
    ),
    "train-edge": Workload(
        why="20 users, 50 edges and 2,000 epochs of per-sample SGD: training is half of "
            "pipeline_s and two thirds of retrain_s",
        seed=33,
        held_out_seed=133,
        synth=("--n-users", "20", "--edge-density", "0.27", "--n-topics", "100",
               "--tweets-per-user", "60", "--planted", "edge-weights",
               "--weight-range", "0.5,3", "--rho", "100", "--noise-sigma", "0.02"),
        gaps="1",
        trains=(("--predictor", "edge", "--eta", "0.001", "--epochs", "2000"),
                ("--predictor", "linear")),
    ),
    "corpus-wide": Workload(
        why="1,000 users and 12 topics: corpus parsing is the largest layer, a fifth of "
            "pipeline_s",
        seed=11,
        held_out_seed=111,
        synth=("--n-users", "1000", "--edge-density", "0.005", "--n-topics", "12",
               "--tweets-per-user", "30", "--emoticon-rate", "0.1", "--planted", "linear",
               "--alpha", "0.5", "--beta", "400", "--noise-sigma", "0.1",
               "--max-depth", "8"),
        gaps="1,10",
        trains=(("--predictor", "linear"),
                ("--predictor", "edge", "--eta", "0.0005", "--epochs", "50")),
    ),
    # the criterion-8 corpus; used by smoke.py, not listed in BENCHMARK.json
    "smoke": Workload(
        why="tiny corpus for the benchmark's own smoke test",
        seed=2024,
        held_out_seed=2025,
        synth=("--n-users", "500", "--edge-density", "0.012", "--n-topics", "40",
               "--tweets-per-user", "18", "--emoticon-rate", "0.8", "--planted", "linear",
               "--alpha", "1.8", "--beta", "175", "--noise-sigma", "0.1"),
        gaps="1,5,10",
        trains=(("--predictor", "linear", "--seed", "3"),),
    ),
}
STAGES = ("synth", "ingest", "graph", "topics", "sentiment", "energy", "correlate",
          "train", "evaluate")
RETRAIN_STAGES = ("train", "evaluate")
# counts that must repeat exactly across traced runs of the same code and seed
COUNT_METRICS = (
    "corpus.tweets_parsed", "corpus.stream_passes", "manifest.bytes_digested",
    "manifest.digests_per_input", "graph.community_edges", "topics.catalog_topics",
    "sentiment.vectors_calls", "sentiment.nonzero_vectors", "energy.per_edge_calls",
    "predictor.sgd_steps", "predictor.epochs_run", "stats.pearson_calls", "io.bytes_written",
)


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "tweets_per_s":
        return "tweets/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.startswith("us_per_") or "_us_per_" in leaf:
        return "us"
    if leaf.startswith("bytes"):
        return "bytes"
    if leaf in ("digests_per_input", "fail_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    stage: str
    wall_s: float
    rss_mb: float
    ok: bool


def run_process(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run ``argv`` to completion; return wall seconds, peak RSS in MB and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Checks:
    """Operations attempted and failed: stage processes and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.checks = Checks()
        self.procs: list[Proc] = []
        self.first_digests: dict[str, str] | None = None
        self.synth_digests: dict[str, str] | None = None
        self.expected: dict | None = None
        shutil.rmtree(work, ignore_errors=True)
        (work / "logs").mkdir(parents=True)

    def stage(self, argv: list[str], spans: Path | None = None) -> Proc:
        stage = argv[0]
        if spans is None:
            cmd = [sys.executable, "-m", "sentpop.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_stage.py"), str(spans), *argv]
        wall, rss, rc = run_process(cmd, self.work, self.work / "logs" / f"{stage}.log")
        proc = Proc(stage, wall, rss, self.checks.record(rc == 0, f"{stage} exited {rc}"))
        self.procs.append(proc)
        return proc

    # ------------------------------------------------------------- set-up

    def synth(self, out: str, spans_dir: Path | None = None) -> Proc:
        shutil.rmtree(self.work / out, ignore_errors=True)
        spans = None
        if spans_dir is not None:
            spans_dir.mkdir(parents=True)
            spans = spans_dir / "00-synth.json"
        proc = self.stage(["synth", "--out", out, "--seed", str(self.seed), *self.wl.synth],
                          spans)
        if proc.ok:
            digests = tree_digests(self.work / out)
            if self.synth_digests is None:
                self.synth_digests = digests
                self.expected = load_expected(self.work / out / "expected.tsv")
            else:
                self.checks.record(digests == self.synth_digests,
                                   f"{out}: synth outputs differ from the first synth")
        return proc

    # ------------------------------------------------------------- pipeline

    def pipeline_argv(self, out: str) -> list[list[str]]:
        p = self.expected["params"]
        window = ",".join(p[k] for k in ("train_start", "train_end", "test_start", "test_end"))
        argvs = [
            ["ingest", "--out", out, "--corpus", "synth/corpus.tsv",
             "--lexicon", "synth/lexicon.tsv", "--window", window],
            ["graph", "--out", out, "--seed-user", p["seed_user"],
             "--max-depth", p["max_depth"]],
            ["topics", "--out", out, "--stopwords", "synth/stopwords.tsv"],
            ["sentiment", "--out", out],
            ["energy", "--out", out],
            ["correlate", "--out", out, "--gaps", self.wl.gaps],
        ]
        for train in self.wl.trains:
            argvs.append(["train", "--out", out, "--gaps", self.wl.gaps, *train])
            argvs.append(["evaluate", "--out", out, "--predictor", train[1]])
        return argvs

    def rep(self, spans_dir: Path | None = None, after_stage=None) -> list[Proc] | None:
        """One pass of every analysis stage; None when a stage failed."""
        out = "rep"
        shutil.rmtree(self.work / out, ignore_errors=True)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True)
        procs = []
        for i, argv in enumerate(self.pipeline_argv(out)):
            spans = None if spans_dir is None else spans_dir / f"{i:02d}-{argv[0]}.json"
            proc = self.stage(argv, spans)
            procs.append(proc)
            if not proc.ok:
                return None
            if after_stage is not None:
                after_stage(argv[0], self.work / out)
        self.check_outputs(self.work / out)
        return procs

    def check_outputs(self, out: Path) -> None:
        exp = self.expected
        energies = {}
        for row in read_rows(out / "energies.tsv"):
            if row[1] == "mrf" and row[2] == "cosine":
                energies[row[0]] = float(row[3])
        catalog = {row[0]: int(row[1]) for row in read_rows(out / "catalog.tsv")}
        self.checks.record(
            bool(catalog) and set(energies) == set(catalog)
            and all(energies[t] == exp["energy"].get(t) for t in catalog),
            "energies.tsv mrf/cosine differs from expected.tsv energy",
        )
        self.checks.record(
            bool(catalog) and all(pop == exp["popularity"].get(t) for t, pop in catalog.items()),
            "catalog popularity differs from expected.tsv popularity",
        )
        digests = tree_digests(out)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.checks.record(digests == self.first_digests,
                               "artifact digests differ from the first repetition")


def tree_digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def read_rows(path: Path) -> list[list[str]]:
    if not path.exists():
        return []
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def load_expected(path: Path) -> dict:
    exp = {"params": {}, "energy": {}, "popularity": {}}
    for row in read_rows(path):
        if row[0] == "param":
            exp["params"][row[1]] = row[2]
        elif row[0] == "topic":
            exp["energy"][row[1]] = float(row[2])
            exp["popularity"][row[1]] = int(row[4])
    return exp


# ---------------------------------------------------------------- spans


def layer_metrics(spans_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (analysis stages, or synth alone)."""
    busy: dict[tuple[str, str], float] = {}  # (stage, name) -> time minus lazy parsing
    calls: dict[tuple[str, str], int] = {}
    attrs: dict[str, float] = {}
    self_time: dict[tuple[str, str], float] = {}
    input_digests = 0
    inputs_read = 0
    for path in sorted(spans_dir.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        stage, spans = rec["stage"], rec["spans"]
        child = [0.0] * len(spans)  # time of wrapped children, spans and tallies
        parse = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for name, parent, n, b in rec["tallies"]:
            key = (stage, name)
            calls[key] = calls.get(key, 0) + n
            busy[key] = busy.get(key, 0.0) + b
            if parent >= 0:
                child[parent] += b
                if name == "corpus.parse_tweet_line":
                    parse[parent] += b
        paths = set()
        for i, (name, start, end, parent, extra) in enumerate(spans):
            key = (stage, name)
            calls[key] = calls.get(key, 0) + 1
            busy[key] = busy.get(key, 0.0) + (end - start) - parse[i]
            self_time[key] = self_time.get(key, 0.0) + (end - start) - child[i]
            for k, v in (extra or {}).items():
                if k != "path":
                    attrs[f"{stage}:{name}.{k}"] = attrs.get(f"{stage}:{name}.{k}", 0) + v
            if name == "manifest.file_digest" and (
                    parent < 0 or spans[parent][0] != "cli.out_meta"):
                input_digests += 1
                paths.add(extra["path"])
        inputs_read += len(paths)
    stages = {s for s, _ in busy}

    def t(name, only=None):
        return sum(v for (s, n), v in busy.items() if n == name and s in (only or stages))

    def c(name, only=None):
        return sum(v for (s, n), v in calls.items() if n == name and s in (only or stages))

    def a(name, key):
        return sum(v for k, v in attrs.items() if k.split(":", 1)[1] == f"{name}.{key}")

    if stages == {"synth"}:
        return {
            "synth.generate_s": t("synth.generate"),
            "synth.self_s": self_time.get(("synth", "synth.generate"), 0.0),
            "synth.sentiment_s": t("sentiment.community_topic_vectors"),
            "synth.energy_s": t("energy.per_edge_energies"),
            "synth.parse_s": t("corpus.parse_tweet_line"),
        }
    parsed = c("corpus.parse_tweet_line")
    steps = c("predictor.sgd_step")
    io_names = [n for _, n in busy if n.startswith("io.")]
    m = {
        "cli.self_s": sum(v for (_, n), v in self_time.items() if n.startswith("cli.")),
        "corpus.parse_s": t("corpus.parse_tweet_line"),
        "corpus.tweets_parsed": parsed,
        "corpus.parse_us_per_tweet": 1e6 * t("corpus.parse_tweet_line") / max(parsed, 1),
        "corpus.stream_passes": c("corpus.stream_corpus"),
        "manifest.digest_s": t("manifest.file_digest"),
        "manifest.bytes_digested": a("manifest.file_digest", "bytes"),
        "manifest.digests_per_input": input_digests / max(inputs_read, 1),
        "graph.build_s": t("graph.build_graph"),
        "graph.extract_s": t("graph.extract_community"),
        "graph.community_edges": a("graph.extract_community", "edges"),
        "topics.extract_s": t("topics.extract_topics"),
        "topics.key_phrases_s": t("topics.extract_key_phrases"),
        "topics.catalog_topics": a("io.save_catalog", "rows"),
        "sentiment.vectors_s": t("sentiment.community_topic_vectors"),
        "sentiment.vectors_calls": c("sentiment.community_topic_vectors"),
        "sentiment.nonzero_vectors": a("sentiment.community_topic_vectors", "nonzero"),
        "sentiment.us_per_member_topic": 1e6 * t("sentiment.community_topic_vectors")
        / max(a("sentiment.community_topic_vectors", "members"), 1),
        "energy.per_edge_s": t("energy.per_edge_energies"),
        "energy.per_edge_calls": c("energy.per_edge_energies"),
        "energy.us_per_edge_topic": 1e6 * t("energy.per_edge_energies")
        / max(a("energy.per_edge_energies", "edges"), 1),
        "predictor.make_samples_s": t("predictor.make_samples"),
        "predictor.train_s": t("predictor.train"),
        "predictor.sgd_steps": steps,
        "predictor.us_per_sgd_step": 1e6 * t("predictor.sgd_step") / max(steps, 1),
        "predictor.epochs_run": a("predictor.train", "epochs"),
        "predictor.evaluate_s": t("predictor.evaluate"),
        "stats.pearson_s": t("stats.pearson"),
        "stats.pearson_calls": c("stats.pearson"),
        "io.write_s": sum(t(n) for n in set(io_names)),
        "io.bytes_written": sum(a(n, "bytes") for n in set(io_names)),
    }
    return m


# ---------------------------------------------------------------- runs


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> str:
    """Median plus the highest of p99.9, p99 and p90 with ten samples above it.

    With fewer than 100 samples no such percentile exists; the maximum is
    reported instead.
    """
    n = len(values)
    text = f"median {median(values):.4f} (n={n}"
    for pct, q in ((99.9, 1000), (99, 100), (90, 10)):
        if n * (100 - pct) / 100 >= 10:
            text += f", p{pct:g} {statistics.quantiles(values, n=q)[-1]:.4f}"
            break
    else:
        if values:
            text += f", max {max(values):.4f}"
    return text + ")"


def summed_medians(reps: list[list[Proc]], stages=STAGES) -> float:
    """Sum over the pipeline's processes of each one's median wall time.

    A burst of host contention during one process of one repetition moves
    this less than it moves the median of whole-repetition sums.
    """
    if not reps:
        return 0.0
    return sum(
        median([r[i].wall_s for r in reps])
        for i, proc in enumerate(reps[0]) if proc.stage in stages
    )


def per_stage(reps: list[list[Proc]], field: str = "wall_s", combine=sum) -> dict:
    """Per stage, one value per repetition: ``field`` combined over its processes."""
    out: dict[str, list[float]] = {}
    for procs in reps:
        per: dict[str, list[float]] = {}
        for p in procs:
            per.setdefault(p.stage, []).append(getattr(p, field))
        for stage, values in per.items():
            out.setdefault(stage, []).append(combine(values))
    return out


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                 timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src") if commit else None
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
        "code_sha256": code_digest(),
    }


def warm_up(bench: Bench) -> None:
    """Import the package once so later processes find compiled bytecode."""
    run_process([sys.executable, "-c", "import sentpop.cli"], bench.work,
                bench.work / "logs" / "warmup.log")


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    warm_up(bench)
    start = perf_counter()
    setups = [bench.synth("synth")]
    if not setups[0].ok:
        return {}, {}
    reps: list[list[Proc]] = []
    while True:
        cycle_start = perf_counter()
        procs = bench.rep()
        if procs is None:
            break
        reps.append(procs)
        rep_s = perf_counter() - cycle_start
        # set-up keeps about SETUP_SHARE of the time so far, so its samples
        # span the run's changes in host speed as the pipeline samples do
        while sum(p.wall_s for p in setups) < SETUP_SHARE * (perf_counter() - start):
            setups.append(bench.synth("synth"))
        due = max(0, SETUPS - len(setups)) * median([p.wall_s for p in setups])
        if len(reps) >= MIN_REPS and perf_counter() - start + rep_s + due > seconds:
            break
    while len(setups) < SETUPS:
        setups.append(bench.synth("synth"))
    pipeline = [sum(p.wall_s for p in r) for r in reps]
    retrain = [sum(p.wall_s for p in r if p.stage in RETRAIN_STAGES) for r in reps]
    setup = [p.wall_s for p in setups]
    n_tweets = int(bench.expected["params"]["n_train_tweets"]) + int(
        bench.expected["params"]["n_test_tweets"])
    pipeline_s = summed_medians(reps)
    metrics = {
        "pipeline_s": pipeline_s,
        "setup_s": median(setup),
        "retrain_s": summed_medians(reps, RETRAIN_STAGES),
        "tweets_per_s": n_tweets / pipeline_s if pipeline_s else 0.0,
        "peak_rss_mb": max(p.rss_mb for p in bench.procs),
    }
    detail = {
        "tweets": n_tweets,
        "per_rep_pipeline_s": tail(pipeline),
        "setup_s": tail(setup),
        "per_rep_retrain_s": tail(retrain),
        "stages_s": {s: tail(v) for s, v in per_stage(reps).items()},
    }
    return metrics, detail


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    warm_up(bench)
    probes = [run_process([sys.executable, "-c", "import sentpop.cli"], bench.work,
                          bench.work / "logs" / "startup.log") for _ in range(STARTUP_PROBES)]
    start = perf_counter()
    synth = bench.synth("synth")
    if not synth.ok or not bench.synth("synth", bench.work / "spans" / "synth").ok:
        return {}, {}
    synth_layers = layer_metrics(bench.work / "spans" / "synth")
    plain: list[list[Proc]] = []
    traced: list[list[Proc]] = []
    layers: list[dict] = []
    while True:
        pair_start = perf_counter()
        procs = bench.rep()
        if procs is None:
            break
        plain.append(procs)
        spans_dir = bench.work / "spans" / f"rep{len(traced)}"
        procs = bench.rep(spans_dir)
        if procs is None:
            break
        traced.append(procs)
        layers.append(layer_metrics(spans_dir))
        now = perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    if not layers:
        return {}, {}
    counts = {k: layers[0][k] for k in COUNT_METRICS}
    for i, other in enumerate(layers[1:], start=1):
        bench.checks.record(all(other[k] == counts[k] for k in COUNT_METRICS),
                            f"traced repetition {i}: counts differ from repetition 0")
    check_counts_across_runs(bench, counts)

    metrics: dict[str, float] = {}
    walls = per_stage(plain)
    rss = per_stage(plain, "rss_mb", max)
    walls["synth"], rss["synth"] = [synth.wall_s], [synth.rss_mb]
    for stage in STAGES:
        metrics[f"cli.{stage}_s"] = median(walls[stage])
        metrics[f"cli.{stage}.rss_mb"] = median(rss[stage])
    metrics["cli.startup_s"] = median([wall for wall, _, _ in probes])
    for key in layers[0]:
        metrics[key] = median([m[key] for m in layers])
    metrics.update(synth_layers)
    untraced_s = summed_medians(plain)
    traced_s = summed_medians(traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    detail = {
        "untraced_pipeline_s": tail([sum(p.wall_s for p in r) for r in plain]),
        "traced_pipeline_s": tail([sum(p.wall_s for p in r) for r in traced]),
        "tracing_overhead_s": traced_s - untraced_s,
        "counts": counts,
    }
    return metrics, detail


def check_counts_across_runs(bench: Bench, counts: dict) -> None:
    """Compare counts with an earlier traced run of the same code and seed."""
    store = WORK / "counts"
    store.mkdir(parents=True, exist_ok=True)
    key = f"{bench.name}-seed{bench.seed}-{code_digest()[:16]}.json"
    path = store / key
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        differ = [k for k in COUNT_METRICS if earlier.get(k) != counts[k]]
        bench.checks.record(not differ, f"counts differ from an earlier run: {differ}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def code_digest() -> str:
    """SHA-256 over the program's and this benchmark's Python sources."""
    h = hashlib.sha256()
    for p in sorted((SRC / "sentpop").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    bench = Bench(name, seed, WORK / name)
    started = perf_counter()
    if trace:
        metrics, detail = run_traced(bench, seconds)
    else:
        metrics, detail = run_untraced(bench, seconds)
    fail_ratio = bench.checks.failed / max(bench.checks.attempted, 1)
    if trace:
        metrics["fail_ratio"] = fail_ratio
    record = {
        "workload": name,
        "seed": seed,
        "held_out_seed": bench.wl.held_out_seed,
        "trace": trace,
        "seconds": seconds,
        "run_wall_s": perf_counter() - started,
        "machine": machine_record(),
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "failures": bench.checks.failures,
        "fail_ratio": fail_ratio,
        "detail": detail,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']} seed {record['seed']} (held-out seed "
          f"{record['held_out_seed']}) trace {record['trace']}: "
          f"{record['attempted'] - record['failed']}/{record['attempted']} operations ok, "
          f"fail_ratio {record['fail_ratio']:.4g}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    print(f"   machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"   detail: {json.dumps(record['detail'], sort_keys=True)}")
    for name, value in record["metrics"].items():
        print(f"   {name:32s} {value:14.6f} {unit_of(name)}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0 and bool(record["metrics"]),
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] if record["attempted"] else 1,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()},
    }


def benchmarked() -> list[str]:
    """The workloads ``BENCHMARK.json`` lists; ``--workload all`` runs these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's own seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on set-up and repetitions of the analysis pipeline")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sentpop" / "cli.py").is_file():
        print(f"error: no sentpop source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = {}
        for name in benchmarked():
            for trace in (0, 1):
                record = run_workload(name, WORKLOADS[name].seed, args.seconds, trace)
                report(record)
                summary[f"{name}/trace{trace}"] = result_line(record)
        print(json.dumps(summary, sort_keys=True))
        return 0
    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
    record = run_workload(args.workload, seed, args.seconds, args.trace)
    report(record)
    print(json.dumps(result_line(record), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
