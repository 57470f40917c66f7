"""Pipeline CLI: composable stages with persisted TSV artifacts.

Stages write their outputs under ``--out`` and append to a run manifest that
records flag values, input digests and output digests. Later stages verify
the digests of everything they read, so a stale or hand-edited intermediate
stops the pipeline with the mismatch named. All randomness (splits, SGD
sample order, generation) flows from explicit ``--seed`` flags recorded in the
manifest.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import NoReturn

from . import __version__
from .corpus import (
    CorpusWindow,
    TopicFields,
    checked_records,
    format_tweet_fields,
    graph_fields,
    is_integer,
    load_lexicon,
    read_normalized,
    save_lexicon,
    sentiment_fields,
    topic_fields,
)
# Not called here: perfbench/trace_stage.py wraps them where this module binds them.
from .corpus import format_tweet_line, parse_tweet_line, stream_corpus  # noqa: F401
from .manifest import RunManifest, StaleArtifactError, atomic_write, file_digest, read_rows
from .manifest import write_lines as _write_lines

# The names each command uses from the other modules are bound into this
# module's globals by main, before it dispatches, so that a stage process
# imports only the modules its command needs. A name is bound on its first
# access as an attribute too (``__getattr__``), which is how
# perfbench/trace_stage.py finds and wraps it; binding keeps a name already
# bound, so main leaves its wrappers in place. community_topic_vectors and
# group_tweets_by_user are not called here: they are bound because the tracer
# wraps them where callers look them up. predictor and synth are used as modules.
_NAMES = {
    "energy": (
        "EnergyFunction",
        "EnergyModel",
        "community_energy",
        "load_energy_report",
        "save_energy_report",
    ),
    "graph": ("build_graph", "community_from_edge_list", "extract_community", "save_edge_list"),
    "predictor": (),
    "sentiment": (
        "catalog_vectors",
        "community_topic_vectors",
        "group_tweets_by_user",
        "load_vectors",
        "save_vectors",
    ),
    "stats": ("classify_strength", "pearson"),
    "synth": (),
    "topics": (
        "attach_key_phrases",
        "dedupe_equal_popularity",
        "extract_key_phrases",
        "extract_topics",
        "first_month_end",
        "gap_filter",
        "load_catalog",
        "load_stopwords",
        "save_catalog",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in (module, *names)}


def _bind(module_name: str) -> None:
    """Import ``module_name`` and bind it and its names here, keeping names already bound."""
    module = importlib.import_module(f"{__package__}.{module_name}")
    names = globals()
    names.setdefault(module_name, module)
    for name in _NAMES[module_name]:
        names.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module_name)
    return globals()[name]


NORMALIZED_CORPUS = "corpus_normalized.tsv"
NORMALIZED_LEXICON = "lexicon_normalized.tsv"
GRAPH_FILE = "graph.tsv"
COMMUNITY_FILE = "community.tsv"
CATALOG_FILE = "catalog.tsv"
VECTORS_FILE = "vectors.tsv"
ENERGIES_FILE = "energies.tsv"
CORRELATION_FILE = "correlation.tsv"
MANIFEST_FILE = "manifest.json"

def _out_meta(path: Path, rows: int) -> dict:
    return {"digest": file_digest(path), "rows": rows}


def _csv_ints(text: str, flag: str) -> list[int]:
    """The integers of ``flag``'s comma list, spelled as timestamps; an error names both."""
    items = text.split(",")
    if not any(items):
        return []  # "" and "," list nothing: the caller says what it needed
    for item in items:
        if not item:
            raise ValueError(f"{flag} has an empty item: {text!r}")
        if not is_integer(item):
            raise ValueError(f"{flag} lists {item!r}, which is not an integer")
    return [int(item) for item in items]


def _distinct(gaps: list[int]) -> list[int]:
    """``gaps`` if it names each gap once, as flag and record must: a gap is one dataset."""
    for gap in gaps:
        if gaps.count(gap) > 1:
            raise ValueError(f"--gaps lists gap {gap} more than once")
    return gaps


def _gaps(args, manifest) -> dict:
    """The ``--gaps`` list, which must name some gap and each once."""
    gaps = _csv_ints(args.gaps, "--gaps")
    if not gaps:
        raise ValueError(f"--gaps lists no gap: {args.gaps!r}")
    return {"gaps": _distinct(gaps)}


def _window(args, manifest) -> dict:
    bounds = _csv_ints(args.window, "--window")
    if len(bounds) != 4:
        raise ValueError("--window needs train_start,train_end,test_start,test_end")
    return {"window": bounds}


def _ints(value) -> list[int]:
    """A recorded non-empty list of integers, as ``--gaps`` and ``--window`` record theirs."""
    if isinstance(value, list) and value and all(type(v) is int for v in value):
        return value
    raise ValueError(value)


def _user(value) -> str:
    if isinstance(value, str) and value:
        return value
    raise ValueError(value)


def _recorded_window(manifest) -> CorpusWindow:
    return manifest.recorded("ingest", "window", lambda bounds: CorpusWindow(*_ints(bounds)))


def _first_month_end(args, manifest) -> dict:
    return {"first_month_end": first_month_end(_recorded_window(manifest))}


def _trained_gaps(args, manifest) -> dict:
    # every gap train recorded; the split file, verified against that record,
    # holds test topics for each, since train kept at least 4 topics per gap
    gaps = manifest.recorded(f"train:{args.predictor}", "gaps", lambda v: _distinct(_ints(v)))
    return {"gaps": gaps}


class Stage:
    """The manifest bookkeeping of one command run on ``--out``.

    A command verifies each file it reads through :meth:`read` and writes each
    artifact through :meth:`write`; main then calls :meth:`record`, which stores
    its config with the digests it verified and wrote. The module's helpers
    (``_out_meta``, ``_write_lines``, ``load_*``...) are looked up as globals
    when called, so ``perfbench/trace_stage.py`` sees every call it wraps.
    """

    def __init__(self, out: str | Path):
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest.load(self.out / MANIFEST_FILE, version=__version__)
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, dict] = {}

    def read(self, path_or_name: str | Path) -> Path:
        """Verify an artifact of the run (by name) or an outside file (by ``Path``).

        An artifact must have a record; an outside file, which only this stage
        reads, needs none. The digest that was checked is the one the stage
        records for it. Returns the path.
        """
        required = isinstance(path_or_name, str)
        path = self.out / path_or_name if required else path_or_name
        self.inputs[str(path)] = self.manifest.verify_input(path, required)
        return path

    def write(self, name: str, save, data) -> int:
        """Write ``out/name`` atomically as ``save(data, path)``; return its row count."""
        path = self.out / name
        rows = atomic_write(lambda tmp: save(data, tmp), path)
        self.outputs[str(path)] = _out_meta(path, rows)
        return rows

    def record(self, args) -> None:
        """Record the stage as ``command`` or ``command:predictor``; its config is the
        flags as parsed, updated with the values that main resolved before it ran."""
        config = {k: v for k, v in vars(args).items() if k not in ("out", "command")}
        name = f"{args.command}:{args.predictor}" if "predictor" in config else args.command
        self.manifest.record_stage(name, config, self.inputs, self.outputs)

    def corpus(self):
        """The normalized corpus path and the window that ``ingest`` recorded."""
        window = _recorded_window(self.manifest)  # first: a missing record names its stage
        return self.read(NORMALIZED_CORPUS), window

    def features(self, vectors: bool = True):
        """The community, the catalog and (if ``vectors``) the vectors by topic, else None."""
        seed = self.manifest.recorded("graph", "seed_user", _user)
        community = community_from_edge_list(self.read(COMMUNITY_FILE), seed)
        catalog = load_catalog(self.read(CATALOG_FILE))
        vectors_by_topic = load_vectors(self.read(VECTORS_FILE)) if vectors else None
        return community, catalog, vectors_by_topic

    def samples(self, kind: str, function: EnergyFunction):
        """The catalog and a function that makes ``kind``'s samples of some of its topics.

        The edge model's samples need every per-edge energy, computed from the
        community and the vectors. The linear model's one feature is the sum
        of those, which the ``energy`` stage wrote to energies.tsv as the mrf
        row of ``function``, so it reads that row of each topic instead.
        """
        if kind == "edge":
            community, catalog, vectors_by_topic = self.features()
            return catalog, lambda topics: predictor.make_samples(
                community, vectors_by_topic, topics, function
            )
        catalog, (energies,) = self.energies([(EnergyModel.MRF, function)])
        return catalog, lambda topics: predictor.energy_samples(energies, topics)

    def energies(self, combos):
        """The catalog, and for each (model, function) of ``combos`` the energy by topic.

        The ``energy`` stage writes every pair's row for each topic, so a missing one is stale.
        """
        catalog = load_catalog(self.read(CATALOG_FILE))
        columns = {combo: {} for combo in combos}
        for e in load_energy_report(self.read(ENERGIES_FILE)):
            if (e.model, e.function) in columns:
                columns[e.model, e.function][e.topic] = e.value
        for (model, function), column in columns.items():
            missing = next((t.hashtag for t in catalog if t.hashtag not in column), None)
            if missing is not None:
                raise StaleArtifactError(
                    f"{ENERGIES_FILE} has no {model.value}/{function.value} row for topic "
                    f"{missing!r}; rerun energy"
                )
        return catalog, list(columns.values())


def cmd_synth(stage: Stage, args) -> None:
    if args.planted == "linear":
        planted = synth.PlantedLinear(
            alpha=args.alpha, beta=args.beta, noise_sigma=args.noise_sigma
        )
    elif args.planted == "edge-weights":
        try:
            lo, hi = (float(v) for v in args.weight_range.split(","))
        except ValueError:
            raise ValueError(f"--weight-range needs lo,hi: {args.weight_range!r}") from None
        planted = synth.PlantedEdgeWeights(
            weight_lo=lo, weight_hi=hi, rho=args.rho, noise_sigma=args.noise_sigma
        )
    else:
        planted = None
    config = synth.SynthConfig(
        rng_seed=args.seed,
        n_users=args.n_users,
        edge_density=args.edge_density,
        n_topics=args.n_topics,
        m=args.m,
        emoticon_rate=args.emoticon_rate,
        planted=planted,
        tweets_per_user=args.tweets_per_user,
        max_depth=args.max_depth,
    )
    gen = synth.generate(config, stage.out)
    n_rows = gen.n_train_tweets + gen.n_test_tweets
    for path, rows in gen.rows.items():
        stage.outputs[str(path)] = _out_meta(path, rows)
    print(f"synth: {n_rows} tweets -> {gen.corpus_path}")
    print(
        "synth: window "
        f"{gen.window.train_start},{gen.window.train_end},"
        f"{gen.window.test_start},{gen.window.test_end} seed-user {gen.seed_user}"
    )
    print(f"synth: popularity - exact_target at most {gen.max_popularity_shift:.4g}")


def cmd_ingest(stage: Stage, args) -> None:
    window = CorpusWindow(*args.window)
    lexicon = load_lexicon(args.lexicon)
    dropped = 0

    def kept() -> Iterator[str]:
        """The normalized lines in the window, written as they are checked."""
        nonlocal dropped
        for fields in checked_records(args.corpus):
            if window.contains(fields[2], "all"):
                yield format_tweet_fields(*fields)
            else:
                dropped += 1
        # A file that a stage wrote (synth) must still match its record, so
        # that every recorded input was read under its writer's digest. This
        # runs after the last line and before the rename, so a stale input,
        # like a malformed line, leaves the earlier artifact in place.
        stage.read(Path(args.corpus))
        stage.read(Path(args.lexicon))

    rows = stage.write(NORMALIZED_CORPUS, _write_lines, kept())
    # sentiment reads the lexicon from the run, as the later stages read the corpus
    stage.write(NORMALIZED_LEXICON, save_lexicon, lexicon)
    print(f"ingest: kept {rows} tweets ({dropped} outside window) -> "
          f"{stage.out / NORMALIZED_CORPUS}")


def cmd_graph(stage: Stage, args) -> None:
    corpus_path, window = stage.corpus()
    graph = build_graph(read_normalized(corpus_path, window, "all", graph_fields))
    community = extract_community(graph, args.seed_user, args.max_depth)
    g_rows = stage.write(GRAPH_FILE, save_edge_list, graph.edges)
    c_rows = stage.write(COMMUNITY_FILE, save_edge_list, community.edges)
    print(
        f"graph: {len(graph.nodes)} users, {g_rows} edges; community of "
        f"{args.seed_user!r} at depth {args.max_depth}: "
        f"{len(community.members)} members, {c_rows} edges"
    )


def cmd_topics(stage: Stage, args) -> None:
    corpus_path, window = stage.corpus()
    stopwords = load_stopwords(stage.read(Path(args.stopwords)))
    texts: dict[str, list[str]] = {}  # hashtag -> its tweets' texts, in corpus order

    def test_tweets() -> Iterator[TopicFields]:
        """The test split, once; each text is kept for every distinct hashtag it has."""
        for tweet in read_normalized(corpus_path, window, "test", topic_fields):
            for tag in set(tweet.hashtags):
                texts.setdefault(tag, []).append(tweet.text)
            yield tweet

    topics = dedupe_equal_popularity(
        extract_topics(test_tweets(), args.first_month_end, args.min_popularity)
    )
    topics = [
        attach_key_phrases(
            t, extract_key_phrases(texts[t.hashtag], args.m, stopwords, exclude=t.hashtag)
        )
        for t in topics
    ]
    rows = stage.write(CATALOG_FILE, save_catalog, topics)
    print(f"topics: {rows} topics -> {stage.out / CATALOG_FILE}")


def cmd_sentiment(stage: Stage, args) -> None:
    corpus_path, window = stage.corpus()
    lexicon = load_lexicon(stage.read(NORMALIZED_LEXICON))
    community, catalog, _ = stage.features(vectors=False)
    train_tweets = read_normalized(corpus_path, window, "train", sentiment_fields(lexicon))
    vectors_by_topic = catalog_vectors(community.members, catalog, train_tweets)
    rows = stage.write(VECTORS_FILE, save_vectors, vectors_by_topic)
    print(f"sentiment: {rows} nonzero vectors -> {stage.out / VECTORS_FILE}")


def cmd_energy(stage: Stage, args) -> None:
    community, catalog, vectors_by_topic = stage.features()
    energies = [
        e
        for t in catalog
        for e in community_energy(community, vectors_by_topic.get(t.hashtag, {}), t.hashtag)
    ]
    rows = stage.write(ENERGIES_FILE, save_energy_report, energies)
    print(f"energy: {rows} rows -> {stage.out / ENERGIES_FILE}")


def _gap_topics(catalog, gap: int, needed: int, why: str):
    """The topics of ``gap``'s dataset; fewer than ``needed`` is an error saying ``why``."""
    topics = gap_filter(catalog, gap).topics
    if len(topics) < needed:
        raise ValueError(f"gap {gap} leaves {len(topics)} of {len(catalog)} topics; {why}")
    return topics


def cmd_correlate(stage: Stage, args) -> None:
    # every (model, function) pair, by model then function: str enums sort by value
    combos = sorted((model, function) for model in EnergyModel for function in EnergyFunction)
    catalog, columns = stage.energies(combos)
    lines = []
    for gap in args.gaps:
        topics = _gap_topics(catalog, gap, 3, "a correlation needs 3")
        pops = [float(t.popularity) for t in topics]
        for (model, function), energies in zip(combos, columns):
            r, p = pearson([energies[t.hashtag] for t in topics], pops)
            strength = classify_strength(r)
            lines.append(
                f"{gap}\t{model.value}+{function.value}\t{r!r}\t{p!r}\t{strength.value}"
            )
    rows = stage.write(CORRELATION_FILE, _write_lines, lines)
    print(f"correlate: {rows} rows -> {stage.out / CORRELATION_FILE}")


def _sgd_summary(result: predictor.TrainResult, eta: float) -> str:
    """How SGD stopped (plateau test or epoch cap), and its step-size bound."""
    curve = result.loss_curve
    k = len(curve)
    stop = f"plateau at epoch {k - 1}" if result.plateaued else "epoch cap"
    text = f"{k} epochs ({stop}), final loss {curve[-1]:.6g}"
    if curve[-1] > curve[0]:
        text += f", above the first epoch's {curve[0]:.6g}"
    omega = result.omega_max
    text += f", omega_max {omega:.3g}"
    if omega >= 2.0:
        # omega_max = eta * max(|z|^2 + 1), so this is 2 / max(|z|^2 + 1)
        text += (
            f" (>= 2: steps expand residuals; --eta should be below"
            f" 2/max(|z|^2+1) = {2.0 * eta / omega:.3g})"
        )
    return text


def cmd_train(stage: Stage, args) -> None:
    catalog, samples_of = stage.samples(args.predictor, EnergyFunction(args.function))
    config = predictor.TrainConfig(
        learning_rate=args.eta, epochs=args.epochs, rng_seed=args.seed, stop_tol=args.stop_tol
    )
    split_lines: list[str] = []
    results = []  # every gap trains before any file is written
    for gap in args.gaps:
        # split_train_test holds out half, rounded down, and evaluate scores at least 2
        topics = _gap_topics(catalog, gap, 4, "train needs 4, so that it holds out 2 to evaluate")
        train_topics, test_topics = predictor.split_train_test(topics, args.seed)
        split_lines.extend(f"{gap}\t{t.hashtag}\ttrain" for t in train_topics)
        split_lines.extend(f"{gap}\t{t.hashtag}\ttest" for t in test_topics)
        samples = samples_of(train_topics)
        results.append((gap, len(samples), predictor.train(args.predictor, samples, config)))
    for gap, n_samples, result in results:
        stage.write(f"model_{args.predictor}_gap{gap}.tsv", predictor.save_model, result.model)
        stage.write(
            f"train_log_{args.predictor}_gap{gap}.tsv",
            _write_lines,
            [f"{epoch}\t{value!r}" for epoch, value in enumerate(result.loss_curve)],
        )
        summary = _sgd_summary(result, config.learning_rate)
        print(f"train: gap {gap}: {n_samples} topics, {summary}")
    stage.write(f"splits_{args.predictor}.tsv", _write_lines, split_lines)


def cmd_evaluate(stage: Stage, args) -> None:
    function = stage.manifest.recorded(f"train:{args.predictor}", "function", EnergyFunction)
    catalog, samples_of = stage.samples(args.predictor, function)
    test_tags: dict[int, set[str]] = {}
    for _, (gap_s, tag, role) in read_rows(stage.read(f"splits_{args.predictor}.tsv"), 3, "split"):
        if role == "test":
            test_tags.setdefault(int(gap_s), set()).add(tag)
    results = []  # every gap is scored before any file is written
    for gap in args.gaps:
        model = predictor.load_model(stage.read(f"model_{args.predictor}_gap{gap}.tsv"))
        test_topics = [t for t in catalog if t.hashtag in test_tags[gap]]
        results.append((gap, predictor.evaluate(model, samples_of(test_topics))))
    for gap, result in results:
        stage.write(
            f"residuals_{args.predictor}_gap{gap}.tsv",
            _write_lines,
            [
                f"{tag}\t{actual!r}\t{pred!r}\t{pred - actual!r}"
                for tag, actual, pred in result.residuals
            ],
        )
        verdict = " (worse than predicting the mean)" if result.rse > 1.0 else ""
        print(f"evaluate: gap {gap}: rse {result.rse:.4f} r2 {result.r_squared:.4f}{verdict}")
    lines = [f"{gap}\t{args.predictor}\t{result.rse!r}" for gap, result in results]
    stage.write(f"evaluation_{args.predictor}.tsv", _write_lines, lines)


# Per command: the modules main binds before it runs (ingest needs only corpus
# and manifest), ``resolve(args, manifest)``, the values its record holds
# beyond its flags, and the body that main runs. Reads and writes are not
# listed: the manifest records both for each stage.
_COMMANDS = {
    "synth": (("synth",), lambda args, manifest: {}, cmd_synth),
    "ingest": ((), _window, cmd_ingest),
    "graph": (("graph",), lambda args, manifest: {}, cmd_graph),
    "topics": (("topics",), _first_month_end, cmd_topics),
    "sentiment": (("graph", "topics", "sentiment"), lambda args, manifest: {}, cmd_sentiment),
    "energy": (("graph", "topics", "sentiment", "energy"), lambda args, manifest: {}, cmd_energy),
    "correlate": (("topics", "energy", "stats"), _gaps, cmd_correlate),
    "train": (("graph", "topics", "sentiment", "energy", "predictor"), lambda args, manifest: {
        **_gaps(args, manifest), "stop_tol": predictor.TrainConfig.stop_tol}, cmd_train),
    "evaluate": (("graph", "topics", "sentiment", "energy", "predictor"), _trained_gaps,
                 cmd_evaluate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentpop",
        description="Community sentiment energy and topic popularity pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        return p

    p = add("synth", "generate a synthetic corpus with planted structure")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-users", type=int, default=50)
    p.add_argument("--edge-density", type=float, default=0.1)
    p.add_argument("--n-topics", type=int, default=20)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--emoticon-rate", type=float, default=0.5)
    p.add_argument("--tweets-per-user", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument(
        "--planted", choices=["none", "linear", "edge-weights"], default="none"
    )
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=150.0)
    p.add_argument("--rho", type=float, default=150.0)
    p.add_argument("--weight-range", default="0.5,2.0")
    p.add_argument("--noise-sigma", type=float, default=0.0)

    p = add("ingest", "validate and normalize a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--window", required=True,
                   help="train_start,train_end,test_start,test_end (UTC seconds)")

    p = add("graph", "build the user graph and extract the community")
    p.add_argument("--seed-user", required=True)
    p.add_argument("--max-depth", type=int, default=3)

    p = add("topics", "extract topics, popularity and key phrases")
    p.add_argument("--stopwords", required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--min-popularity", type=int, default=100)

    add("sentiment", "compute per-user topic sentiment vectors")

    add("energy", "compute community energies under every model and function")

    p = add("correlate", "correlate energies with popularity per gap")
    p.add_argument("--gaps", required=True, help="comma list of popularity gaps")

    p = add("train", "train popularity predictors per gap dataset")
    p.add_argument("--gaps", required=True)
    p.add_argument("--predictor", choices=["linear", "edge"], default="linear")
    # literals, so that parsing imports nothing: tests pin them to the enums
    p.add_argument("--function", choices=["cosine", "avglen"], default="cosine")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=500,
                   help="most SGD epochs; a loss plateau stops training earlier")
    p.add_argument("--seed", type=int, default=0)

    p = add("evaluate", "evaluate trained predictors on every gap train recorded")
    p.add_argument("--predictor", choices=["linear", "edge"], default="linear")

    return parser


# BLAS reads these when numpy first loads; any one of them set is the user's choice
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # every BLAS call here is tiny, so starting a thread pool would only cost time
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser().parse_args(argv)
    modules, resolve, body = _COMMANDS[args.command]
    for module_name in modules:
        _bind(module_name)
    try:
        stage = Stage(args.out)
        vars(args).update(resolve(args, stage.manifest))
        body(stage, args)
        stage.record(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> NoReturn:
    """The ``sentpop`` command: run :func:`main`, flush stdio and end the process.

    ``os._exit`` skips the interpreter's teardown: a last garbage collection,
    the freeing of every module and object, and ``atexit`` handlers. When
    ``main`` returns, every artifact and the manifest are written and closed,
    so the teardown would only cost time. An exception from ``main`` leaves as
    usual, with its traceback and exit status 1. If a flush fails (stdout
    closed by ``| head``), the interpreter ends the process as it would without
    this function and reports the failure.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a stream absent, failing or closed
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
