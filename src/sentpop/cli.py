"""Pipeline CLI: composable stages with persisted TSV artifacts.

Stages write their outputs under ``--out`` and append to a run manifest that
records flag values, input digests and output digests. Later stages verify
the digests of everything they read, so a stale or hand-edited intermediate
stops the pipeline with the mismatch named. All randomness (splits, SGD
shuffles, generation) flows from explicit ``--seed`` flags recorded in the
manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, predictor, synth
from .corpus import (
    CorpusWindow,
    format_tweet_line,
    load_lexicon,
    parse_tweet_line,
    stream_corpus,
)
from .energy import (
    EnergyFunction,
    EnergyModel,
    community_energy,
    load_energy_report,
    save_energy_report,
)
from .graph import (
    build_graph,
    community_from_edge_list,
    extract_community,
    save_edge_list,
)
from .manifest import RunManifest, StaleArtifactError, atomic_write, file_digest

# community_topic_vectors is not called here; it stays importable from this
# module because perfbench/trace_stage.py times it where callers look it up
from .sentiment import (  # noqa: F401
    catalog_vectors,
    community_topic_vectors,
    group_tweets_by_user,
    load_vectors,
    save_vectors,
)
from .stats import classify_strength, pearson
from .topics import (
    attach_key_phrases,
    dedupe_equal_popularity,
    extract_key_phrases,
    extract_topics,
    gap_filter,
    load_catalog,
    load_stopwords,
    save_catalog,
)

NORMALIZED_CORPUS = "corpus_normalized.tsv"
GRAPH_FILE = "graph.tsv"
COMMUNITY_FILE = "community.tsv"
CATALOG_FILE = "catalog.tsv"
VECTORS_FILE = "vectors.tsv"
ENERGIES_FILE = "energies.tsv"
CORRELATION_FILE = "correlation.tsv"
MANIFEST_FILE = "manifest.json"


def _write_lines(lines: list[str], path: Path) -> int:
    def write(tmp: Path) -> int:
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return len(lines)

    return atomic_write(write, path)


def _out_meta(path: Path, rows: int) -> dict:
    return {"digest": file_digest(path), "rows": rows}


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _parse_window(text: str) -> CorpusWindow:
    values = _csv_ints(text)
    if len(values) != 4:
        raise ValueError("--window needs train_start,train_end,test_start,test_end")
    return CorpusWindow(*values)


def _load_manifest(args) -> tuple[Path, RunManifest]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out, RunManifest.load(out / MANIFEST_FILE, version=__version__)


def _verified(
    manifest: RunManifest, path: Path, inputs: dict[str, str], reader: str | None = None
) -> Path:
    """Verify ``path`` and record, under ``inputs``, the digest that was checked."""
    inputs[str(path)] = manifest.verify_input(path, reader)
    return path


def _ingest_context(out: Path, manifest: RunManifest, inputs: dict[str, str]):
    cfg = manifest.stage_config("ingest")
    window = CorpusWindow(*cfg["window"])
    lexicon_path = _verified(manifest, Path(cfg["lexicon"]), inputs, reader="ingest")
    corpus_path = _verified(manifest, out / NORMALIZED_CORPUS, inputs)
    return corpus_path, load_lexicon(lexicon_path), window, cfg


def cmd_synth(args) -> int:
    out, manifest = _load_manifest(args)
    if args.planted == "linear":
        planted = synth.PlantedLinear(
            alpha=args.alpha, beta=args.beta, noise_sigma=args.noise_sigma
        )
    elif args.planted == "edge-weights":
        lo, hi = (float(v) for v in args.weight_range.split(","))
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
    gen = synth.generate(config, out)
    n_rows = gen.n_train_tweets + gen.n_test_tweets
    manifest.record_stage(
        "synth",
        config={
            "seed": args.seed,
            "n_users": args.n_users,
            "edge_density": args.edge_density,
            "n_topics": args.n_topics,
            "m": args.m,
            "emoticon_rate": args.emoticon_rate,
            "planted": args.planted,
            "alpha": args.alpha,
            "beta": args.beta,
            "rho": args.rho,
            "weight_range": args.weight_range,
            "noise_sigma": args.noise_sigma,
            "tweets_per_user": args.tweets_per_user,
            "max_depth": args.max_depth,
        },
        inputs={},
        outputs={
            str(gen.corpus_path): _out_meta(gen.corpus_path, n_rows),
            str(gen.lexicon_path): _out_meta(gen.lexicon_path, len(synth.synthetic_lexicon())),
            str(gen.stopwords_path): _out_meta(gen.stopwords_path, 10),
            str(gen.expected_path): _out_meta(gen.expected_path, 0),
        },
    )
    print(f"synth: {n_rows} tweets -> {gen.corpus_path}")
    print(
        "synth: window "
        f"{gen.window.train_start},{gen.window.train_end},"
        f"{gen.window.test_start},{gen.window.test_end} seed-user {gen.seed_user}"
    )
    return 0


def cmd_ingest(args) -> int:
    out, manifest = _load_manifest(args)
    window = _parse_window(args.window)
    lexicon = load_lexicon(args.lexicon)
    kept: list[str] = []
    dropped = 0
    with open(args.corpus, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            tweet = parse_tweet_line(line, lexicon, line_no)
            if window.contains(tweet.timestamp, "all"):
                kept.append(format_tweet_line(tweet))
            else:
                dropped += 1
    norm_path = out / NORMALIZED_CORPUS
    rows = _write_lines(kept, norm_path)
    manifest.record_stage(
        "ingest",
        config={
            "corpus": str(args.corpus),
            "lexicon": str(args.lexicon),
            "window": [window.train_start, window.train_end, window.test_start, window.test_end],
        },
        inputs={
            str(args.corpus): file_digest(args.corpus),
            str(args.lexicon): file_digest(args.lexicon),
        },
        outputs={str(norm_path): _out_meta(norm_path, rows)},
    )
    print(f"ingest: kept {rows} tweets ({dropped} outside window) -> {norm_path}")
    return 0


def cmd_graph(args) -> int:
    out, manifest = _load_manifest(args)
    inputs: dict[str, str] = {}
    corpus_path, lexicon, window, _ = _ingest_context(out, manifest, inputs)
    tweets = stream_corpus(corpus_path, lexicon, window, "all")
    graph = build_graph(tweets)
    community = extract_community(graph, args.seed_user, args.max_depth)
    graph_path = out / GRAPH_FILE
    community_path = out / COMMUNITY_FILE
    g_rows = atomic_write(lambda p: save_edge_list(graph.edges, p), graph_path)
    c_rows = atomic_write(lambda p: save_edge_list(community.edges, p), community_path)
    manifest.record_stage(
        "graph",
        config={"seed_user": args.seed_user, "max_depth": args.max_depth},
        inputs=inputs,
        outputs={
            str(graph_path): _out_meta(graph_path, g_rows),
            str(community_path): _out_meta(community_path, c_rows),
        },
    )
    print(
        f"graph: {len(graph.nodes)} users, {g_rows} edges; community of "
        f"{args.seed_user!r} at depth {args.max_depth}: "
        f"{len(community.members)} members, {c_rows} edges"
    )
    return 0


def cmd_topics(args) -> int:
    out, manifest = _load_manifest(args)
    inputs: dict[str, str] = {}
    corpus_path, lexicon, window, _ = _ingest_context(out, manifest, inputs)
    inputs[str(args.stopwords)] = manifest.verify_input(args.stopwords)
    stopwords = load_stopwords(args.stopwords)
    test_tweets = list(stream_corpus(corpus_path, lexicon, window, "test"))
    first_month_end = args.first_month_end
    if first_month_end is None:
        first_month_end = window.test_start + (window.test_end - window.test_start) // 2
    topics = dedupe_equal_popularity(
        extract_topics(test_tweets, first_month_end, args.min_popularity)
    )
    selected = {t.hashtag for t in topics}
    texts: dict[str, list[str]] = {tag: [] for tag in selected}
    for tweet in test_tweets:
        for tag in set(tweet.hashtags):
            if tag in selected:
                texts[tag].append(tweet.text)
    topics = [
        attach_key_phrases(
            t, extract_key_phrases(texts[t.hashtag], args.m, stopwords, exclude=t.hashtag)
        )
        for t in topics
    ]
    catalog_path = out / CATALOG_FILE
    rows = atomic_write(lambda p: save_catalog(topics, p), catalog_path)
    manifest.record_stage(
        "topics",
        config={
            "m": args.m,
            "min_popularity": args.min_popularity,
            "first_month_end": first_month_end,
            "stopwords": str(args.stopwords),
        },
        inputs=inputs,
        outputs={str(catalog_path): _out_meta(catalog_path, rows)},
    )
    print(f"topics: {rows} topics -> {catalog_path}")
    return 0


def _community_from_manifest(out: Path, manifest: RunManifest, inputs: dict[str, str]):
    graph_cfg = manifest.stage_config("graph")
    community_path = _verified(manifest, out / COMMUNITY_FILE, inputs)
    return community_from_edge_list(
        community_path, graph_cfg["seed_user"], graph_cfg["max_depth"]
    )


def cmd_sentiment(args) -> int:
    out, manifest = _load_manifest(args)
    inputs: dict[str, str] = {}
    corpus_path, lexicon, window, _ = _ingest_context(out, manifest, inputs)
    community = _community_from_manifest(out, manifest, inputs)
    catalog = load_catalog(_verified(manifest, out / CATALOG_FILE, inputs))
    train_tweets = stream_corpus(corpus_path, lexicon, window, "train")
    tweets_by_user = group_tweets_by_user(train_tweets)
    vectors_by_topic = catalog_vectors(community.members, catalog, tweets_by_user)
    vectors_path = out / VECTORS_FILE
    rows = atomic_write(lambda p: save_vectors(vectors_by_topic, p), vectors_path)
    manifest.record_stage(
        "sentiment",
        config={},
        inputs=inputs,
        outputs={str(vectors_path): _out_meta(vectors_path, rows)},
    )
    print(f"sentiment: {rows} nonzero vectors -> {vectors_path}")
    return 0


def _selected_combos(args) -> list[tuple[EnergyModel, EnergyFunction]]:
    models = [EnergyModel(args.model)] if args.model else list(EnergyModel)
    functions = [EnergyFunction(args.function)] if args.function else list(EnergyFunction)
    return sorted(
        ((m, f) for m in models for f in functions),
        key=lambda mf: (mf[0].value, mf[1].value),
    )


def cmd_energy(args) -> int:
    out, manifest = _load_manifest(args)
    community, catalog, vectors_by_topic, inputs = _feature_inputs(out, manifest)
    combos = _selected_combos(args)
    energies = [
        community_energy(
            community, vectors_by_topic.get(t.hashtag, {}), model, function, topic=t.hashtag
        )
        for t in catalog
        for model, function in combos
    ]
    energies_path = out / ENERGIES_FILE
    rows = atomic_write(lambda p: save_energy_report(energies, p), energies_path)
    manifest.record_stage(
        "energy",
        config={"model": args.model, "function": args.function},
        inputs=inputs,
        outputs={str(energies_path): _out_meta(energies_path, rows)},
    )
    print(f"energy: {rows} rows ({len(combos)} model/function combos) -> {energies_path}")
    return 0


def cmd_correlate(args) -> int:
    out, manifest = _load_manifest(args)
    inputs: dict[str, str] = {}
    catalog = load_catalog(_verified(manifest, out / CATALOG_FILE, inputs))
    energies_path = _verified(manifest, out / ENERGIES_FILE, inputs)
    by_key: dict[tuple[str, EnergyModel, EnergyFunction], float] = {}
    combos = set()
    for e in load_energy_report(energies_path):
        by_key[(e.topic, e.model, e.function)] = e.value
        combos.add((e.model, e.function))
    gaps = _csv_ints(args.gaps)
    lines = []
    for gap in gaps:
        dataset = gap_filter(catalog, gap)
        pops = [float(t.popularity) for t in dataset.topics]
        for model, function in sorted(combos, key=lambda mf: (mf[0].value, mf[1].value)):
            xs = [by_key[(t.hashtag, model, function)] for t in dataset.topics]
            r, p = pearson(xs, pops)
            strength = classify_strength(r)
            lines.append(
                f"{gap}\t{model.value}+{function.value}\t{r!r}\t{p!r}\t{strength.value}"
            )
    correlation_path = out / CORRELATION_FILE
    rows = _write_lines(lines, correlation_path)
    manifest.record_stage(
        "correlate",
        config={"gaps": gaps},
        inputs=inputs,
        outputs={str(correlation_path): _out_meta(correlation_path, rows)},
    )
    print(f"correlate: {rows} rows -> {correlation_path}")
    return 0


def _feature_inputs(out: Path, manifest: RunManifest):
    inputs: dict[str, str] = {}
    community = _community_from_manifest(out, manifest, inputs)
    catalog = load_catalog(_verified(manifest, out / CATALOG_FILE, inputs))
    vectors_by_topic = load_vectors(_verified(manifest, out / VECTORS_FILE, inputs))
    return community, catalog, vectors_by_topic, inputs


def _model_path(out: Path, kind: str, gap: int) -> Path:
    return out / f"model_{kind}_gap{gap}.tsv"


def _splits_path(out: Path, kind: str) -> Path:
    return out / f"splits_{kind}.tsv"


def _sgd_summary(curve: list[float], plateaued: bool) -> str:
    """How SGD stopped: on the plateau test or at the epoch cap."""
    k = len(curve)
    stop = f"plateau at epoch {k - 1}" if plateaued else "epoch cap"
    text = f"{k} epochs ({stop}), final loss {curve[-1]:.6g}"
    if curve[-1] > curve[0]:
        text += f", above the first epoch's {curve[0]:.6g}"
    return text


def cmd_train(args) -> int:
    out, manifest = _load_manifest(args)
    community, catalog, vectors_by_topic, inputs = _feature_inputs(out, manifest)
    function = EnergyFunction(args.function)
    config = predictor.TrainConfig(
        learning_rate=args.eta,
        epochs=args.epochs,
        rng_seed=args.seed,
        l2=args.l2,
    )
    gaps = _csv_ints(args.gaps)
    split_lines: list[str] = []
    outputs: dict[str, dict] = {}
    for gap in gaps:
        dataset = gap_filter(catalog, gap)
        train_topics, test_topics = predictor.split_train_test(dataset, args.seed)
        split_lines.extend(f"{gap}\t{t.hashtag}\ttrain" for t in train_topics)
        split_lines.extend(f"{gap}\t{t.hashtag}\ttest" for t in test_topics)
        samples = predictor.make_samples(community, vectors_by_topic, train_topics, function)
        result = predictor.train(args.predictor, samples, config)
        model_path = _model_path(out, args.predictor, gap)
        atomic_write(lambda p: predictor.save_model(result.model, p) or 0, model_path)
        outputs[str(model_path)] = _out_meta(model_path, 0)
        log_path = out / f"train_log_{args.predictor}_gap{gap}.tsv"
        log_rows = _write_lines(
            [f"{epoch}\t{value!r}" for epoch, value in enumerate(result.loss_curve)],
            log_path,
        )
        outputs[str(log_path)] = _out_meta(log_path, log_rows)
        summary = _sgd_summary(result.loss_curve, result.plateaued)
        print(f"train: gap {gap}: {len(samples)} topics, {summary}")
    splits_path = _splits_path(out, args.predictor)
    rows = _write_lines(split_lines, splits_path)
    outputs[str(splits_path)] = _out_meta(splits_path, rows)
    manifest.record_stage(
        f"train:{args.predictor}",
        config={
            "predictor": args.predictor,
            "function": args.function,
            "gaps": gaps,
            "eta": args.eta,
            "epochs": args.epochs,
            "seed": args.seed,
            "l2": args.l2,
            "init": config.init,
            "shuffle": config.shuffle,
            "stop_tol": config.stop_tol,
        },
        inputs=inputs,
        outputs=outputs,
    )
    return 0


def cmd_evaluate(args) -> int:
    out, manifest = _load_manifest(args)
    train_cfg = manifest.stage_config(f"train:{args.predictor}")
    community, catalog, vectors_by_topic, inputs = _feature_inputs(out, manifest)
    function = EnergyFunction(train_cfg["function"])
    gaps = _csv_ints(args.gaps) if args.gaps else list(train_cfg["gaps"])
    splits_path = _verified(manifest, _splits_path(out, args.predictor), inputs)
    test_tags: dict[int, set[str]] = {}
    with open(splits_path, encoding="utf-8") as fh:
        for line in fh:
            gap_s, tag, role = line.rstrip("\n").split("\t")
            if role == "test":
                test_tags.setdefault(int(gap_s), set()).add(tag)
    lines = []
    outputs: dict[str, dict] = {}
    for gap in gaps:
        if gap not in test_tags:
            raise StaleArtifactError(f"no recorded split for gap {gap}; run train first")
        model = predictor.load_model(
            _verified(manifest, _model_path(out, args.predictor, gap), inputs)
        )
        test_topics = [t for t in catalog if t.hashtag in test_tags[gap]]
        samples = predictor.make_samples(community, vectors_by_topic, test_topics, function)
        result = predictor.evaluate(model, samples)
        lines.append(f"{gap}\t{args.predictor}\t{result.rse!r}")
        residual_lines = [
            f"{tag}\t{actual!r}\t{pred!r}\t{pred - actual!r}"
            for tag, actual, pred in result.residuals
        ]
        residuals_path = out / f"residuals_{args.predictor}_gap{gap}.tsv"
        r_rows = _write_lines(residual_lines, residuals_path)
        outputs[str(residuals_path)] = _out_meta(residuals_path, r_rows)
        print(f"evaluate: gap {gap}: rse {result.rse:.4f} r2 {result.r_squared:.4f}")
    report_path = out / f"evaluation_{args.predictor}.tsv"
    rows = _write_lines(lines, report_path)
    outputs[str(report_path)] = _out_meta(report_path, rows)
    manifest.record_stage(
        f"evaluate:{args.predictor}",
        config={"predictor": args.predictor, "gaps": gaps},
        inputs=inputs,
        outputs=outputs,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentpop",
        description="Community sentiment energy and topic popularity pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.set_defaults(func=func)
        return p

    p = add("synth", cmd_synth, "generate a synthetic corpus with planted structure")
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

    p = add("ingest", cmd_ingest, "validate and normalize a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--window", required=True,
                   help="train_start,train_end,test_start,test_end (UTC seconds)")

    p = add("graph", cmd_graph, "build the user graph and extract the community")
    p.add_argument("--seed-user", required=True)
    p.add_argument("--max-depth", type=int, default=3)

    p = add("topics", cmd_topics, "extract topics, popularity and key phrases")
    p.add_argument("--stopwords", required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--min-popularity", type=int, default=100)
    p.add_argument("--first-month-end", type=int, default=None,
                   help="cutoff for a topic's first tweet (default: middle of test window)")

    add("sentiment", cmd_sentiment, "compute per-user topic sentiment vectors")

    p = add("energy", cmd_energy, "compute community sentiment energies")
    p.add_argument("--model", choices=[m.value for m in EnergyModel], default=None,
                   help="restrict to one model (default: all)")
    p.add_argument("--function", choices=[f.value for f in EnergyFunction], default=None,
                   help="restrict to one energy function (default: all)")

    p = add("correlate", cmd_correlate, "correlate energies with popularity per gap")
    p.add_argument("--gaps", required=True, help="comma list of popularity gaps")

    p = add("train", cmd_train, "train popularity predictors per gap dataset")
    p.add_argument("--gaps", required=True)
    p.add_argument("--predictor", choices=list(predictor.PREDICTOR_KINDS), default="linear")
    p.add_argument("--function", choices=[f.value for f in EnergyFunction],
                   default=EnergyFunction.COSINE.value)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("evaluate", cmd_evaluate, "evaluate trained predictors on held-out topics")
    p.add_argument("--predictor", choices=list(predictor.PREDICTOR_KINDS), default="linear")
    p.add_argument("--gaps", default=None, help="default: gaps used at train time")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
