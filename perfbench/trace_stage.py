"""Run one sentpop CLI stage with its layer boundaries timed from outside.

Usage: python3 perfbench/trace_stage.py SPANS_JSON <sentpop cli arguments>

The package source is not modified. Before ``cli.main`` runs, the public
functions of each module are replaced by timing wrappers at every place a
caller looks them up (``cli`` and ``synth`` import most of them by name).
Calls made once per tweet or once per SGD step are tallied per parent span
instead of recorded one by one, which keeps the tracing overhead small. The
spans and tallies are kept in memory and written to SPANS_JSON at exit;
``run.py`` derives self times and the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import sentpop.cli as cli
from sentpop import corpus, energy, graph, manifest, predictor, sentiment, stats, synth, topics


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.tallies: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, busy_s]
        self.stack = [-1]

    def span(self, name, fn, attrs=None):
        """Record one span per call; ``attrs(args, result)`` adds counts to it."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1], None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return wrapped

    def tally(self, name, fn):
        """Count calls and busy time under the innermost open span."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                entry = self.tallies.setdefault((name, self.stack[-1]), [0, 0.0])
                entry[0] += 1
                entry[1] += busy

        return wrapped


def _size(path) -> int:
    return os.path.getsize(path)


def _patch(tracer: Tracer, name: str, modules, attr: str, kind: str = "span", attrs=None):
    """Replace ``attr`` in every module of ``modules`` with one shared wrapper."""
    original = getattr(modules[0], attr)
    if kind == "span":
        wrapper = tracer.span(name, original, attrs)
    else:
        wrapper = tracer.tally(name, original)
    for module in modules:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is not {modules[0].__name__}.{attr}")
        setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    p = functools.partial(_patch, tracer)
    # corpus: per-tweet parsing is tallied; each stream_corpus call is one pass
    p("corpus.parse_tweet_line", [corpus, cli, synth], "parse_tweet_line", "tally")
    p("corpus.format_tweet_line", [cli], "format_tweet_line", "tally")
    p("corpus.stream_corpus", [cli], "stream_corpus", "tally")
    p("corpus.load_lexicon", [cli], "load_lexicon")
    # manifest: digests and the verification that precedes reading an input
    p("manifest.file_digest", [manifest, cli], "file_digest",
      attrs=lambda a, r: {"bytes": _size(a[0]), "path": os.path.abspath(a[0])})
    manifest.RunManifest.verify_input = tracer.span(
        "manifest.verify_input", manifest.RunManifest.verify_input
    )
    # cli helper that digests a stage's outputs; digests outside it are of inputs
    p("cli.out_meta", [cli], "_out_meta")
    # graph
    p("graph.build_graph", [cli, synth], "build_graph")
    p("graph.extract_community", [cli, synth], "extract_community",
      attrs=lambda a, r: {"edges": len(r.edges)})
    p("graph.community_from_edge_list", [cli], "community_from_edge_list")
    # topics
    p("topics.extract_topics", [cli], "extract_topics")
    p("topics.dedupe_equal_popularity", [cli], "dedupe_equal_popularity")
    p("topics.extract_key_phrases", [cli], "extract_key_phrases")
    p("topics.gap_filter", [cli], "gap_filter")
    p("topics.load_catalog", [cli], "load_catalog")
    p("topics.load_stopwords", [cli], "load_stopwords")
    # sentiment
    p("sentiment.group_tweets_by_user", [cli, synth], "group_tweets_by_user")
    p("sentiment.community_topic_vectors", [cli, synth], "community_topic_vectors",
      attrs=lambda a, r: {"members": len(set(a[0])), "nonzero": len(r)})
    p("sentiment.load_vectors", [cli], "load_vectors")
    # energy: per_edge_energies is reached from the energy stage, make_samples and synth
    p("energy.per_edge_energies", [energy, predictor, synth], "per_edge_energies",
      attrs=lambda a, r: {"edges": len(r[0])})
    p("energy.community_energy", [cli], "community_energy")
    p("energy.load_energy_report", [cli], "load_energy_report")
    # predictor and stats
    p("predictor.make_samples", [predictor], "make_samples")
    p("predictor.split_train_test", [predictor], "split_train_test")
    p("predictor.train", [predictor], "train",
      attrs=lambda a, r: {"epochs": len(r.loss_curve)})
    p("predictor.sgd_step", [predictor], "sgd_step", "tally")
    p("predictor.evaluate", [predictor], "evaluate")
    p("predictor.load_model", [predictor], "load_model")
    p("stats.pearson", [cli], "pearson")
    # synth
    p("synth.generate", [synth], "generate")
    # io: every artifact write; attrs record the bytes that reached the file
    p("io.save_edge_list", [cli], "save_edge_list", attrs=lambda a, r: {"bytes": _size(a[1])})
    p("io.save_catalog", [cli], "save_catalog",
      attrs=lambda a, r: {"bytes": _size(a[1]), "rows": r})
    p("io.save_vectors", [cli], "save_vectors", attrs=lambda a, r: {"bytes": _size(a[1])})
    p("io.save_energy_report", [cli], "save_energy_report",
      attrs=lambda a, r: {"bytes": _size(a[1])})
    p("io.save_model", [predictor], "save_model", attrs=lambda a, r: {"bytes": _size(a[1])})
    p("io.write_lines", [cli], "_write_lines", attrs=lambda a, r: {"bytes": _size(a[1])})
    p("io.atomic_write_text", [manifest, synth], "atomic_write_text",
      attrs=lambda a, r: {"bytes": _size(a[0])})


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.span("cli.main", cli.main)
    try:
        return run(cli_argv)
    finally:
        record = {
            "stage": cli_argv[0],
            "spans": tracer.spans,
            "tallies": [[n, parent, c, b] for (n, parent), (c, b) in tracer.tallies.items()],
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
