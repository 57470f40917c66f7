"""Community sentiment energy models and topic popularity prediction.

``import sentpop`` loads no submodule. Each name in ``__all__`` is imported
from its module on first access (PEP 562), and so is a submodule named as an
attribute (``sentpop.stats``), so a process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "CorpusWindow",
        "EmoticonCounts",
        "EmoticonLexicon",
        "LexiconError",
        "ParseError",
        "Tweet",
        "load_lexicon",
        "parse_tweet_line",
        "stream_corpus",
    ),
    "energy": (
        "CommunityEnergy",
        "EnergyFunction",
        "EnergyModel",
        "clique_energy_avglen",
        "clique_energy_cosine",
        "community_energy_entropy",
        "community_energy_mrf",
        "edge_probability",
    ),
    "graph": ("CommunityGraph", "SocialGraph", "build_graph", "extract_community"),
    "predictor": (
        "EdgeModel",
        "LinearModel",
        "TopicSample",
        "TrainConfig",
        "TrainingDiverged",
        "evaluate",
        "split_train_test",
        "train",
    ),
    "sentiment": (
        "SentimentVector",
        "tweet_sentiment",
        "user_topic_vector",
    ),
    "stats": (
        "Strength",
        "classify_strength",
        "pearson",
        "rse",
    ),
    "topics": (
        "GapDataset",
        "Topic",
        "dedupe_equal_popularity",
        "extract_key_phrases",
        "extract_topics",
        "gap_filter",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    try:
        # importing a submodule also binds it as an attribute of the package
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # the submodule exists, but something it imports does not
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
