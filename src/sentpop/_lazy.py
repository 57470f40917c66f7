"""numpy, imported on its first use.

``np`` is numpy's module object. Unless numpy is already imported, it is
registered in ``sys.modules`` through :class:`importlib.util.LazyLoader`, so
numpy's ``__init__`` runs on the first attribute access (``np.array``) or
``import numpy`` anywhere in the process. Stages that do no array math
(``ingest``, ``graph``, ``topics``, ``sentiment``) never pay for it.

Before Python 3.13, ``LazyLoader`` does not lock the load: the first use of
``np`` must not race across threads.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
