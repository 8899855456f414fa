"""The determinism oracle: what "the same result" means.

The system's central contract is that every engine preset and backend
produces scenario result JSON that is bit-identical
*modulo the keys that only say how the run was executed*.  This module
is the one place that lists those keys and splits a result document
along them; tests, smoke scripts and the fuzz ``parity`` invariant all
compare through :func:`split`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

#: Top-level result keys that describe the execution, not the simulated
#: outcome: the ``engine`` stanza (the spec's ``[engine]`` table plus
#: what :meth:`repro.pdes.engine.Engine.describe` resolved).
NON_SEMANTIC_KEYS = ("engine",)


def split(doc: Mapping[str, Any]) -> tuple[dict[str, Any], str]:
    """``(stanza, canonical_json)`` of one ``to_json_dict()`` document.

    ``stanza`` is the ``engine`` stanza (``{}`` when the spec had no
    ``[engine]`` table); ``canonical_json`` is everything semantic,
    serialized with sorted keys -- equal strings mean equal results.
    """
    semantic = {k: v for k, v in doc.items() if k not in NON_SEMANTIC_KEYS}
    return doc.get("engine") or {}, json.dumps(semantic, sort_keys=True)
