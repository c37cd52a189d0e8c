"""Decoders for memory experiments (MWPM and union-find).

Decoder backends register themselves in
:data:`repro.api.registry.DECODERS` at class-definition time;
:func:`make_decoder` is a thin lookup over that registry, so third-party
decoders registered with :func:`repro.api.register_decoder` are
constructible here (and listed by ``python -m repro list``) without
touching this module.
"""

from ..api.registry import DECODERS
from .base import DecoderBase
from .cache import DEFAULT_CACHE_ENTRIES, SyndromeCache
from .detector_graph import DetectorGraph, GraphEdge
from .matching import STRATEGIES, MatchingDecoder
from .union_find import UnionFindDecoder

__all__ = [
    "DetectorGraph",
    "GraphEdge",
    "DecoderBase",
    "MatchingDecoder",
    "UnionFindDecoder",
    "SyndromeCache",
    "DEFAULT_CACHE_ENTRIES",
    "STRATEGIES",
    "make_decoder",
    "ensure_tunable",
]


def make_decoder(
    graph: DetectorGraph,
    method: str = "matching",
    *,
    max_exact_nodes: int | None = None,
    strategy: str | None = None,
    cache: SyndromeCache | None = None,
):
    """Factory: build a registered decoder over ``graph`` by method name.

    A thin lookup over :data:`repro.api.registry.DECODERS` (``"matching"``
    for MWPM, ``"union_find"`` for the UF decoder, plus anything third
    parties register); unknown names fail with a did-you-mean suggestion
    and the full registered list.

    ``max_exact_nodes`` and ``strategy`` tune the matching decoder's
    exact-vs-greedy trade-off (see :class:`MatchingDecoder`); they are
    rejected for decoders not registered as ``tunable`` so a sweep cannot
    silently ignore a requested configuration.

    ``cache`` attaches an existing :class:`SyndromeCache` (shared across
    decoders by the realtime service; ``SyndromeCache(0)`` disables
    cross-call caching); ``None`` gives the decoder a private cache of
    :data:`DEFAULT_CACHE_ENTRIES`.  It applies to every decoder, since
    batching and caching live in :class:`DecoderBase`.
    """
    entry = DECODERS.get(method)  # unknown names fail with did-you-mean help
    kwargs: dict = {}
    if max_exact_nodes is not None:
        kwargs["max_exact_nodes"] = int(max_exact_nodes)
    if strategy is not None:
        kwargs["strategy"] = strategy
    if kwargs:
        ensure_tunable(entry)
    return entry.obj(graph, cache=cache, **kwargs)


def ensure_tunable(entry) -> None:
    """Reject tuning knobs for a decoder not registered as ``tunable``.

    Shared by :func:`make_decoder` and ``DecoderConfig.validate`` so the
    rule and its error message have exactly one source of truth.
    """
    if not entry.metadata.get("tunable", False):
        tunable = [e.name for e in DECODERS if e.metadata.get("tunable")]
        raise ValueError(
            f"max_exact_nodes/strategy only apply to tunable decoders "
            f"({', '.join(tunable)}), not {entry.name!r}"
        )
