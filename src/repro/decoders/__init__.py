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
from .detector_graph import DetectorGraph, GraphEdge, shared_graph
from .matching import MatchingDecoder
from .union_find import UnionFindDecoder

__all__ = [
    "DetectorGraph",
    "GraphEdge",
    "shared_graph",
    "DecoderBase",
    "MatchingDecoder",
    "UnionFindDecoder",
    "SyndromeCache",
    "DEFAULT_CACHE_ENTRIES",
    "make_decoder",
]


def make_decoder(
    graph: DetectorGraph,
    method: str = "matching",
    *,
    cache: SyndromeCache | None = None,
):
    """Factory: build a registered decoder over ``graph`` by method name.

    A thin lookup over :data:`repro.api.registry.DECODERS` (``"matching"``
    for MWPM — exact up to 60 fired detectors, greedy beyond —
    ``"union_find"`` for the UF decoder, plus anything third parties
    register); unknown names fail with a did-you-mean suggestion and the
    full registered list.

    ``cache`` attaches an existing :class:`SyndromeCache` (shared across
    decoders by the realtime service; ``SyndromeCache(0)`` disables
    cross-call caching); ``None`` gives the decoder a private cache of
    :data:`DEFAULT_CACHE_ENTRIES`.  It applies to every decoder, since
    batching and caching live in :class:`DecoderBase`.
    """
    return DECODERS.get(method).obj(graph, cache=cache)
