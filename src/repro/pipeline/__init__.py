"""Bit-packed ring buffers shared by the window session and the wire format.

:class:`PackedRing` holds a stream's recent rounds eight detector bits per
byte; :class:`repro.realtime.window.WindowSession` decodes its windows out
of one, and :mod:`repro.serve.protocol` ships round chunks in the same
packed domain.
"""

from .ring import PackedRing, pack_chunk, unpack_chunk

__all__ = ["PackedRing", "pack_chunk", "unpack_chunk"]
