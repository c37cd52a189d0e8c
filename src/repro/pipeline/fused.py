"""Compatibility alias: the ring-backed session is now the only session.

``FusedWindowSession`` names :class:`repro.realtime.window.WindowSession`.
"""

from ..realtime.window import WindowSession

__all__ = ["FusedWindowSession"]

FusedWindowSession = WindowSession
