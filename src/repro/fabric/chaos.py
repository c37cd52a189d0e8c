"""Deterministic fault injection for the durable sweep fabric.

Every recovery path in :mod:`repro.fabric` — lease expiry after a worker
dies, retry-with-backoff around transient shard failures, torn-journal
quarantine on resume — is only as trustworthy as the tests that exercise
it.  This module injects those faults on demand, gated entirely by the
``REPRO_CHAOS`` environment variable so production runs never pay for it.

The spec is a comma-separated list of ``site=probability[:limit]`` terms::

    REPRO_CHAOS="crash=1:1,flaky=0.5:2,stall=0.3,torn=0.25"

* ``crash`` — the worker process SIGKILLs itself (a *real* ``kill -9``,
  not an exception: the process pool breaks exactly as it would under an
  OOM kill) before running its shard.
* ``stall`` — the worker sleeps for ``REPRO_CHAOS_STALL_S`` seconds
  (default 0.05) before running, long enough to expire short test leases.
* ``flaky`` — the shard raises :class:`ChaosError`, a transient failure
  the retry policy must absorb.
* ``torn`` — a journal write lands truncated at the destination path (as
  if the host lost power mid-write on a non-atomic filesystem), so the
  next reader must quarantine it and recover.

``limit`` caps injection to the first ``limit`` attempts of each task
(``crash=1:1`` kills every task's first attempt and only its first), which
is how tests pin "dies once, then recovers" without flakiness.  Decisions
are a pure hash of ``(REPRO_CHAOS_SEED, site, key, attempt)``: the same
spec and seed inject exactly the same faults on every run, on every
machine, in every worker process.  The simulation RNG is never touched —
chaos lives entirely outside the simulator's RNG draw contract.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, field
from functools import lru_cache

from ..obs.metrics import METRICS

__all__ = ["ChaosError", "ChaosConfig", "active_chaos", "parse_chaos_spec"]

#: Injection sites the spec may name.
SITES = ("crash", "stall", "flaky", "torn")

_OBS_INJECTED = METRICS.counter(
    "fabric.chaos.injections", "faults injected by the chaos harness"
)


class ChaosError(RuntimeError):
    """A transient failure injected by the chaos harness."""


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed ``REPRO_CHAOS`` spec: per-site probabilities and attempt caps."""

    sites: dict[str, tuple[float, int | None]] = field(default_factory=dict)
    seed: int = 0
    stall_seconds: float = 0.05

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def should_inject(self, site: str, key: str, attempt: int) -> bool:
        """Deterministically decide whether to fault ``key``'s ``attempt``."""
        entry = self.sites.get(site)
        if entry is None:
            return False
        probability, limit = entry
        if limit is not None and attempt >= limit:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{site}:{key}:{attempt}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < probability

    # ------------------------------------------------------------------ #
    # Worker-side injection points
    # ------------------------------------------------------------------ #
    def maybe_stall(self, key: str, attempt: int) -> None:
        if self.should_inject("stall", key, attempt):
            _OBS_INJECTED.inc()
            time.sleep(self.stall_seconds)

    def maybe_crash(self, key: str, attempt: int) -> None:
        """SIGKILL the current process — the real ``kill -9`` failure mode."""
        if self.should_inject("crash", key, attempt):
            _OBS_INJECTED.inc()
            os.kill(os.getpid(), signal.SIGKILL)

    def maybe_raise(self, key: str, attempt: int) -> None:
        if self.should_inject("flaky", key, attempt):
            _OBS_INJECTED.inc()
            raise ChaosError(f"injected transient failure ({key} attempt {attempt})")

    # ------------------------------------------------------------------ #
    # Journal-side injection point
    # ------------------------------------------------------------------ #
    def torn_write(self, key: str, sequence: int, data: bytes) -> bytes | None:
        """Truncated bytes to tear a journal write with, or None to write clean.

        The truncation point is derived from the same hash as the decision,
        so a torn write is torn at the same offset on every run.
        """
        if not self.should_inject("torn", key, sequence):
            return None
        _OBS_INJECTED.inc()
        digest = hashlib.sha256(
            f"{self.seed}:torn-at:{key}:{sequence}".encode()
        ).digest()
        # Never the full payload (that would be a clean write) and never
        # empty on multi-byte payloads, so the reader always sees garbage.
        cut = int.from_bytes(digest[:4], "big") % max(len(data), 1)
        return data[:cut]


@lru_cache(maxsize=8)
def parse_chaos_spec(spec: str, seed: int, stall_seconds: float) -> ChaosConfig:
    """Parse a ``site=p[:limit]`` comma list; unknown sites fail loudly."""
    sites: dict[str, tuple[float, int | None]] = {}
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        if "=" not in term:
            raise ValueError(f"REPRO_CHAOS term {term!r} is not site=probability")
        site, _, value = term.partition("=")
        site = site.strip()
        if site not in SITES:
            raise ValueError(
                f"unknown REPRO_CHAOS site {site!r} (known: {', '.join(SITES)})"
            )
        raw_p, _, raw_limit = value.partition(":")
        probability = float(raw_p)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"REPRO_CHAOS {site} probability must be in [0, 1]")
        limit = int(raw_limit) if raw_limit else None
        sites[site] = (probability, limit)
    return ChaosConfig(sites=sites, seed=seed, stall_seconds=stall_seconds)


def active_chaos() -> ChaosConfig | None:
    """The chaos config from the environment, or None when chaos is off.

    Read per call (not cached at import) so scheduler *and* forked worker
    processes see the same spec, and tests can flip it with ``monkeypatch``.
    """
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if not spec:
        return None
    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    stall = float(os.environ.get("REPRO_CHAOS_STALL_S", "0.05"))
    config = parse_chaos_spec(spec, seed, stall)
    return config if config.sites else None
