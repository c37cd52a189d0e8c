"""Packed-uint8 ring buffers for the streaming window session.

A sliding-window decode only ever needs the newest ``window_rounds + 1``
rounds of a stream.  :class:`PackedRing` holds them in one preallocated
store: each round's chunk is bit-packed (``np.packbits``, 8 detector bits
per byte) into a fixed slot of a circular ``(capacity, shots, nbytes)``
uint8 array, windows are unpacked straight into the decoder's reusable
input buffer, and boundary artifacts are XOR-ed in the *packed* domain
(packing is GF(2)-linear per bit position, so
``pack(a ^ b) == pack(a) ^ pack(b)`` exactly — the property
``tests/test_properties.py`` pins).

Buffer ownership (see ``docs/architecture.md`` for the full diagram):

* the **producer** (``WindowSession.feed``) may write only through
  :meth:`push`, and only the round one past the newest buffered round;
* the **consumer** (the session's window decode and commit) reads any
  buffered round via :meth:`read_round` / :meth:`window`, may XOR artifact
  masks into a buffered round via :meth:`xor_round`, and releases rounds in
  order with :meth:`release_until`;
* a slot is reusable by the producer only after the consumer released it —
  :meth:`push` enforces the capacity bound instead of silently wrapping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedRing", "pack_chunk", "unpack_chunk"]


def pack_chunk(detectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bit-pack one ``(shots, num_detectors)`` boolean chunk into uint8 rows.

    Returns a ``(shots, ceil(num_detectors / 8))`` uint8 array (big-endian
    bit order, ``np.packbits`` semantics).  ``out`` receives the packed
    bytes in place when given, so a ring slot can be filled without
    retaining the intermediate.
    """
    detectors = np.asarray(detectors, dtype=bool)
    if detectors.ndim != 2:
        raise ValueError("detector chunk must be (shots, num_detectors)")
    packed = np.packbits(detectors, axis=1)
    if out is None:
        return packed
    if out.shape != packed.shape or out.dtype != np.uint8:
        raise ValueError(
            f"out must be uint8 with shape {packed.shape}, got "
            f"{out.dtype} {out.shape}"
        )
    np.copyto(out, packed)
    return out


def unpack_chunk(
    packed: np.ndarray, num_detectors: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_chunk`: unpack uint8 rows to a boolean chunk.

    ``num_detectors`` recovers the true width (packing pads the last byte
    with zero bits).  ``out`` receives the booleans in place when given.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError("packed chunk must be (shots, nbytes)")
    shots = packed.shape[0]
    if out is None:
        out = np.empty((shots, num_detectors), dtype=bool)
    elif out.shape != (shots, num_detectors) or out.dtype != np.bool_:
        raise ValueError(
            f"out must be bool with shape {(shots, num_detectors)}, got "
            f"{out.dtype} {out.shape}"
        )
    if num_detectors:
        out[...] = np.unpackbits(packed, axis=1, count=num_detectors)
    return out


class PackedRing:
    """A circular store of bit-packed detector rounds with bounded memory.

    ``capacity`` rounds of ``(shots, num_detectors)`` boolean chunks are
    held as ``(capacity, shots, ceil(num_detectors / 8))`` uint8 — one
    eighth of the boolean footprint, allocated exactly once.  Rounds are
    addressed by their absolute round index; the valid range is
    ``[base, next_round)`` where ``base`` advances via
    :meth:`release_until` and ``next_round`` via :meth:`push`.
    """

    def __init__(self, capacity: int, shots: int, num_detectors: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if shots < 0 or num_detectors < 0:
            raise ValueError("shots and num_detectors must be non-negative")
        self.capacity = int(capacity)
        self.shots = int(shots)
        self.num_detectors = int(num_detectors)
        self.nbytes = (self.num_detectors + 7) // 8
        self._slots = np.zeros((self.capacity, self.shots, self.nbytes), dtype=np.uint8)
        #: Oldest buffered round (inclusive) and next expected round.
        self.base = 0
        self.next_round = 0

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def push(self, round_index: int, detectors: np.ndarray) -> None:
        """Pack one round's chunk into its slot (must arrive in order)."""
        if round_index != self.next_round:
            raise ValueError(
                f"rounds must arrive in order; expected round {self.next_round}, "
                f"got {round_index}"
            )
        if round_index - self.base >= self.capacity:
            raise ValueError(
                f"ring full: round {self.base} not released yet "
                f"(capacity {self.capacity})"
            )
        detectors = np.asarray(detectors, dtype=bool)
        if detectors.shape != (self.shots, self.num_detectors):
            raise ValueError(
                f"chunk must be {(self.shots, self.num_detectors)}, "
                f"got {detectors.shape}"
            )
        pack_chunk(detectors, out=self._slot(round_index))
        self.next_round += 1

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def read_round(self, round_index: int, out: np.ndarray | None = None) -> np.ndarray:
        """Unpack one buffered round into ``out`` (or a fresh bool array)."""
        self._check_buffered(round_index)
        return unpack_chunk(self._slot(round_index), self.num_detectors, out=out)

    def window(self, start: int, length: int, out: np.ndarray | None = None) -> np.ndarray:
        """Unpack rounds ``[start, start + length)`` into a (shots, length, n) block.

        ``out`` is the decoder's reusable input buffer; passing it makes the
        window assembly allocation-free apart from ``np.unpackbits``'s small
        per-round temporary.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        if out is None:
            out = np.empty((self.shots, length, self.num_detectors), dtype=bool)
        elif out.shape != (self.shots, length, self.num_detectors) or out.dtype != np.bool_:
            raise ValueError(
                f"out must be bool with shape "
                f"{(self.shots, length, self.num_detectors)}, got {out.dtype} {out.shape}"
            )
        for offset in range(length):
            self.read_round(start + offset, out=out[:, offset, :])
        return out

    def xor_round(self, round_index: int, mask: np.ndarray) -> None:
        """XOR a boolean mask into a buffered round, in the packed domain.

        Packing is GF(2)-linear per bit position, so XOR-ing the packed mask
        into the packed slot is bit-identical to XOR-ing the boolean arrays
        and re-packing — the windowed decoder's boundary-artifact commit.
        """
        self._check_buffered(round_index)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.shots, self.num_detectors):
            raise ValueError(
                f"mask must be {(self.shots, self.num_detectors)}, got {mask.shape}"
            )
        self._slot(round_index)[...] ^= np.packbits(mask, axis=1)

    def release_until(self, round_index: int) -> None:
        """Release every buffered round below ``round_index`` back to the producer."""
        if round_index < self.base:
            raise ValueError(
                f"cannot release below base {self.base} (got {round_index})"
            )
        if round_index > self.next_round:
            raise ValueError(
                f"cannot release unbuffered rounds (next is {self.next_round})"
            )
        self.base = round_index

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _slot(self, round_index: int) -> np.ndarray:
        return self._slots[round_index % self.capacity]

    def _check_buffered(self, round_index: int) -> None:
        if not self.base <= round_index < self.next_round:
            raise ValueError(
                f"round {round_index} is not buffered "
                f"(valid range [{self.base}, {self.next_round}))"
            )
