"""Comparator sequences: sorting networks and the special per-level
sequences used by the Huffman constructions.

A comparator (k, ell) places the smaller value at position k and the larger
at position ell (1-based).  Every sequence is stored in application order:
the first comparator listed is applied first when sorting (the usual network
convention).  The matching transposition relations enter a composed chain in
the reverse order (:func:`~reflekt.constructions.transposition_chain_specs`),
so the chain's canonical-preimage pass, which runs from the last relation to
the first, replays the sequence as listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

Comparator = Tuple[int, int]

_EXHAUSTIVE_CAP = 24


@dataclass(frozen=True)
class ComparatorSeq:
    n: int
    comparators: tuple

    def __post_init__(self):
        for k, ell in self.comparators:
            if k == ell:
                raise ValueError(f"degenerate comparator ({k},{ell})")
            if not (1 <= k <= self.n and 1 <= ell <= self.n):
                raise IndexError(f"comparator ({k},{ell}) out of range 1..{self.n}")

    def __len__(self) -> int:
        return len(self.comparators)


def _oem_sort(indices):
    """Odd-even mergesort comparator stream on a power-of-two index slice."""
    if len(indices) == 2:
        yield indices[0], indices[1]
    elif len(indices) > 2:
        mid = len(indices) // 2
        yield from _oem_sort(indices[:mid])
        yield from _oem_sort(indices[mid:])
        yield from _oem_merge(indices)


def _oem_merge(indices):
    if len(indices) == 2:
        yield indices[0], indices[1]
    elif len(indices) > 2:
        yield from _oem_merge(indices[0::2])
        yield from _oem_merge(indices[1::2])
        for a, b in zip(indices[1::2], indices[2::2]):
            yield a, b


def batcher(n: int) -> ComparatorSeq:
    """Odd-even mergesort network on n wires, size O(n log^2 n).

    Non-powers of two run the next power-of-two network with virtual
    top-of-range wires removed: a virtual wire holds a value larger than
    every real one, so every comparator touching it is a no-op.
    """
    if n < 1:
        raise ValueError("network needs at least one wire")
    if n == 1:
        return ComparatorSeq(1, ())
    pot = 1 << (n - 1).bit_length()
    padded = list(range(1, n + 1)) + [None] * (pot - n)
    comps = tuple(
        (a, b) for a, b in _oem_sort(padded) if a is not None and b is not None
    )
    return ComparatorSeq(n, comps)


def insertion_network(n: int) -> ComparatorSeq:
    """Insertion-sort network, size n(n-1)/2; cross-validates the recursive
    construction with something independent of it."""
    if n < 1:
        raise ValueError("network needs at least one wire")
    comps = []
    for i in range(2, n + 1):
        for j in range(i, 1, -1):
            comps.append((j - 1, j))
    return ComparatorSeq(n, tuple(comps))


def is_sorting_network(seq: ComparatorSeq) -> bool:
    """Exhaustive 0/1 validation: every binary input must come out sorted.

    Wire i carries one bit per binary input packed into a single integer,
    so each comparator is one AND plus one OR on 2^n-bit words; capped at
    n = 24.
    """
    n = seq.n
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive validation capped at n={_EXHAUSTIVE_CAP}")
    if n == 1:
        return True
    # masks[i] bit t = i-th coordinate of binary input t, built by doubling
    masks = [0, 0b10]
    width = 2
    for k in range(2, n + 1):
        masks = [m | (m << width) for m in masks]
        masks.append(((1 << width) - 1) << width)
        width *= 2
    wires = masks  # wires[0] unused, 1-based
    for k, ell in seq.comparators:
        lo = wires[k] & wires[ell]
        hi = wires[k] | wires[ell]
        wires[k], wires[ell] = lo, hi
    for i in range(1, n):
        if wires[i] & ~wires[i + 1]:
            return False
    return True


def double_bubble_seq(k: int) -> ComparatorSeq:
    """Two overlapping bubble passes on k wires:

        (1,2), (2,3), .., (k-1,k), (1,2), (2,3), .., (k-2,k-1)

    of length 2k-3.  Applied in this order it bubbles the largest value to
    position k and the next largest to k-1, which is exactly what the
    Huffman levels need.
    """
    if k < 3:
        raise ValueError("level sequences need k >= 3")
    pairs = [(j, j + 1) for j in range(1, k)]
    pairs += [(j, j + 1) for j in range(1, k - 1)]
    return ComparatorSeq(k, tuple(pairs))


def stride_indices(k: int):
    """The doubling-stride index list k, k-1, k-1-1, k-1-1-2, .. (>= 1)."""
    if k < 3:
        raise ValueError("level sequences need k >= 3")
    idx = [k, k - 1]
    step = 1
    while idx[-1] - step >= 1:
        idx.append(idx[-1] - step)
        step *= 2
    return idx


@lru_cache(maxsize=None)
def stride_seq(k: int) -> ComparatorSeq:
    """Logarithmic replacement for :func:`double_bubble_seq` on inner
    Huffman levels: down the doubling-stride indices and back up,

        (i2,i1), (i3,i2), .., (ir,i(r-1)), (i(r-1),i(r-2)), .., (i2,i1)

    of length 2r-3 with r = O(log k); the sequence is a palindrome."""
    idx = stride_indices(k)
    r = len(idx)
    pairs = [(idx[j], idx[j - 1]) for j in range(1, r)]
    pairs += [(idx[j], idx[j - 1]) for j in range(r - 2, 0, -1)]
    return ComparatorSeq(k, tuple(pairs))


def apply_comparators(seq: ComparatorSeq, y: Sequence):
    """Fold canonical transposition preimages over the sequence in its
    (application) order: (k, ell) swaps exactly when y_k > y_ell."""
    out = list(y)
    if len(out) != seq.n:
        raise ValueError(f"vector length {len(out)} != network width {seq.n}")
    for k, ell in seq.comparators:
        a, b = out[k - 1], out[ell - 1]
        if a > b:
            out[k - 1], out[ell - 1] = b, a
    return tuple(out)
