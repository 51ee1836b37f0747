"""Classical invariants of closed fronts, computed without frontkit.

The benchmark checks the package's outputs against this module, so it
must not call into the package.  A word is a sequence of ``(kind,
level)`` pairs with kind ``"L"``, ``"R"`` or ``"X"`` and 1-based levels
counted from the top of the slice.  Strand directions are solved with a
union-find that tracks parity (cusps reverse the horizontal direction),
which is a different algorithm from the package's trace kernel.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Tuple


class OracleError(Exception):
    """The word is not a valid closed front."""


def invariants(word: Sequence[Tuple[str, int]]) -> List[Tuple[int, int]]:
    """Sorted ``(tb, |rot|)`` per component of a closed front.

    ``tb`` is the self-writhe minus the left cusps; the rotation number
    is taken up to sign, so the result does not depend on how each
    component is oriented.
    """
    parent: List[int] = []
    flip: List[int] = []  # direction parity relative to the parent

    def find(s: int) -> Tuple[int, int]:
        p = 0
        while parent[s] != s:
            p ^= flip[s]
            s = parent[s]
        return s, p

    def join(a: int, b: int) -> None:
        # a and b meet at a cusp, so they run in opposite directions.
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa == pb:
                raise OracleError("cusp joins two strands of one direction")
            return
        parent[rb] = ra
        flip[rb] = pa ^ pb ^ 1

    slice_: List[int] = []
    crossings: List[Tuple[int, int]] = []
    left_cusps: List[int] = []  # upper strand of each left cusp
    right_cusps: List[int] = []
    for idx, (kind, level) in enumerate(word):
        k = len(slice_)
        if kind == "L":
            if not 1 <= level <= k + 1:
                raise OracleError(f"event {idx}: L{level} on {k} strands")
            upper, lower = len(parent), len(parent) + 1
            parent += [upper, lower]
            flip += [0, 0]
            join(upper, lower)
            slice_[level - 1 : level - 1] = [upper, lower]
            left_cusps.append(upper)
        elif kind in ("R", "X"):
            if not 1 <= level <= k - 1:
                raise OracleError(f"event {idx}: {kind}{level} on {k} strands")
            upper, lower = slice_[level - 1], slice_[level]
            if kind == "R":
                join(upper, lower)
                del slice_[level - 1 : level + 1]
                right_cusps.append(upper)
            else:
                crossings.append((upper, lower))
                slice_[level - 1], slice_[level] = lower, upper
        else:
            raise OracleError(f"event {idx}: unknown kind {kind!r}")
    if slice_:
        raise OracleError(f"word ends with {len(slice_)} open strands")

    def direction(s: int) -> Tuple[int, int]:
        root, p = find(s)
        return root, (-1 if p else 1)

    writhe, lefts, up, down = Counter(), Counter(), Counter(), Counter()
    for a, b in crossings:
        ra, da = direction(a)
        rb, db = direction(b)
        if ra == rb:
            writhe[ra] += da * db
    # A cusp turns upward when the path enters on the lower branch: at a
    # left cusp the upper branch then points right, at a right cusp left.
    for s in left_cusps:
        root, d = direction(s)
        lefts[root] += 1
        (up if d > 0 else down)[root] += 1
    for s in right_cusps:
        root, d = direction(s)
        (up if d < 0 else down)[root] += 1
    out = []
    for root in lefts:
        r2 = down[root] - up[root]
        if r2 % 2:
            raise OracleError("odd cusp imbalance")
        out.append((writhe[root] - lefts[root], abs(r2) // 2))
    return sorted(out)
