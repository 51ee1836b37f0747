"""Shared helpers: seeded random front words for property tests, and the
move lists that the matcher's callers hold."""

import random

from frontkit.front import Event, FrontDiagram, L, R, X
from frontkit.moves import _PAD, _WINDOW_KINDS, Move, _window_group


def random_front(rng: random.Random, steps: int = 30) -> FrontDiagram:
    """A structurally valid closed front of roughly ``steps`` events."""
    events, width = [], 0
    for _ in range(steps):
        roll = rng.random()
        if width < 2 or roll < 0.4:
            events.append(L(rng.randint(1, width + 1)))
            width += 2
        elif roll < 0.75:
            events.append(X(rng.randint(1, width - 1)))
        else:
            events.append(R(rng.randint(1, width - 1)))
            width -= 2
    while width:
        events.append(R(rng.randint(1, width - 1)))
        width -= 2
    return FrontDiagram(events)


def random_knot(rng: random.Random, steps: int = 30) -> FrontDiagram:
    """A random valid front that happens to be a single component."""
    while True:
        d = random_front(rng, steps)
        if d.n_components == 1:
            return d


def listed_moves(index):
    """The moves a ``moves.MoveIndex`` lists, in order: the site at each
    position of its sorted move list."""
    return [
        Move(kind, idx, level, data)
        for idx, (level, kind, data) in map(index._site, range(len(index)))
    ]


def unexpanded_groups(events, kinds=_WINDOW_KINDS):
    """The groups of ``kinds`` at every window of ``events`` with the R2
    expansions left out: the matcher run alone on each padded window, as
    the search's coded table runs it."""
    tail = tuple(events) + _PAD
    return [
        _window_group(window, None, kinds) for window in zip(tail, tail[1:], tail[2:])
    ]
