"""The benchmark's inputs, all derived from ``--seed``.

The generators' own default seeds are 11 (linux-like) and 22
(postgresql-like); ``--seed`` replaces them.  The served workload's
edit stream is a pure function of the seed and the starting sources, so
the oracle process can regenerate exactly the programs the daemon saw.
"""

from __future__ import annotations

import random
import re
from typing import Iterator, List, Tuple

Sources = List[Tuple[str, str]]

LINUX_SEED = 11
POSTGRESQL_SEED = 22

#: Every DELETE_EVERY-th edit deletes an original store; the rest add an
#: assignment.  Fixed positions keep the add/delete mix of a run
#: independent of the seed.
DELETE_EVERY = 8

_ROOT_FUNCTION = re.compile(r"^void (base_l0_\d+)\(void\) \{$", re.M)
_ASSIGN = re.compile(r"^    (p\d) = (p\d);$", re.M)
_ANCHOR = "    slot = &buf;\n"
_DELETABLE = "    *slot = p3;\n"
_POINTERS = ("p0", "p1", "p2", "p3")


#: closure-ooc closes this many linux-like graphs per run, generated
#: from ``seed``, ``seed + BASKET_STRIDE``, ...  The superstep count of
#: one graph depends on its seed (about 90 for most, up to 190 for some),
#: so a run's time on one graph alone swings with the seed; over a
#: basket it stays close to the typical mix.
BASKET = 3
BASKET_STRIDE = 1000


def basket_seeds(seed: int) -> List[int]:
    return [seed + BASKET_STRIDE * k for k in range(BASKET)]


def linux_workload(seed: int, scale: float):
    from repro.workloads import linux_like

    return linux_like(scale=scale, seed=seed)


def postgresql_workload(seed: int, scale: float):
    from repro.workloads import postgresql_like

    return postgresql_like(scale=scale, seed=seed)


def _function_span(text: str, start: int) -> Tuple[int, int]:
    return start, text.index("\n}\n", start) + 3


def _root_functions(sources: Sources) -> List[Tuple[int, int]]:
    """``(module index, offset)`` of every base-layer root function.

    The base layer is the generator's filler call tree; injected bug
    gadgets live in functions of their own, so edits confined to it
    leave every ground-truth finding in place.  Its roots are inlined in
    one context each, so every edit costs about the same.
    """
    return [
        (mi, m.start())
        for mi, (_, text) in enumerate(sources)
        for m in _ROOT_FUNCTION.finditer(text)
    ]


def _add_assignment(sources: Sources, rng: random.Random) -> Sources:
    """Add ``pA = pB;`` between two pointer locals of one root function.

    The symbols already exist, so the vertex set is unchanged and the
    closure store can re-close incrementally.
    """
    candidates = []
    for mi, start in _root_functions(sources):
        text = sources[mi][1]
        lo, hi = _function_span(text, start)
        body = text[lo:hi]
        if _ANCHOR not in body:
            continue
        present = set(_ASSIGN.findall(body))
        candidates.extend(
            (mi, lo + body.index(_ANCHOR), a, b)
            for a in _POINTERS for b in _POINTERS
            if a != b and (a, b) not in present
        )
    if not candidates:
        raise ValueError("no root function left to add an assignment to")
    mi, at, a, b = rng.choice(candidates)
    text = sources[mi][1]
    edited = text[:at] + f"    {a} = {b};\n" + text[at:]
    return [
        (name, edited if i == mi else src) for i, (name, src) in enumerate(sources)
    ]


def _delete_store(sources: Sources, rng: random.Random) -> Sources:
    """Delete one original ``*slot = p3;`` store of a root function."""
    sites = []
    for mi, start in _root_functions(sources):
        text = sources[mi][1]
        lo, hi = _function_span(text, start)
        if _DELETABLE in text[lo:hi]:
            sites.append((mi, lo + text[lo:hi].index(_DELETABLE)))
    mi, at = rng.choice(sites)
    text = sources[mi][1]
    edited = text[:at] + text[at + len(_DELETABLE):]
    return [
        (name, edited if i == mi else src) for i, (name, src) in enumerate(sources)
    ]


def edit_kind(index: int) -> str:
    return "delete" if index % DELETE_EVERY == DELETE_EVERY - 1 else "add"


def edit_stream(sources: Sources, seed: int) -> Iterator[Sources]:
    """Cumulative seeded edits: each yielded program edits the previous."""
    rng = random.Random(seed)
    current = list(sources)
    index = 0
    while True:
        if edit_kind(index) == "delete":
            current = _delete_store(current, rng)
        else:
            current = _add_assignment(current, rng)
        yield current
        index += 1
