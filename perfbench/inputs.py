"""Seeded request generators for the graftop benchmark.

Inputs are tree *text* in the ``label:weight[child,...]`` grammar, built
with the standard library only, so every commit under test receives
byte-identical inputs for the same seed.  A run is a sequence of sessions
and each session answers one batch.  Every batch holds the same requests up
to labels and weights: the order of the requests, their tree shapes and
specializations are fixed, and the seed draws only the labels and the
weights.  The work per batch then barely depends on the seed, which keeps
the spread between seeds small.
"""

from __future__ import annotations

import random

# Labels come from a bounded pool, as a user's labels would; the trees of one
# request draw distinct ones.
COMPOSE_POOL = tuple(f"n{i}" for i in range(10, 50))

# compose_lambda enumerates m**k reattachment maps; every (k, m) class up to
# this many maps appears once per session.
MAX_MAPS = 3125
COMPOSE_CLASSES = tuple(
    (k, m) for k in range(1, 6) for m in range(2, 8) if m**k <= MAX_MAPS
)
ARROWS_PER_SESSION = 12
CIRC_SUMS_PER_SESSION = 8
# Half the requests stay symbolic, the rest specialize at L = 0 or L = 1 as
# ``--lambda`` does; assigned by request slot.
LAMBDAS = (None, 0, None, 1)


def rng_for(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


def text(node) -> str:
    """Render a ``(label, weight, children)`` node in the tree grammar."""
    label, w, kids = node
    if not kids:
        return f"{label}:{w}"
    return f"{label}:{w}[" + ",".join(text(c) for c in kids) + "]"


def total_weight(node) -> int:
    return node[1] + sum(total_weight(c) for c in node[2])


def _parents(n: int, slot: str) -> list[int]:
    """Fixed random recursive tree shape for a request slot: vertex i hangs
    below an earlier vertex."""
    shape = random.Random(slot)
    return [shape.randrange(i) for i in range(1, n)]


def _tree(labels, weights, parents):
    kids = [[] for _ in labels]
    for child, par in enumerate(parents, start=1):
        kids[par].append(child)

    def build(i):
        return (labels[i], weights[i], [build(j) for j in kids[i]])

    return build(0)


def _weights(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(1, 3) for _ in range(n)]


def _compose_request(rng: random.Random, index: int, k: int, m: int):
    """Host r[v[branches], leaf] with k branches below v (alternately one and
    two vertices) and an inserted tree of m vertices whose total weight is
    v's weight."""
    branch_sizes = [1 + i % 2 for i in range(k)]
    labels = rng.sample(COMPOSE_POOL, 3 + sum(branch_sizes) + m)
    root, v, sibling = labels[:3]
    rest = labels[3:]
    branches = []
    for size in branch_sizes:
        chunk, rest = rest[:size], rest[size:]
        branches.append(_tree(chunk, _weights(rng, size), [0] * (size - 1)))
    inserted = _tree(rest, _weights(rng, m), _parents(m, f"compose:{k}:{m}"))
    slot = (v, total_weight(inserted), branches)
    host = (root, rng.randint(1, 3), [slot, (sibling, rng.randint(1, 3), [])])
    return ("compose", text(host), v, text(inserted), LAMBDAS[index % len(LAMBDAS)])


def _arrow_request(rng: random.Random, index: int):
    size, graft = 3 + index % 5, 1 + index % 3
    labels = rng.sample(COMPOSE_POOL, size + graft)
    x = _tree(labels[:size], _weights(rng, size), _parents(size, f"arrow:x:{index}"))
    y = _tree(labels[size:], _weights(rng, graft), _parents(graft, f"arrow:y:{index}"))
    return ("arrow", text(x), text(y), LAMBDAS[index % len(LAMBDAS)])


def _circ_sum_request(rng: random.Random, index: int):
    """T with 3..5 vertices of which exactly one, at a fixed position, has
    the weight of S; S has 1..3 vertices."""
    size, graft = 3 + index % 3, 1 + index % 3
    labels = rng.sample(COMPOSE_POOL, size + graft)
    s = _tree(labels[size:], _weights(rng, graft), _parents(graft, f"circsum:s:{index}"))
    w = total_weight(s)
    weights = [rng.choice([x for x in (1, 2, 3, 4) if x != w]) for _ in range(size)]
    weights[index % size] = w
    t = _tree(labels[:size], weights, _parents(size, f"circsum:t:{index}"))
    return ("circsum", text(t), text(s), LAMBDAS[index % len(LAMBDAS)])


def compose_session(seed: int, session: int) -> list[tuple]:
    """One batch of compose-wide requests: every compose class once, then
    grafting products and slot sums."""
    rng = rng_for("compose-wide", seed, session)
    requests = [_compose_request(rng, i, k, m) for i, (k, m) in enumerate(COMPOSE_CLASSES)]
    requests += [_arrow_request(rng, i) for i in range(ARROWS_PER_SESSION)]
    requests += [_circ_sum_request(rng, i) for i in range(CIRC_SUMS_PER_SESSION)]
    return requests
