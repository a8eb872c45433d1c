"""Seeded inputs for the benchmark workloads.

Every input is a pure function of a text key, so the stored reference hashes
in ``reference.json`` cover it on any machine.  A run's ``--seed`` only
chooses which pool entries are used and in which order; the same seed gives
the same inputs, and the program under test receives nothing but the
generated inputs.  This module imports nothing from the library, so the
run.py can build the CLI requests without loading it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

# decompose: one op per cell per round, on the diagonal of (n, d).
CELLS = ((3, 9), (4, 8), (5, 7), (6, 6), (7, 5))
# Pool entries examined per cell when the reference is built; those whose
# Reynolds projection is zero are left out of the reference.
DECOMPOSE_CANDIDATES = 40
# Inputs a run draws per cell: one for the warm-up, the rest cycled by the
# timed rounds.
DECOMPOSE_DRAW = 10

# generators: every pair (i, j) at these ranks, 46 ops per round.
GENERATOR_RANKS = (5, 6, 7)

# cli: variants per request kind that draws its argument at random.
CLI_VARIANTS = 8
# Requests without a drawn argument: selftest and the three heavy ones.
FIXED_REQUESTS = {
    "selftest": ["selftest"],
    "invariant-basis": ["invariant-basis", "--n", "4", "--max-degree", "6"],
    "generator-lie": ["generator-lie", "--n", "6"],
    "verify-relations": ["verify-relations", "--n", "6"],
}
# The fixed requests of one round.  generator-lie, the cheapest heavy
# request, comes twice, so the tail percentile falls inside its cluster.
ROUND_FIXED = ("selftest", "invariant-basis", "generator-lie", "generator-lie", "verify-relations")
# Exit code and stderr prefix the CLI documents for each error request.
ERROR_CONTRACT = {
    "parse-error": (1, "parse error:"),
    "preimage-nonmember": (2, "error:"),
    "decompose-noninvariant": (2, "error:"),
}

_NONZERO = tuple(k for k in range(-9, 10) if k)


def keyed_rng(*parts) -> random.Random:
    """A generator seeded by the text of ``parts`` (stable across runs)."""
    return random.Random(":".join(str(p) for p in parts))


def _coeff_text(rng) -> str:
    return str(Fraction(rng.choice(_NONZERO), rng.randint(1, 5)))


def _signed_sum(rng, bodies) -> str:
    """The bodies with random rational coefficients; the first is positive, so
    the text never starts with "-" (which argparse would read as an option)."""
    out = ""
    for body in bodies:
        c = _coeff_text(rng)
        sign, mag = ("-", c[1:]) if c.startswith("-") else ("+", c)
        term = body if mag == "1" else f"{mag}*{body}"
        out = f"{out} {sign} {term}" if out else term
    return out


# ---------------------------------------------------------------- decompose

def commutator_indices(rng, n, d):
    """Index sequence (i1, i2, tail...) of a random degree-d basis bracket."""
    i2 = rng.randint(1, n - 1)
    i1 = rng.randint(i2 + 1, n)
    return (i1, i2) + tuple(sorted(rng.randint(i2, n) for _ in range(d - 2)))


def decompose_element_text(n, d, k) -> str:
    """Pool entry k of cell (n, d): 3 distinct basis commutators of degree d
    with nonzero rational coefficients, written in the Lie grammar."""
    rng = keyed_rng("decompose", n, d, k)
    seen = []
    while len(seen) < 3:
        idx = commutator_indices(rng, n, d)
        if idx not in seen:
            seen.append(idx)
    return _signed_sum(rng, ["[" + ",".join(f"x{i}" for i in idx) + "]" for idx in seen])


def decompose_plan(seed, accepted):
    """{cell: [pool index, ...]} drawn by ``seed`` from the accepted entries;
    the first index of each cell is the warm-up input."""
    rng = random.Random(seed)
    return {cell: rng.sample(accepted[cell], DECOMPOSE_DRAW) for cell in CELLS}


def cell_key(cell) -> str:
    return f"n{cell[0]}d{cell[1]}"


# --------------------------------------------------------------- generators

def generator_pairs():
    return [(n, i, j) for n in GENERATOR_RANKS for i, j in combinations(range(1, n + 1), 2)]


def generator_order(seed, round_index):
    """The seeded order of the 46 generator ops in one round."""
    ops = generator_pairs()
    random.Random(f"{seed}:{round_index}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------- cli

def _bracket_text(rng, n, d) -> str:
    """A left-normed bracket with entries in any order (not basis form)."""
    return "[" + ",".join(f"x{rng.randint(1, n)}" for _ in range(d)) + "]"


def _lie_text(rng, n, terms, dmin, dmax) -> str:
    bodies = []
    for _ in range(terms):
        if rng.random() < 0.25:
            a = f"[x{rng.randint(1, n)},x{rng.randint(1, n)}]"
            b = f"[x{rng.randint(1, n)},x{rng.randint(1, n)}]"
            bodies.append(f"[{a},{b}]")
        else:
            bodies.append(_bracket_text(rng, n, rng.randint(dmin, dmax)))
    return _signed_sum(rng, bodies)


def _poly_text(rng, n, terms, dmax) -> str:
    bodies = []
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(1, dmax)):
            exps[rng.randrange(n)] += 1
        bodies.append("*".join(
            f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
        ))
    return _signed_sum(rng, bodies)


def _symmetrized_text(rng, n) -> str:
    """A sum over S_n of one permuted bracket: invariant by construction."""
    idx = commutator_indices(rng, n, rng.randint(3, 4))
    coeff = _coeff_text(rng).lstrip("-")
    return " + ".join(
        f"{coeff}*[" + ",".join(f"x{sigma[i - 1]}" for i in idx) + "]"
        for sigma in permutations(range(1, n + 1))
    )


def cli_variant(kind, k):
    """argv (after ``metabelian``) of variant k of a request kind."""
    rng = keyed_rng("cli", kind, k)
    json_flag = ["--json"] if rng.random() < 0.5 else []
    if kind == "normal-form":
        return ["normal-form", "--n", "4", *json_flag, _lie_text(rng, 4, 3, 2, 5)]
    if kind == "embed":
        return ["embed", "--n", "4", *json_flag, _lie_text(rng, 4, 3, 2, 5)]
    if kind == "is-invariant":
        text = _symmetrized_text(rng, 3) if rng.random() < 0.5 else _lie_text(rng, 3, 2, 2, 4)
        return ["is-invariant", "--n", "3", *json_flag, text]
    if kind == "reynolds":
        return ["reynolds", "--n", "5", *json_flag, _lie_text(rng, 5, 2, 3, 4)]
    if kind == "symmetrize-poly":
        return ["symmetrize-poly", "--n", "4", *json_flag, _poly_text(rng, 4, 3, 3)]
    if kind == "generators":
        return ["generators", "--n", "4", *json_flag]
    if kind == "decompose":
        return ["decompose", "--n", "3", *json_flag, _symmetrized_text(rng, 3)]
    if kind == "parse-error":
        text = _lie_text(rng, 4, 2, 2, 4)
        return ["normal-form", "--n", "4", text[: text.rindex("]")]]
    if kind == "preimage-nonmember":
        poly = _poly_text(rng, 3, 1, 2)
        return ["preimage", "--n", "3", f"u{rng.randint(1, 3)}*( {poly} )"]
    if kind == "decompose-noninvariant":
        return ["decompose", "--n", "3", _lie_text(rng, 3, 1, 3, 3)]
    raise KeyError(kind)


# Request kinds that draw one of CLI_VARIANTS arguments.
VARIANT_KINDS = (
    "normal-form", "embed", "is-invariant", "reynolds", "symmetrize-poly",
    "generators", "decompose", *ERROR_CONTRACT,
)


def cli_round(seed, round_index):
    """The 15 requests of one round in seeded order, as (kind, variant, argv);
    variant is None for the fixed requests."""
    rng = random.Random(f"{seed}:{round_index}")
    requests = []
    for kind in VARIANT_KINDS:
        k = rng.randrange(CLI_VARIANTS)
        requests.append((kind, k, cli_variant(kind, k)))
    for kind in ROUND_FIXED:
        requests.append((kind, None, list(FIXED_REQUESTS[kind])))
    rng.shuffle(requests)
    return requests


# ------------------------------------------------------- invariant counting

def partitions_bounded(m, n) -> int:
    """Partitions of m into parts of size at most n."""
    ways = [1] + [0] * m
    for part in range(1, n + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def hilbert_function(n, d) -> int:
    """Dimension of the degree-d S_n-invariants of the free metabelian Lie
    algebra of rank n: 1 for d = 1, and for d >= 2
    sum_{j=1}^{min(n,d)} p_n(d-j) - p_n(d)."""
    if d == 1:
        return 1
    return sum(partitions_bounded(d - j, n) for j in range(1, min(n, d) + 1)) - partitions_bounded(d, n)
