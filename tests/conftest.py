"""Shared samplers and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from orbispec import GeneratorSet, GroupElement, GroupSpec, OrbitBall, enumerate_ball
from orbispec.exponents import relative_chamber_matrix

SQRT2 = np.sqrt(2.0)


def sl3_generators() -> np.ndarray:
    """Elementary generators of SL(3,Z) with their inverses, as int64 stack."""
    mats = []
    for (i, j) in ((0, 1), (1, 2), (0, 2)):
        for sign in (1, -1):
            m = np.eye(3, dtype=np.int64)
            m[i, j] = sign
            mats.append(m)
    return np.stack(mats)


def random_sl3_words(rng: np.random.Generator, count: int, length: int = 8) -> np.ndarray:
    """Batch of products of `length` random elementary generators, (count, 3, 3)."""
    gens = sl3_generators()
    out = np.broadcast_to(np.eye(3, dtype=np.int64), (count, 3, 3)).copy()
    for _ in range(length):
        pick = gens[rng.integers(0, len(gens), size=count)]
        out = np.einsum("nij,njk->nik", out, pick)
    return out


def sanov_generators(spec: GroupSpec | None = None):
    """Free generating pair of the level-2 congruence subgroup of SL(2,Z)."""
    spec = spec or GroupSpec.sl(2)
    a = GroupElement(spec, (((1, 2), (0, 1)),))
    b = GroupElement(spec, (((1, 0), (2, 1)),))
    return GeneratorSet.from_elements([a, b])


def cyclic_hyperbolic_generator():
    """diag(e, 1/e) in float mode; word n sits at Riemannian distance n*sqrt(2)."""
    spec = GroupSpec.sl(2, "float")
    e = float(np.e)
    return GeneratorSet.from_elements([GroupElement(spec, (((e, 0.0), (0.0, 1.0 / e)),))])


def orthonormal_sym2_generators():
    """The Sanov generators of Gamma(2) through the symmetric square, in an
    orthonormal basis of quadratic forms: float SL(3,R) elements with
    entries in sqrt(2) Z, so the set is not integral.  Every element's
    singular values are the squares of its Gamma(2) preimage's, so d and d'
    are twice the Gamma(2) distance d."""
    spec = GroupSpec.sl(3, "float")
    out = []
    for (a, b), (c, d) in (((1, 2), (0, 1)), ((1, 0), (2, 1))):
        m = ((a * a, SQRT2 * a * b, b * b), (SQRT2 * a * c, a * d + b * c, SQRT2 * b * d),
             (c * c, SQRT2 * c * d, d * d))
        out.append(GroupElement(spec, (m,)))
    return GeneratorSet.from_elements(out)


def dict_walk(gens: GeneratorSet, L: int) -> OrbitBall:
    """Reference ball of an exact or integral generating set by a dictionary
    walk over single elements: every frontier x generator product, formed on
    flat entry tuples (the int values of a float set's entries), is kept
    where no earlier product or level holds it.  Its levels are object rows
    in the order in which their elements first occur."""
    spec = gens.spec

    def mul(a, b):
        out = []
        for n, sl in zip(spec.sizes, spec.entry_slices):
            x, y = a[sl], b[sl]
            out += [sum(x[i * n + k] * y[k * n + j] for k in range(n))
                    for i in range(n) for j in range(n)]
        return tuple(out)

    cast = int if spec.arithmetic == "float" else (lambda x: x)
    gen_tuples = [tuple(map(cast, g.flat_entries())) for g in gens.elements]
    levels = [[tuple(map(cast, GroupElement.identity(spec).flat_entries()))]]
    seen = set(levels[0])
    exhausted = False
    for _ in range(L):
        new = []
        for a in levels[-1]:
            for g in gen_tuples:
                prod = mul(a, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        if not new:
            exhausted = True
            break
        levels.append(new)
    return OrbitBall(spec, L, [np.array(lvl, dtype=object) for lvl in levels], exhausted)


def ball_elements(ball):
    """Every element of a ball as a GroupElement, in element order."""
    return map(ball.element, range(len(ball)))


def float_image(ball) -> np.ndarray:
    """The float64 entries of a whole ball, one (N, m) array in element order."""
    return np.concatenate(list(ball.float_row_blocks()))


def chamber_matrix(ball, x=None, y=None) -> np.ndarray:
    """The (N, ambient_dim) Cartan projections of x^-1 gamma y over a ball:
    the row blocks of the chamber pass, stacked in element order."""
    blocks = []
    relative_chamber_matrix(ball, x, y, lambda start, block: blocks.append(block))
    return np.concatenate(blocks)


def word_lengths(ball) -> np.ndarray:
    """The word length of each element of a ball, built from its level sizes."""
    return np.repeat(np.arange(len(ball.growth_per_level)), ball.growth_per_level)


@pytest.fixture(scope="session")
def sanov_ball_8():
    return enumerate_ball(sanov_generators(), 8)


@pytest.fixture(scope="session")
def cyclic_ball_20():
    return enumerate_ball(cyclic_hyperbolic_generator(), 20)
