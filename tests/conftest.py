"""Shared fixtures: the randomized network corpus and its solved spectra."""

import numpy as np
import pytest

from acnet_spectra import Edge, Network, assemble, eigenvalues

CORPUS_SEED = 0
CORPUS_SIZE = 200


def random_elements(rng):
    """Uniform (L, R, D) in [0, 1]^3 with a positive sum."""
    while True:
        L, R, D = rng.random(3)
        if L + R + D > 1e-6:
            return float(L), float(R), float(D)


def random_connected_network(rng, n_min=2, n_max=10):
    """Random spanning tree plus extra edges with probability 1/4."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = random_elements(rng)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.25:
                edges[(i, j)] = random_elements(rng)
    return Network(
        tuple(f"v{i}" for i in range(n)),
        tuple(Edge(u, v, *e) for (u, v), e in sorted(edges.items())),
    )


def random_frequency(rng, real=False, re_max=3.0, im_max=3.0):
    """Re s uniform in (0, re_max], Im s uniform in [-im_max, im_max]."""
    re = re_max * (1.0 - rng.random())
    im = 0.0 if real else float(rng.uniform(-im_max, im_max))
    return complex(re, im)


def build_corpus(seed=CORPUS_SEED, size=CORPUS_SIZE):
    """Random (network, frequency) pairs; every fifth frequency is real."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(size):
        net = random_connected_network(rng)
        s = random_frequency(rng, real=(k % 5 == 0))
        out.append((net, s))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def solved_corpus(corpus):
    """(network, s, spectrum, dual spectrum) for every corpus instance."""
    out = []
    for net, s in corpus:
        spectrum = eigenvalues(assemble(net, s).entries)
        dual_spectrum = eigenvalues(assemble(net, s.conjugate()).entries)
        out.append((net, s, spectrum, dual_spectrum))
    return out
