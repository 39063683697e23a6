"""Invariant suites: closure under flips, duality, faces, and complementation.

Runnable standalone (pytest tests/test_properties.py); every suite uses a
fixed seed so failures replay deterministically.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uso_kit import (
    Outmap,
    canonical_form,
    dual,
    complement_vertex,
    enumerate_odd,
    faces_iter,
    flip,
    full_mask,
    hamming_codewords,
    induced_outmap,
    is_border,
    is_odd,
    is_puso,
    is_uso_fast,
    klee_minty,
    random_odd,
    random_puso,
    random_uso,
)

from conftest import random_outmap
from test_enumeration import random_relabeling

FLIPS_PER_DIMENSION = 200


def test_flip_closure_for_usos():
    """Flipping any coordinate set of a USO yields a USO."""
    rng = random.Random(101)
    for n in range(1, 5):
        for _ in range(FLIPS_PER_DIMENSION // 8):
            phi = random_uso(n, rng)
            for _ in range(8):
                r = rng.randrange(1 << n)
                phi = flip(phi, r)
                assert is_uso_fast(phi)


def test_flip_closure_for_pusos():
    rng = random.Random(202)
    for n in range(2, 5):
        for _ in range(FLIPS_PER_DIMENSION // 8):
            phi = random_puso(n, rng)
            for _ in range(8):
                phi = flip(phi, rng.randrange(1 << n))
                assert is_puso(phi)


def test_duality_involution():
    rng = random.Random(303)
    samples = [klee_minty(n) for n in range(6)]
    samples += [random_odd(4, rng) for _ in range(50)]
    samples += [dual(random_odd(3, rng)) for _ in range(50)]
    for phi in samples:
        assert dual(dual(phi)) == phi


def test_odd_face_closure():
    """Every face of an odd USO induces an odd USO."""
    rng = random.Random(404)
    samples = [random_odd(4, rng) for _ in range(12)] + [klee_minty(4), klee_minty(3)]
    for phi in samples:
        for face in faces_iter(phi.n, min_dim=1):
            assert is_odd(induced_outmap(phi, face))[0]


def test_every_two_face_of_an_odd_uso_is_a_bow():
    bows = {phi.values for phi in enumerate_odd(2)}
    assert len(bows) == 8
    rng = random.Random(505)
    samples = list(enumerate_odd(3)) + [random_odd(4, rng) for _ in range(40)]
    for phi in samples:
        for face in faces_iter(phi.n):
            if face.dim == 2:
                assert induced_outmap(phi, face).values in bows


def test_uso_face_closure():
    rng = random.Random(606)
    for _ in range(25):
        phi = random_uso(4, rng)
        for face in faces_iter(4, min_dim=1):
            assert is_uso_fast(induced_outmap(phi, face))


def test_puso_facets_are_border_usos():
    """Both facets along every coordinate of a PUSO satisfy the border condition."""
    rng = random.Random(707)
    for n in (2, 3, 4):
        for _ in range(10):
            phi = random_puso(n, rng)
            for face in faces_iter(n):
                if face.dim != n - 1:
                    continue
                facet = induced_outmap(phi, face)
                assert is_border(facet)[0]


@given(st.integers(2, 6))
@settings(max_examples=20)
def test_decreasing_path_xor_homomorphism(n):
    """Values of the decreasing-path USO are linear over vertex XOR."""
    km = klee_minty(n)
    rng = random.Random(n)
    for _ in range(200):
        u = rng.randrange(1 << n)
        v = rng.randrange(1 << n)
        assert km[u] ^ km[v] == km[u ^ v]


@given(st.integers(0, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_invariant_under_symmetries(n, rng):
    """A random cube symmetry V -> sigma(V) XOR R leaves the canonical form fixed."""
    phi = random_puso(n, rng) if n >= 2 and rng.random() < 0.5 else random_outmap(n, rng)
    assert canonical_form(random_relabeling(phi, rng)) == canonical_form(phi)


def test_complementation_order_independence():
    """Complementing codeword vertices commutes and lands on one outmap."""
    words = hamming_codewords(8).words
    base = klee_minty(7)
    rng = random.Random(808)
    for _ in range(6):
        chosen = rng.sample(words, rng.randrange(2, 6))
        forward = base
        for w in sorted(chosen):
            forward = complement_vertex(forward, w)
        shuffled = list(chosen)
        rng.shuffle(shuffled)
        backward = base
        for w in shuffled:
            backward = complement_vertex(backward, w)
        assert forward == backward
        assert is_odd(forward)[0]


def test_flip_by_full_mask_reverses_global_sink_to_source():
    rng = random.Random(909)
    for n in range(1, 5):
        phi = random_uso(n, rng)
        reversed_phi = flip(phi, full_mask(n))
        sink = next(v for v in range(1 << n) if phi[v] == 0)
        assert reversed_phi[sink] == full_mask(n)
