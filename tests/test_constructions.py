"""Generators: decreasing-path USOs, cyclic PUSOs, doubling, complementation."""

import random

import pytest

from uso_kit import (
    CyclicPermutation,
    NotAUsoError,
    Outmap,
    Parity,
    PreconditionViolatedError,
    ResourceLimitError,
    complement_vertex,
    cyclic_puso,
    dual,
    enumerate_usos,
    extend_border,
    face_sinks,
    flip,
    full_mask,
    hamming_codewords,
    is_complementable,
    is_odd,
    is_puso,
    is_uso_fast,
    klee_minty,
    odd_family,
    puso_parity,
)
from uso_kit import constructions

from conftest import BORDER_3, BOW, KM_3, TWIN_PEAK


def random_cycle(n: int, rng) -> CyclicPermutation:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    mapping = [0] * n
    for i, src in enumerate(order):
        mapping[src - 1] = order[(i + 1) % n]
    return CyclicPermutation(tuple(mapping))


# ---------------------------------------------------------------------------
# decreasing-path USOs


def test_klee_minty_fixed_values():
    assert klee_minty(0).values == (0,)
    assert klee_minty(1).values == (0, 1)
    assert klee_minty(2).values == BOW
    assert klee_minty(3).values == KM_3


@pytest.mark.parametrize("n", range(0, 6))
def test_klee_minty_is_odd(n):
    assert is_odd(klee_minty(n))[0]


@pytest.mark.parametrize("n", range(11))
def test_klee_minty_matches_its_definition(n):
    """Coordinate j is outgoing at V iff |V intersect {j..n}| is odd, vertex by vertex."""
    expected = tuple(
        sum(((v >> pos).bit_count() & 1) << pos for pos in range(n)) for v in range(1 << n)
    )
    assert klee_minty(n).values == expected


@pytest.mark.parametrize("n", (2, 3, 4))
def test_klee_minty_xor_homomorphism(n):
    """The construction is linear: values of u and v XOR to the value of u^v."""
    km = klee_minty(n)
    size = 1 << n
    for u in range(size):
        for v in range(size):
            assert km[u] ^ km[v] == km[u ^ v]


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_klee_minty_has_directed_hamiltonian_path(n):
    """Vertices ordered by decreasing value form a directed path."""
    km = klee_minty(n)
    order = dual(km).values
    path = [order[x] for x in reversed(range(1 << n))]
    for here, there in zip(path, path[1:]):
        step = here ^ there
        assert step.bit_count() == 1
        assert km[here] & step


def test_klee_minty_complementary_pairs_at_distance_one():
    for n in (2, 3, 4):
        km = klee_minty(n)
        inverse = dual(km).values
        for v in range(1 << n):
            partner = inverse[km[v] ^ full_mask(n)]
            assert (v ^ partner).bit_count() == 1


# ---------------------------------------------------------------------------
# cyclic PUSOs


def test_cyclic_permutation_validation():
    assert CyclicPermutation.shift(3).mapping == (2, 3, 1)
    assert CyclicPermutation.parse("2,3,1")(1) == 2
    with pytest.raises(ValueError):
        CyclicPermutation((2, 2, 1))        # not a permutation
    with pytest.raises(ValueError):
        CyclicPermutation((1, 3, 2))        # fixed point, not one cycle
    with pytest.raises(ValueError):
        CyclicPermutation((2, 1, 4, 3))     # two 2-cycles


def test_cyclic_puso_fixed_values():
    assert cyclic_puso(2).values == TWIN_PEAK
    phi = cyclic_puso(3)
    assert phi[0b001] == 0b101     # outgoing at {1}: coordinates 1 and 3
    assert phi[0b000] == 0


def test_cyclic_puso_requires_two_dimensions():
    with pytest.raises(ValueError):
        cyclic_puso(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_cyclic_puso_is_puso(n):
    phi = cyclic_puso(n)
    assert is_puso(phi)
    # value of the empty set is empty, so the parity is even: two sinks
    assert puso_parity(phi) is Parity.EVEN
    assert len(face_sinks(phi)) == 2


@pytest.mark.parametrize("n", range(2, 11))
def test_cyclic_puso_matches_its_definition(n):
    """Coordinate i is outgoing at V iff exactly one of i, perm(i) lies in V, vertex by vertex."""
    rng = random.Random(n)
    for perm in (CyclicPermutation.shift(n), random_cycle(n, rng), random_cycle(n, rng)):
        expected = tuple(
            sum(((v >> (i - 1) ^ v >> (perm(i) - 1)) & 1) << (i - 1) for i in range(1, n + 1))
            for v in range(1 << n)
        )
        assert cyclic_puso(n, perm).values == expected


def test_cyclic_puso_random_cycles():
    rng = random.Random(7)
    for n in range(2, 6):
        for _ in range(5):
            assert is_puso(cyclic_puso(n, random_cycle(n, rng)))


# ---------------------------------------------------------------------------
# doubling a border USO


def test_extend_border_fixed_values():
    assert extend_border(Outmap(2, BOW), 0).values == (0, 5, 3, 6, 6, 3, 5, 0)


def test_extend_border_both_bits_give_pusos():
    bow = Outmap(2, BOW)
    for bit in (0, 1):
        doubled = extend_border(bow, bit)
        assert is_puso(doubled)
        # whole-cube antipodal vertices carry equal values
        for v in range(8):
            assert doubled[v] == doubled[v ^ 0b111]
    assert extend_border(bow, 0) != extend_border(bow, 1)


def test_extend_border_on_eyes_gives_non_pusos():
    eyes = [phi for phi in enumerate_usos(2) if not is_odd(phi)[0]]
    assert len(eyes) == 4
    for eye in eyes:
        for bit in (0, 1):
            assert not is_puso(extend_border(eye, bit))


def test_extend_border_rejects_non_usos(twin_peak):
    with pytest.raises(NotAUsoError):
        extend_border(twin_peak, 0)


def test_extend_border_refuses_a_result_above_the_cap_before_the_uso_check(monkeypatch):
    """A 20-cube would extend to dimension 21: refused before any face of it is scanned."""

    def no_scan(phi):
        raise AssertionError("is_uso_fast ran before the dimension check")

    monkeypatch.setattr(constructions, "is_uso_fast", no_scan)
    with pytest.raises(ResourceLimitError, match="^dimension 21 exceeds the cap of 20$"):
        extend_border(klee_minty(20), 0)


# ---------------------------------------------------------------------------
# complementation


def test_complement_vertex_fixed_values(km_3):
    assert complement_vertex(km_3, 0).values == (7, 0, 1, 2, 3, 6, 4, 5)


def test_complement_vertex_is_raw_edge_reversal(km_3):
    """The operation XORs the full mask at w and bit i at each neighbor."""
    out = complement_vertex(km_3, 0)
    values = list(out.values)
    values[0] ^= 0b111
    for pos in range(3):
        values[1 << pos] ^= 1 << pos
    assert tuple(values) == KM_3
    # values permute among affected vertices, so the multiset is unchanged
    assert sorted(out.values) == sorted(KM_3)


def test_complement_vertex_consumes_its_precondition(km_3):
    """Reversing twice would be the identity, but the staircase shape at the
    complemented vertex is reversed, so the guarded operation refuses."""
    out = complement_vertex(km_3, 0)
    assert not is_complementable(out, 0)
    with pytest.raises(PreconditionViolatedError):
        complement_vertex(out, 0)


def test_complement_vertex_preserves_oddness(km_3):
    for w in range(8):
        assert is_odd(complement_vertex(km_3, w))[0]


def test_every_km_vertex_is_complementable():
    for n in (2, 3, 4):
        km = klee_minty(n)
        assert all(is_complementable(km, w) for w in range(1 << n))


def test_complement_vertex_precondition(border_3):
    assert not is_complementable(border_3, 0)
    with pytest.raises(PreconditionViolatedError):
        complement_vertex(border_3, 0)


def test_complement_commutes_for_distant_vertices(km_3):
    # closed neighborhoods of 000 and 111 are disjoint
    one_way = complement_vertex(complement_vertex(km_3, 0), 7)
    other = complement_vertex(complement_vertex(km_3, 7), 0)
    assert one_way == other
    assert is_odd(one_way)[0]


# ---------------------------------------------------------------------------
# codewords and the lower-bound family


def test_hamming_codewords_smallest():
    words = hamming_codewords(4)
    assert words.block_length == 3
    assert words.words == (0, 0b111)


def test_hamming_codewords_block_seven():
    words = hamming_codewords(8)
    assert words.block_length == 7
    assert len(words.words) == 16
    assert 0 in words.words
    for w in words.words:
        # positions of set bits XOR to zero: the parity-check condition
        syndrome = 0
        for pos in range(7):
            if w >> pos & 1:
                syndrome ^= pos + 1
        assert syndrome == 0
    for a in words.words:
        for b in words.words:
            if a != b:
                assert (a ^ b).bit_count() >= 3


def test_hamming_codewords_rejects_bad_lengths():
    for n in (1, 2, 3, 6, 12):
        with pytest.raises(ValueError):
            hamming_codewords(n)


def test_odd_family_smallest_case():
    members = [odd_family(4, t) for t in range(4)]
    assert len({m.values for m in members}) == 4
    for phi in members:
        assert phi.n == 3
        assert is_odd(phi)[0]
    assert odd_family(4, 0) == klee_minty(3)


def test_odd_family_selector_range():
    with pytest.raises(ValueError):
        odd_family(4, 4)
    with pytest.raises(ValueError):
        odd_family(4, -1)


def test_odd_family_spot_check_block_seven():
    for t in (0, 1, 0xFFFF, 0x1234):
        phi = odd_family(8, t)
        assert phi.n == 7
        assert is_odd(phi)[0]


# ---------------------------------------------------------------------------
# flips


def test_flip_fixed(bow):
    assert flip(bow, 0b11).values == (3, 2, 0, 1)
    assert flip(bow, 0) == bow
    assert flip(flip(bow, 0b01), 0b01) == bow


def test_flip_validates_coordinates(bow):
    with pytest.raises(ValueError):
        flip(bow, 0b100)


def test_flip_preserves_uso(km_3):
    for r in range(8):
        assert is_uso_fast(flip(km_3, r))
