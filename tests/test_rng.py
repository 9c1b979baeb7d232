"""Generator contract tests.

The oracle here is a second, independently written implementation of
splitmix64 and xoshiro256** (kept deliberately different in style from the
library code), plus the published reference outputs for both generators.
"""

import math
import tracemalloc

import numpy as np
import pytest

import tosca.rng
from oracle import polymul
from tosca.rng import Xoshiro256StarStar, derive_seeds, splitmix64

M64 = 0xFFFFFFFFFFFFFFFF


def _oracle_splitmix(seed, count):
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


class _OracleXoshiro:
    def __init__(self, state):
        self.state = list(state)

    def next(self):
        s = self.state

        def rotl(x, k):
            return ((x << k) | (x >> (64 - k))) & M64

        result = (rotl((s[1] * 5) & M64, 7) * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result


def test_splitmix64_published_vectors():
    # first outputs for seed 0, from the reference implementation
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]


def test_splitmix64_matches_oracle():
    for seed in (0, 1, 42, 1993, M64, 2**63):
        assert splitmix64(seed, 16) == _oracle_splitmix(seed, 16)


def test_xoshiro_published_sequence_from_known_state():
    gen = Xoshiro256StarStar(0)
    gen._s = (1, 2, 3, 4)
    got = [gen.next_u64() for _ in range(5)]
    assert got == [11520, 0, 1509978240, 1215971899390074240,
                   1216172134540287360]


def test_xoshiro_stream_matches_oracle():
    for seed in (0, 7, 1993):
        for stream in (0, 1, 5):
            lib = Xoshiro256StarStar(seed, stream=stream)
            words = _oracle_splitmix(seed, 4 * (stream + 1))[4 * stream:]
            oracle = _OracleXoshiro(words)
            for _ in range(64):
                assert lib.next_u64() == oracle.next()


def test_seeding_uses_splitmix_blocks():
    # stream k's initial state is splitmix outputs [4k, 4k+4)
    gen = Xoshiro256StarStar(77, stream=2)
    assert list(gen._s) == splitmix64(77, 12)[8:12]


def test_derive_seeds_are_splitmix_outputs():
    assert derive_seeds(1993, 5) == splitmix64(1993, 5)
    assert derive_seeds(0, 1) == splitmix64(0, 1)


def _oracle(seed, stream=0):
    # the oracle stepping from a library generator's initial state: the
    # reference for every request below the bulk crossover, which runs the
    # same scalar loop as next_u64
    return _OracleXoshiro(Xoshiro256StarStar(seed, stream)._s)


def test_uniform_construction():
    gen = Xoshiro256StarStar(3)
    raw = _oracle(3)
    for _ in range(100):
        want = (raw.next() >> 11) * 2.0**-53
        assert gen.uniform() == want


def test_uniforms_batch_equals_scalar_stream():
    a = Xoshiro256StarStar(11).uniforms(257)
    b = Xoshiro256StarStar(11)
    assert np.array_equal(a, np.array([b.uniform() for _ in range(257)]))


def test_uniform_range_and_moments():
    u = Xoshiro256StarStar(1993).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_box_muller_first_pair():
    gen = Xoshiro256StarStar(5)
    z = gen.normals(2)
    raw = _oracle(5)
    x0, x1 = raw.next(), raw.next()
    u1 = ((x0 >> 11) + 1) * 2.0**-53
    u2 = (x1 >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    assert z[0] == pytest.approx(r * math.cos(2.0 * math.pi * u2), rel=1e-12)
    assert z[1] == pytest.approx(r * math.sin(2.0 * math.pi * u2), rel=1e-12)


def test_normals_spare_is_carried_across_calls():
    a = Xoshiro256StarStar(9)
    odd = np.concatenate([a.normals(3), a.normals(1)])
    b = Xoshiro256StarStar(9)
    assert np.array_equal(odd, b.normals(4))


def test_normals_moments_and_scaling():
    z = Xoshiro256StarStar(1993).normals(200_001)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    shifted = Xoshiro256StarStar(1993).normals(8, mean=3.0, std=0.5)
    base = Xoshiro256StarStar(1993).normals(8)
    assert np.allclose(shifted, 3.0 + 0.5 * base, rtol=0, atol=1e-15)


def test_below_replays_modulo():
    gen = Xoshiro256StarStar(21)
    raw = _oracle(21)
    for n in (1, 2, 10, 1000):
        assert gen.below(n) == raw.next() % n
    with pytest.raises(ValueError):
        gen.below(0)


def test_permutation_is_fisher_yates():
    gen = Xoshiro256StarStar(13)
    perm = gen.permutation(20)
    raw = _oracle(13)
    idx = list(range(20))
    for i in range(19, 0, -1):
        j = raw.next() % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    assert perm.tolist() == idx
    assert sorted(perm.tolist()) == list(range(20))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 500])
def test_permutation_replays_next_u64_fisher_yates(n):
    gen = Xoshiro256StarStar(17)
    raw = _oracle(17)
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = raw.next() % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    assert gen.permutation(n).tolist() == idx
    assert list(gen._s) == raw.state


@pytest.mark.parametrize("k", [0, 1, 2, 499, 65_535])
def test_scalar_uint64s_replay_next_u64(k):
    gen = Xoshiro256StarStar(29)
    raw = _oracle(29)
    words = gen.uint64s(k)
    assert words.dtype == np.uint64
    assert words.tolist() == [raw.next() for _ in range(k)]
    assert list(gen._s) == raw.state
    assert [gen.next_u64() for _ in range(3)] == [raw.next() for _ in range(3)]


def test_shuffle_agrees_with_permutation():
    items = list("abcdefghij")
    Xoshiro256StarStar(4).shuffle(items)
    perm = Xoshiro256StarStar(4).permutation(10)
    assert items == ["abcdefghij"[k] for k in perm]


def test_streams_are_distinct_and_deterministic():
    a = Xoshiro256StarStar(1993, stream=0).uint64s(8)
    b = Xoshiro256StarStar(1993, stream=1).uint64s(8)
    assert not np.array_equal(a, b)
    again = Xoshiro256StarStar(1993, stream=0).uint64s(8)
    assert np.array_equal(a, again)


# --- the bulk path -----------------------------------------------------------

def _berlekamp_massey(bits):
    """Shortest LFSR of a GF(2) sequence: (connection polynomial, length)."""
    c, b, length, shift = 1, 1, 0, 1
    for i, bit in enumerate(bits):
        d = bit
        for j in range(1, length + 1):
            d ^= (c >> j) & bits[i - j]
        if d == 0:
            shift += 1
        elif 2 * length <= i:
            c, b = c ^ (b << shift), c
            length, shift = i + 1 - length, 1
        else:
            c ^= b << shift
            shift += 1
    return c, length


def test_characteristic_polynomial_is_rederived_by_berlekamp_massey():
    gen = Xoshiro256StarStar(1)
    bits = []
    for _ in range(1024):
        bits.append(gen._s[0] & 1)
        gen.next_u64()
    conn, length = _berlekamp_massey(bits)
    assert length == 256
    # the characteristic polynomial is the reversed connection polynomial
    charpoly = int(format(conn, f"0{length + 1}b")[::-1], 2)
    assert charpoly == tosca.rng._CHARPOLY
    assert bin(charpoly).count("1") == 115


def test_jump_polynomial_moves_the_state():
    for k in (0, 1, 255, 256, 1000):
        raw = _oracle(29)
        start = np.array(raw.state, dtype=np.uint64)[:, None]
        for _ in range(k):
            raw.next()
        jumped = tosca.rng._jump(start, [tosca.rng._xpow(k)])
        assert [int(w) for w in jumped[0, :, 0]] == raw.state


_CROSS = tosca.rng._BULK_MIN
_LANES = tosca.rng._LANES
_CHUNK = tosca.rng._CHUNK
_SIZES = [
    _CROSS - 1, _CROSS, _CROSS + 1,  # the scalar/bulk crossover
    _LANES * 32 - 1, _LANES * 32, _LANES * 32 + 1,  # lanes * per, +-1
    _LANES * 128 - 1, _LANES * 128, _LANES * 128 + 1,
    _LANES * 256 + 3,  # per 257 rounds up to 258: 2,033 lanes
    _LANES * 33,  # per 33 rounds up to 34: 1,988 lanes, the last short
    _LANES * 34 - 33,  # the lane cap: 2,048 lanes, the last of one word
    _LANES * _CHUNK, _LANES * (_CHUNK + 2),  # one chunk; a chunk and a bit
]


@pytest.mark.parametrize("n", _SIZES)
def test_lane_layout(n):
    lanes, per = tosca.rng._layout(n)
    assert per % 2 == 0 and lanes <= _LANES
    assert (lanes - 1) * per < n <= lanes * per  # only the last lane is short
    assert per == 2 * -(-n // (2 * _LANES))  # the fewest whole pairs per lane


def test_lane_layout_examples():
    assert tosca.rng._layout(_LANES * 33) == (1988, 34)
    assert tosca.rng._layout(_LANES * 34 - 33) == (_LANES, 34)
    assert tosca.rng._layout(_LANES * 256 + 3) == (2033, 258)
    assert tosca.rng._layout(2**21) == (_LANES, 1024)


@pytest.mark.parametrize("n", _SIZES)
def test_bulk_draws_replay_the_scalar_loop(n, monkeypatch):
    bulk = Xoshiro256StarStar(1993, stream=n % 3)
    scalar = Xoshiro256StarStar(1993, stream=n % 3)

    def both(method, *args, **kwargs):
        got = getattr(bulk, method)(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(tosca.rng, "_BULK_MIN", 1 << 62)
            want = getattr(scalar, method)(*args, **kwargs)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s
        assert bulk._spare == scalar._spare

    both("uint64s", n)
    both("normals", 1)  # leaves a spare pending
    both("normals", n, mean=-3.0, std=0.5)  # n even: a spare again
    both("normals", 3)


def test_bulk_state_equals_the_stepped_state():
    n = _LANES * 40 + 7
    gen = Xoshiro256StarStar(5)
    gen.uint64s(n)
    raw = Xoshiro256StarStar(5)
    oracle = _OracleXoshiro(raw._s)
    for _ in range(n):
        oracle.next()
    assert list(gen._s) == oracle.state
    assert gen.next_u64() == oracle.next()


def test_bulk_normals_memory_is_bounded():
    # temporaries stay at a few blocks; only the output grows with n
    n = 2**21
    gen = Xoshiro256StarStar(3)
    tracemalloc.start()
    try:
        z = gen.normals(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.shape == (n,)
    assert peak < 8 * n + 16 * 2**20


@pytest.mark.parametrize("method", ["uint64s", "normals"])
def test_bulk_jumps_do_not_grow_with_the_request(method, monkeypatch):
    calls = []
    jump = tosca.rng._jump

    def spy(s, polys):
        calls.append(len(polys))
        return jump(s, polys)

    monkeypatch.setattr(tosca.rng, "_jump", spy)
    counts = []
    for n in (2**16, 2**21):
        calls.clear()
        getattr(Xoshiro256StarStar(7), method)(n)
        counts.append(len(calls))
    assert counts == [2, 2]  # lanes from one state, then 32 per lane


# --- polynomial arithmetic ---------------------------------------------------

def _operands(count):
    rng = np.random.default_rng(17)
    words = rng.integers(0, 2**64, size=(count, 4), dtype=np.uint64)
    ops = [int.from_bytes(w.tobytes(), "little") for w in words]
    return ops + [0, 1, 2, (1 << 256) - 1, tosca.rng._CHARPOLY ^ (1 << 256)]


def test_polymul_and_square_match_shift_and_xor():
    p = tosca.rng._CHARPOLY
    ops = _operands(40)
    for a, b in zip(ops, ops[1:] + ops[:1]):
        assert tosca.rng._polymul(tosca.rng._table(a), b) == polymul(a, b, p)
        assert tosca.rng._square(a) == polymul(a, a, p)


def test_powers_and_xpow_match_shift_and_xor():
    p = tosca.rng._CHARPOLY
    for a in _operands(3):
        want = [1]
        for _ in range(9):
            want.append(polymul(want[-1], a, p))
        assert tosca.rng._powers(a, 10) == want
    for k in (0, 1, 2, 255, 256, 257, 1000, 2**21 + 5, 3**40):
        want, base, e = 1, 2, k  # square-and-multiply of x
        while e:
            if e & 1:
                want = polymul(want, base, p)
            base = polymul(base, base, p)
            e >>= 1
        assert tosca.rng._xpow(k) == want
