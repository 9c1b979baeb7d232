"""Deterministic random streams: splitmix64-seeded xoshiro256** generators.

The stream definition below is a contract (file formats and reports depend on
it); any port to another language must reproduce it bit for bit.

* Seeding: the 64-bit seed (any int, reduced mod 2**64) drives a splitmix64
  sequence; stream ``k`` takes splitmix64 outputs ``4k .. 4k+3`` as its
  xoshiro256** state words.  An all-zero state (vanishingly unlikely) is
  repaired by replacing the first word with the splitmix64 gamma.
* ``next_u64`` is the reference xoshiro256** step.
* Uniforms in [0, 1): ``(x >> 11) * 2**-53``.
* Normals: Box-Muller over consecutive output pairs.  The radius draw maps to
  (0, 1] via ``((x >> 11) + 1) * 2**-53`` so the log stays finite; cos uses
  the first draw of the pair, sin the second, and the sin half is cached when
  an odd count is requested.
* Bounded ints: ``next_u64() % n`` (modulo; bias is negligible for n << 2**64).
* Shuffles: Fisher-Yates from the top index down with ``j = below(i + 1)``.

How a request is computed does not change the stream.  Requests for fewer
than ``_BULK_MIN`` (65,536) raw words run the scalar loop, which steps the
state in Python and scrambles the collected words in numpy.  Larger ones run
the bulk path: the state update is linear over GF(2), so ``T**k s`` is the
XOR of ``T**i s`` over the set bits i of ``x**k mod p``, where p is the
update's degree-256 characteristic polynomial (``_CHARPOLY``).  The bulk path
starts up to 2,048 lanes ``_LANE`` words apart, steps them in lock-step with
numpy ``uint64`` operations, and reads each block of ``_BLOCK`` words out
lane-major; between blocks every lane jumps ``_BLOCK - _LANE`` steps.  Only
the output array grows with the request.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Characteristic polynomial of the xoshiro256** state update over GF(2); bit
# i is the coefficient of x**i.  Degree 256, 115 nonzero terms.
_CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
_BULK_MIN = 1 << 16  # raw words; smaller requests run the scalar loop
_LANE = 1 << 7  # words each lane produces per block
_BLOCK = 1 << 18  # words per block: 2,048 lanes
_RADIX = 64  # most lanes one jump round multiplies the lane count by

_U = np.uint64


def splitmix64(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of the splitmix64 sequence started at ``seed``."""
    x = seed & _MASK
    out = []
    for _ in range(count):
        x = (x + _GAMMA) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def derive_seeds(seed: int, count: int) -> list[int]:
    """Child seeds for independent sub-streams (splitmix64 outputs of ``seed``)."""
    return splitmix64(seed, count)


# ---------------------------------------------------------------------------
# Jump-ahead.  A polynomial over GF(2) is an int, bit i the coefficient of x**i.

def _polymul(a: int, b: int) -> int:
    """a * b mod _CHARPOLY."""
    c = 0
    while b:
        low = b & -b
        c ^= a << (low.bit_length() - 1)
        b ^= low
    while c.bit_length() > 256:
        c ^= _CHARPOLY << (c.bit_length() - 257)
    return c


def _xpow(k: int) -> int:
    """x**k mod _CHARPOLY, the polynomial that jumps a state k steps."""
    r = 1
    for bit in format(k, "b"):
        r = _polymul(r, r)
        if bit == "1":
            r <<= 1
            if r >> 256:
                r ^= _CHARPOLY
    return r


def _advance(s: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** state update of every lane of s, a (4, m) uint64
    array of state words; t is (m,) scratch."""
    np.left_shift(s[1], _U(17), out=t)
    s[2:4] ^= s[0:2]  # s2 ^= s0, s3 ^= s1
    s[1::-1] ^= s[2:4]  # s1 ^= s2, s0 ^= s3
    s[2] ^= t
    np.left_shift(s[3], _U(45), out=t)
    s[3] >>= _U(19)
    s[3] |= t


def _powers(a: int, n: int) -> list:
    """[1, a, a**2, ..., a**(n-1)] mod _CHARPOLY."""
    out = [1]
    while len(out) < n:
        out.append(_polymul(out[-1], a))
    return out


def _jump(s: np.ndarray, polys: list) -> np.ndarray:
    """Every lane of s moved on by each jump polynomial: (len(polys), 4, m)."""
    raw = np.frombuffer(b"".join(p.to_bytes(32, "little") for p in polys),
                        dtype=np.uint8).reshape(len(polys), 32)
    bits = np.unpackbits(raw, axis=1, bitorder="little")  # (len(polys), 256)
    take = bits.T.astype(bool)[:, :, None, None]  # step i: polys with bit i
    acc = np.zeros((len(polys),) + s.shape, dtype=np.uint64)
    s = s.copy()
    t = np.empty_like(s[0])
    top = max(p.bit_length() for p in polys)
    for i in range(top):
        np.bitwise_xor(acc, s, out=acc, where=take[i])
        if i + 1 < top:
            _advance(s, t)
    return acc


def _lane_starts(state: tuple, lanes: int, count: int):
    """Start states of ``lanes`` lanes ``_LANE`` steps apart, as a (4, lanes)
    array, and ``state`` moved ``count`` steps on.  Each round multiplies
    the lane count by up to ``_RADIX``; the first also makes the long jump."""
    start = np.array(state, dtype=np.uint64)[:, None]
    first = _jump(start, _powers(_xpow(_LANE), min(lanes, _RADIX))
                  + [_xpow(count)])
    s = np.concatenate(first[:-1], axis=1)
    while s.shape[1] < lanes:
        m = s.shape[1]
        polys = _powers(_xpow(_LANE * m), min(-(-lanes // m), _RADIX))
        s = np.concatenate(_jump(s, polys), axis=1)
    end = tuple(int(w) for w in first[-1, :, 0])
    return np.ascontiguousarray(s[:, :lanes]), end


def _scramble(s1: np.ndarray, out: np.ndarray, t: np.ndarray) -> None:
    """The xoshiro256** output ``rotl(s1 * 5, 7) * 9`` into out (which may
    be s1); t is scratch of the same shape."""
    np.multiply(s1, _U(5), out=out)
    np.left_shift(out, _U(7), out=t)
    out >>= _U(57)
    out |= t
    out *= _U(9)


def _run_lanes(s: np.ndarray, out: np.ndarray) -> None:
    """Step every lane of s once per row of out, writing the outputs there."""
    t = np.empty_like(s[1])
    for row in out:
        _scramble(s[1], row, t)
        _advance(s, t)


class Xoshiro256StarStar:
    """xoshiro256** stream, seeded via splitmix64 as documented above."""

    def __init__(self, seed: int, stream: int = 0):
        if stream < 0:
            raise ValueError("stream must be nonnegative")
        words = splitmix64(seed, 4 * (stream + 1))[4 * stream : 4 * stream + 4]
        if not any(words):
            words[0] = _GAMMA
        self._s = tuple(words)
        self._spare: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        v = (s1 * 5) & _MASK
        result = ((((v << 7) | (v >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = (s0, s1, s2, s3)
        return result

    def _scalar_uint64s(self, count: int) -> np.ndarray:
        """The next ``count`` raw outputs: the state steps one at a time, and
        the scrambler ``rotl(s1 * 5, 7) * 9`` runs in numpy afterwards."""
        s0, s1, s2, s3 = self._s
        words = [0] * count
        for i in range(count):
            words[i] = s1
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = (s0, s1, s2, s3)
        out = np.array(words, dtype=np.uint64)
        _scramble(out, out, np.empty_like(out))
        return out

    def _blocks(self, count: int):
        """Yield the next ``count`` raw outputs as consecutive uint64 arrays:
        one from the scalar loop, or bulk blocks of ``_BLOCK`` words (the
        last may be shorter)."""
        if count < _BULK_MIN:
            yield self._scalar_uint64s(count)
            return
        lanes = -(-min(count, _BLOCK) // _LANE)
        s, self._s = _lane_starts(self._s, lanes, count)
        between = [_xpow(_BLOCK - _LANE)]
        steps = np.empty((_LANE, lanes), dtype=np.uint64)
        left = count
        while left > 0:
            size = min(left, _BLOCK)
            live = -(-size // _LANE)
            if live < s.shape[1]:  # a short last block needs fewer lanes
                s = s[:, :live].copy()
                steps = np.empty((_LANE, live), dtype=np.uint64)
            _run_lanes(s, steps)
            yield steps.T.reshape(-1)[:size]  # lane-major: stream order
            left -= size
            if left > 0:
                s = _jump(s, between)[0]

    def uint64s(self, count: int) -> np.ndarray:
        """Next ``count`` raw outputs as a uint64 array."""
        out = np.empty(count, dtype=np.uint64)
        pos = 0
        for block in self._blocks(count):
            out[pos:pos + block.size] = block
            pos += block.size
        return out

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, count: int) -> np.ndarray:
        u = self.uint64s(count)
        return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        i = 0
        if self._spare is not None and count > 0:
            out[0] = self._spare
            self._spare = None
            i = 1
        remaining = count - i
        pairs = (remaining + 1) // 2
        # every block of an even count is even, so no pair straddles two
        for u in self._blocks(2 * pairs):
            u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (u[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            radius = np.sqrt(-2.0 * np.log(u1))
            spill = i + u.size > count  # the last pair's sin half is spare
            z = np.empty(u.size) if spill else out[i:i + u.size]
            z[0::2] = radius * np.cos(2.0 * math.pi * u2)
            z[1::2] = radius * np.sin(2.0 * math.pi * u2)
            if spill:
                out[i:] = z[:-1]
                self._spare = float(z[-1])
            i += u.size
        if mean != 0.0 or std != 1.0:
            out *= std
            out += mean
        return out

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self.normals(1, mean, std)[0])

    def below(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = list(range(n))
        if n > 1:
            top = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 .. 1
            picks = (self.uint64s(n - 1) % top).tolist()
            for i, j in zip(range(n - 1, 0, -1), picks):
                idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle of a list: reorders it by
        ``permutation(len(items))``."""
        items[:] = [items[k] for k in self.permutation(len(items))]
