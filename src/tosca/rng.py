"""Deterministic random streams: splitmix64-seeded xoshiro256** generators.

The stream definition below is a contract (file formats and reports depend on
it); any port to another language must reproduce it bit for bit.

* Seeding: the 64-bit seed (any int, reduced mod 2**64) drives a splitmix64
  sequence; stream ``k`` takes splitmix64 outputs ``4k .. 4k+3`` as its
  xoshiro256** state words.  An all-zero state (vanishingly unlikely) is
  repaired by replacing the first word with the splitmix64 gamma.
* ``next_u64`` is the next raw output of the xoshiro256** step.
* Uniforms in [0, 1): ``(x >> 11) * 2**-53``.
* Normals: Box-Muller over consecutive output pairs.  The radius draw maps to
  (0, 1] via ``((x >> 11) + 1) * 2**-53`` so the log stays finite; cos uses
  the first draw of the pair, sin the second, and the sin half is cached when
  an odd count is requested.
* Bounded ints: ``next_u64() % n`` (modulo; bias is negligible for n << 2**64).
* Shuffles: Fisher-Yates from the top index down with ``j = below(i + 1)``.

How a request is computed does not change the stream.  Requests for fewer
than ``_BULK_MIN`` (12,000) raw words, where the two paths were measured to
cost the same, run the scalar loop, which steps the state in Python and
scrambles the collected words in numpy.  Larger ones run the bulk path: the
state update is linear over GF(2), so ``T**k s`` is the XOR of ``T**i s``
over the set bits i of ``x**k mod p``, where p is the update's degree-256
characteristic polynomial (``_CHARPOLY``).  The bulk path splits
a request of n words into up to 2,048 lanes of ``per`` words each, per even:
lane i makes words ``i * per`` on, so only the last lane may run past n.
Two jump rounds place every lane, whatever n is.  The lanes then step
together with numpy ``uint64`` operations, ``_CHUNK`` steps at a time, and
each chunk is written to the output viewed as (lanes, per).  Normals pair
two consecutive words of one lane, so Box-Muller runs on each chunk and
writes straight into the output.  Only the output grows with the request.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Characteristic polynomial of the xoshiro256** state update over GF(2); bit
# i is the coefficient of x**i.  Degree 256, 115 nonzero terms.
_CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
_BULK_MIN = 12_000  # raw words: the measured scalar/bulk crossover
_LANES = 1 << 11  # most lanes a bulk request runs
_CHUNK = 16  # steps the lanes take between writes to the output; even
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

def _byte_table(bit) -> list:
    """For each byte v, the XOR of ``bit(j)`` over the set bits j of v."""
    table = [0]
    for j in range(8):
        e = bit(j)
        table += [v ^ e for v in table]
    return table


def _fold_bit(j: int) -> int:
    """x**(256 + j) plus its remainder mod _CHARPOLY."""
    c = 1 << (256 + j)
    for i in range(j, -1, -1):
        if c >> (256 + i) & 1:
            c ^= _CHARPOLY << i
    return c | 1 << (256 + j)


# _FOLD[t] << s, XORed into a product, clears the byte t at bit 256 + s and
# adds t * x**(256 + s) mod _CHARPOLY; _SPREAD[v] is the square of v.
_FOLD = _byte_table(_fold_bit)
_SPREAD = _byte_table(lambda j: 1 << 2 * j)


def _table(a: int) -> list:
    """Byte table of a: entry v is a times v, unreduced."""
    return _byte_table(lambda j: a << j)


def _reduce(c: int) -> int:
    """c mod _CHARPOLY, for c below 2**512, a byte at a time from the top."""
    for shift in range(248, -1, -8):
        c ^= _FOLD[c >> (256 + shift)] << shift
    return c


def _polymul(table: list, b: int) -> int:
    """a * b mod _CHARPOLY, where table is ``_table(a)``."""
    c = 0
    for byte in b.to_bytes(32, "big"):
        c = c << 8 ^ table[byte]
    return _reduce(c)


def _square(a: int) -> int:
    """a * a mod _CHARPOLY: bit i of a moves to bit 2i."""
    c = 0
    for byte in a.to_bytes(32, "big"):
        c = c << 16 | _SPREAD[byte]
    return _reduce(c)


def _xpow(k: int) -> int:
    """x**k mod _CHARPOLY, the polynomial that jumps a state k steps."""
    r = 1
    for bit in format(k, "b"):
        r = _square(r)
        if bit == "1":
            r <<= 1
            if r >> 256:
                r ^= _CHARPOLY
    return r


def _advance(s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None
             ) -> None:
    """One xoshiro256** state update of every lane of s, a (4, m) uint64
    array of state words, into out (s itself by default); t is (m,)
    scratch."""
    out = s if out is None else out
    np.left_shift(s[1], _U(17), out=t)
    np.bitwise_xor(s[2:4], s[0:2], out=out[2:4])  # s2 ^= s0, s3 ^= s1
    np.bitwise_xor(s[1::-1], out[2:4], out=out[1::-1])  # s1 ^= s2, s0 ^= s3
    out[2] ^= t
    np.left_shift(out[3], _U(45), out=t)
    out[3] >>= _U(19)
    out[3] |= t


def _powers(a: int, n: int) -> list:
    """[1, a, a**2, ..., a**(n-1)] mod _CHARPOLY."""
    table = _table(a)
    out = [1]
    while len(out) < n:
        out.append(_polymul(table, out[-1]))
    return out


def _orbit(s: np.ndarray, n: int) -> np.ndarray:
    """Every lane of s and its next n - 1 states: (n, 4, m)."""
    out = np.empty((n,) + s.shape, dtype=np.uint64)
    if s.shape[1] == 1:  # one lane steps faster in Python than in numpy
        s0, s1, s2, s3 = (int(w) for w in s[:, 0])
        rows = []
        for _ in range(n):
            rows.append((s0, s1, s2, s3))
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        out[:, :, 0] = rows
        return out
    out[0] = s
    t = np.empty_like(s[0])
    for i in range(1, n):
        _advance(out[i - 1], t, out[i])
    return out


def _jump(s: np.ndarray, polys: list) -> np.ndarray:
    """Every lane of s moved on by each jump polynomial: (len(polys), 4, m),
    each the XOR of the states of s's orbit picked by the poly's bits."""
    top = max(p.bit_length() for p in polys)
    orbit = _orbit(s, top)
    raw = np.frombuffer(b"".join(p.to_bytes(32, "little") for p in polys),
                        dtype=np.uint8).reshape(len(polys), 32)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :top]
    return np.stack([np.bitwise_xor.reduce(orbit[b], axis=0)
                     for b in bits.astype(bool)])


def _layout(count: int) -> tuple:
    """(lanes, per) of a bulk request: up to ``_LANES`` lanes of ``per``
    words, per even; only the last lane may run past ``count``."""
    per = -(-count // _LANES)
    per += per & 1
    return -(-count // per), per


def _lane_starts(state: tuple, lanes: int, gap: int, count: int):
    """Start states of ``lanes`` lanes ``gap`` steps apart, as a (4, lanes)
    array, and ``state`` moved ``count`` steps on.  Each round multiplies
    the lane count by up to ``_RADIX``; the first also makes the long jump."""
    start = np.array(state, dtype=np.uint64)[:, None]
    first = _jump(start, _powers(_xpow(gap), min(lanes, _RADIX))
                  + [_xpow(count)])
    s = np.concatenate(first[:-1], axis=1)
    while s.shape[1] < lanes:
        m = s.shape[1]
        polys = _powers(_xpow(gap * m), min(-(-lanes // m), _RADIX))
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


def _run_lanes(s: np.ndarray, out: np.ndarray, t: np.ndarray) -> None:
    """Step every lane of s once per row of out, writing the outputs there;
    t is scratch of out's shape."""
    for row in out:
        np.copyto(row, s[1])
        _advance(s, t[0])
    _scramble(out, out, t[:len(out)])


def _box_muller(w: np.ndarray, z: np.ndarray) -> None:
    """Normals from w, a (steps, lanes) uint64 array whose rows 2k and
    2k + 1 pair up, into z of the same shape: the cos half of each pair in
    its first row, the sin half in its second."""
    u1 = ((w[0::2] >> _U(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (w[1::2] >> _U(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    np.multiply(radius, np.cos(angle), out=z[0::2])
    np.multiply(radius, np.sin(angle), out=z[1::2])


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
        return int(self._scalar_uint64s(1)[0])

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

    def _lanes(self, count: int, out: np.ndarray):
        """The next ``count`` raw outputs, laid over ``_layout(count)``:
        yield (words, place) pairs, words a (steps, lanes) uint64 chunk and
        place the view of out, as (lanes, per), where they belong."""
        lanes, per = _layout(count)
        s, self._s = _lane_starts(self._s, lanes, per, count)
        grid = out.reshape(lanes, per)
        w = np.empty((min(per, _CHUNK), lanes), dtype=np.uint64)
        t = np.empty_like(w)
        for j in range(0, per, _CHUNK):
            words = w[:per - j]
            _run_lanes(s, words, t)
            yield words, grid[:, j:j + len(words)].T

    def uint64s(self, count: int) -> np.ndarray:
        """Next ``count`` raw outputs as a uint64 array."""
        if count < _BULK_MIN:
            return self._scalar_uint64s(count)
        out = np.empty(math.prod(_layout(count)), dtype=np.uint64)
        for words, place in self._lanes(count, out):
            place[...] = words
        return out[:count]

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, count: int) -> np.ndarray:
        u = self.uint64s(count)
        return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        i = int(self._spare is not None and count > 0)
        n = (count - i + 1) // 2 * 2  # raw words: whole pairs
        if n < _BULK_MIN:
            out = np.empty(i + n)
            _box_muller(self._scalar_uint64s(n)[:, None], out[i:, None])
        else:
            out = np.empty(i + math.prod(_layout(n)))
            for words, place in self._lanes(n, out[i:]):
                _box_muller(words, place)
        if i:
            out[0] = self._spare
            self._spare = None
        if i + n > count:  # the last pair's sin half is spare
            self._spare = float(out[count])
        out = out[:count]
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
