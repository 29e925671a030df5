"""numpy's PCG64 streams, read by position without importing numpy.random.

np.random.default_rng(key) is PCG64 seeded through SeedSequence(key). PCG64 is
a linear congruential generator on 128-bit states, s -> M s + inc mod 2^128,
so any output of a stream is an affine function of its seeded words: the
jump table gives M^j and M^(j-1) + ... + 1 for every position, and a whole
block of positions is read at once. Each 128-bit value is a (high, low) pair
of uint64 words.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence (pool size 4) and PCG64 constants
_MASK32 = (1 << 32) - 1
_MOD128 = 1 << 128
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U11, _U32, _U58, _U63, _LOW32 = (np.uint64(v) for v in (1, 11, 32, 58, 63, _MASK32))

_BLOCK = 2**14  # doubles per block of uniforms(), which bounds its temporaries


def _mul128(a_hi, a_lo, b_hi, b_lo, out=(None,) * 6):
    """(high, low) uint64 words of a * b mod 2^128. uint64 arithmetic wraps
    silently; the high word of a_lo * b_lo is summed from 32-bit halves, none
    of whose partial sums passes 2^64. out is the two result words and four
    scratch arrays of the result's shape, or None for each to allocate; b may
    be the result words themselves."""
    hi, lo, t0, t1, t2, t3 = out
    hi = np.multiply(a_lo, b_hi, out=hi)  # b_hi is read before hi is written
    hi += np.multiply(a_hi, b_lo, out=t0)
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = np.bitwise_and(b_lo, _LOW32, out=t0), np.right_shift(b_lo, _U32, out=t1)
    hi += np.multiply(a1, b1, out=t2)
    mid = np.multiply(a0, b1, out=t1)  # a0 b1 + (a0 b0 >> 32)
    mid += np.right_shift(np.multiply(a0, b0, out=t2), _U32, out=t2)
    cross = np.multiply(a1, b0, out=t0)  # a1 b0 + (mid mod 2^32)
    cross += np.bitwise_and(mid, _LOW32, out=t2)
    hi += np.right_shift(mid, _U32, out=t1)
    hi += np.right_shift(cross, _U32, out=t0)
    return hi, np.multiply(a_lo, b_lo, out=lo)  # b_lo is read last


def _add128(a_hi, a_lo, b_hi, b_lo, out=(None,) * 3):
    """(high, low) words of a + b mod 2^128. out is the two result words and
    one scratch array of the result's shape, or None for each to allocate; a
    may be the result words, b may not."""
    hi, lo, carry = out
    lo = np.add(a_lo, b_lo, out=lo)
    hi = np.add(a_hi, b_hi, out=hi)
    hi += np.less(lo, b_lo, out=carry)
    return hi, lo


def _words(value: int) -> tuple[np.ndarray, np.ndarray]:
    """The (high, low) words of a 128-bit Python int, as one-element uint64
    arrays: array arithmetic wraps where numpy scalar arithmetic warns."""
    return tuple(np.array([w], dtype=np.uint64) for w in divmod(value % _MOD128, 1 << 64))


@functools.lru_cache(maxsize=8)
def _pcg64_jumps(steps: int) -> tuple[np.ndarray, ...]:
    """The high and low uint64 words of M^(t+2) and of M^(t+1) + ... + 1 mod
    2^128 for t < steps, M the PCG64 multiplier, built by doubling: entry
    t + L is entry t moved L steps, M^L (M^(t+2)) and M^L (M^(t+1) + ... + 1)
    + M^(L-1) + ... + 1, so each round fills as many entries as it reads, with
    M^L and M^(L-1) + ... + 1 squared up in Python ints."""
    table = np.empty((4, steps), dtype=np.uint64)
    table[:, :1] = np.concatenate([*_words(_PCG_MULT**2), *_words(_PCG_MULT + 1)])[:, None]
    done, mult, total = 1, _PCG_MULT, 1  # M^done and M^(done-1) + ... + 1
    while done < steps:
        take, jump = min(done, steps - done), _words(mult)
        table[:2, done:done + take] = _mul128(*jump, *table[:2, :take])
        table[2:, done:done + take] = _add128(*_mul128(*jump, *table[2:, :take]), *_words(total))
        done, mult, total = done + take, mult * mult % _MOD128, total * (mult + 1) % _MOD128
    table.setflags(write=False)
    return tuple(table)


def _pcg64_states(base: np.ndarray, inc: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (high, low) state words from which each PCG64 generator emits output t,
    for (rows, 2) uint64 (high, low) words of base and inc and positions t that
    broadcast against (rows, 1). Seeding leaves the state at M base + inc and
    each output steps s to M s + inc first, so output t is emitted from
    M^(t+2) base + (M^(t+1) + ... + 1) inc."""
    mult_hi, mult_lo, cum_hi, cum_lo = (w[t] for w in _pcg64_jumps(int(t.max()) + 1 if t.size else 0))
    moved = _mul128(mult_hi, mult_lo, *base.T[:, :, None])
    return _add128(*moved, *_mul128(cum_hi, cum_lo, *inc.T[:, :, None]))


def _xsl_rr(hi: np.ndarray, lo: np.ndarray, out=(None,) * 3) -> np.ndarray:
    """PCG64's output of the state (hi, lo): hi ^ lo rotated right by the top
    6 bits of hi. out is three scratch arrays of the state's shape, or None
    for each to allocate; the output is written to the first."""
    x, rot, right = out
    x = np.bitwise_xor(hi, lo, out=x)
    rot = np.right_shift(hi, _U58, out=rot)
    right = np.right_shift(x, rot, out=right)
    x <<= np.bitwise_and(np.subtract(np.uint64(64), rot, out=rot), _U63, out=rot)
    x |= right
    return x


def _doubles(outputs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy's random() double of each uint64 output, (output >> 11) 2^-53,
    written to out if given; outputs is shifted in place."""
    outputs >>= _U11
    return np.multiply(outputs, 2.0**-53, out=out)


def _pcg64_at(base: np.ndarray, inc: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Output t of each PCG64 generator, for (rows, 2) uint64 (high, low) words
    of base and inc and positions t that broadcast against (rows, 1)."""
    return _xsl_rr(*_pcg64_states(base, inc, t))


def _pcg64_seeded(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, inc) of PCG64(SeedSequence(entropy)) for each row of entropy
    words (uint32, shape (rows, k)), as (rows, 2) uint64 (high, low) words."""
    const = _INIT_A
    u16 = np.uint32(16)

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> u16)

    def mix(x, y):
        v = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return v ^ (v >> u16)

    rows, k = words.shape
    pool = [hashmix(words[:, i] if i < k else np.zeros(rows, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, k):  # entropy past the pool mixes into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    const, state32 = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        state32.append((v ^ (v >> u16)).astype(np.uint64))
    w = [state32[2 * j] | (state32[2 * j + 1] << _U32) for j in range(4)]
    # pcg64_set_seed: seed = (w0, w1) and initseq = (w2, w3) as (high, low);
    # inc = 2 initseq + 1, and base = inc + seed, the state before its one seeding step
    inc = np.stack([(w[2] << _U1) | (w[3] >> _U63), (w[3] << _U1) | _U1], axis=1)
    return np.stack(_add128(inc[:, 0], inc[:, 1], w[0], w[1]), axis=1), inc


def _key_words(key: list[int]) -> list[int]:
    """key as SeedSequence reads it: little-endian 32-bit words, at least one
    per entry; a negative entry is refused as numpy refuses it."""
    if any(k < 0 for k in key):
        raise ValueError("expected non-negative integer")
    return [k >> 32 * i & _MASK32 for k in key for i in range(max(1, -(-k.bit_length() // 32)))]


def _pcg64_streams(prefixes: list[list[int]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, inc) of np.random.default_rng(prefixes[i] + [g]) at row i count + g, for g < count,
    as (rows, 2) uint64 (high, low) words; a negative key is refused as numpy refuses it."""
    heads = [_key_words(prefix) for prefix in prefixes]
    base, inc = np.empty((2, len(heads) * count, 2), dtype=np.uint64)
    for width in set(map(len, heads)):  # SeedSequence mixes the words past its pool by position
        which = [i for i, head in enumerate(heads) if len(head) == width]
        rows = (np.array(which)[:, None] * count + np.arange(count)).reshape(-1)
        words = np.column_stack([np.repeat([heads[i] for i in which], count, axis=0), rows % count])
        base[rows], inc[rows] = _pcg64_seeded(words.astype(np.uint32))
    return base, inc


def _uniform_tables(prefixes: list[list[int]], count: int, size: int) -> np.ndarray:
    """np.random.default_rng(prefixes[i] + [g]).random(size) at row i count + g."""
    streams = _pcg64_streams([[int(k) for k in prefix] for prefix in prefixes], count)
    return _doubles(_pcg64_at(*streams, np.arange(size)))


def uniforms(seed: int, size: int) -> np.ndarray:
    """np.random.default_rng(seed).random(size), bit for bit. The first block
    of _BLOCK outputs is read off the jump table; each later block moves the
    previous block's states _BLOCK steps, s -> M^_BLOCK s + (M^(_BLOCK-1) + ...
    + 1) inc, in place. The states and the scratch words of every block share
    one (6, _BLOCK) array, so the temporaries stay O(_BLOCK) beyond the output."""
    base, inc = _pcg64_seeded(np.array([_key_words([seed])], dtype=np.uint32))
    out = np.empty(size)
    words = np.empty((6, min(size, _BLOCK)), dtype=np.uint64)  # hi, lo, then scratch
    words[:2] = [w[0] for w in _pcg64_states(base, inc, np.arange(words.shape[1]))]
    if size > _BLOCK:
        # entry _BLOCK - 2 of the table holds M^_BLOCK and M^(_BLOCK-1) + ... + 1
        mult_hi, mult_lo, cum_hi, cum_lo = (w[[_BLOCK - 2]] for w in _pcg64_jumps(_BLOCK))
        step = _mul128(cum_hi, cum_lo, *inc.T)
    for start in range(0, size, _BLOCK):
        block = words[:, :min(size - start, _BLOCK)]
        if start:
            _add128(*_mul128(mult_hi, mult_lo, *block[:2], out=block), *step, out=block[:3])
        _doubles(_xsl_rr(*block[:2], out=block[2:5]), out=out[start:start + block.shape[1]])
    return out
