"""Index arithmetic for dense enumeration of (Z/pZ)^m.

This is the one module that knows the index encoding. Elements are encoded
as integers in [0, p^m) with base-p digits, digit 0 least significant. A
k x n matrix X over F_p flattens row-major, so digit (i*n + j) is entry
(row i, col j) and (0, 0) is least significant. The cyclic group Z_N is the
radix-N, one-digit case (p = N, m = 1, k = n = 1).

Linear maps and sums of elements are gathers through index arrays built
here, the full addition table among them (add_table). Translates serves the
translates of an array by the index of the shift: one translate is a slice of
the array's periodic extension, and a block of them is one fancy index into
the extension's sliding windows, into those of a table that lays each
translate out contiguously, or, for 0/1 values, into byte windows of 8
bit-shifted copies of the packed table, read as uint64 words (pack_rows packs
rows the same way). Past the guard each is one gather through add_index. dft
is numpy's fftn over the digit axes, but at p = 3 a radix-3 butterfly in
pocketfft's op order with numpy's bits: that rests on pocketfft and on no FMA
contraction in it, and the tests compare the words with np.fft's.
"""

from __future__ import annotations

import functools

import numpy as np

from . import DEFAULT_GUARD


@functools.lru_cache(maxsize=None)
def digit_table(p: int, m: int) -> np.ndarray:
    """All p^m digit vectors, shape (p^m, m), digit 0 least significant."""
    digits = decode_digits(p, m, np.arange(p**m, dtype=np.int64))
    digits.setflags(write=False)
    return digits


@functools.lru_cache(maxsize=None)
def pow_vector(p: int, m: int) -> np.ndarray:
    v = p ** np.arange(m, dtype=np.int64)
    v.setflags(write=False)
    return v


def encode_digits(digits: np.ndarray, p: int) -> np.ndarray:
    """Inverse of digit_table row lookup; digits may have any leading shape."""
    m = digits.shape[-1]
    return (digits % p) @ pow_vector(p, m)


def decode_digits(p: int, m: int, idx) -> np.ndarray:
    """Inverse of encode_digits: the m digits of each index, shape idx.shape + (m,)."""
    return np.asarray(idx, dtype=np.int64)[..., None] // pow_vector(p, m) % p


def encode_index(p: int, digits) -> int:
    """Index of one digit vector, digit 0 first, as an exact Python int."""
    return sum(int(d) % p * p**j for j, d in enumerate(digits))


def decode_index(p: int, m: int, index: int) -> list[int]:
    """The m digits of one index, digit 0 first (one row of digit_table)."""
    return [index // p**j % p for j in range(m)]


def add_perm(p: int, m: int, shift_digits) -> np.ndarray:
    """Permutation array q with q[x] = index of (x + shift)."""
    return add_index(p, m, np.arange(p**m), encode_index(p, shift_digits))


class Translates:
    """The translates v(x + s) of a 1-d array v in index order, by the index of
    s: at(s) is one translate, block(shifts) and rows(shifts) a block of them
    as (B, p^m) rows, and packed(shifts) such a block of a bool v as pack_rows
    words.

    ext is v as the (p,)*m tensor (axis 0 the top digit) padded periodically
    to (2p - 1)^m points, and a single translate is a slice of it. A block reads
    the table T[c, y, x] = v(top digit y mod p, low digits x + c) with
    lo = p^(m - 1), of shape (lo, 2p - 1, lo), built from ext (_row_table),
    which is then dropped: the translate by a shift with low digits c and top
    digit y is the p^m values from offset (c (2p - 1) + y) lo of T flattened, so
    a block is one fancy index into the table's sliding windows. For m = 1 (Z_N,
    F_p) T is v doubled; for m = 0 it is v. rows keeps T. packed packs T into
    bits, drops it, and keeps 8 copies of the bits, copy r starting at bit r:
    the translate at offset o is the 8 ceil(p^m / 64) bytes from byte o >> 3 of
    copy o & 7, read as uint64 words whose bits past p^m are T's next ones. ext
    is built only while its points fit the guard, and T only while its
    (2p - 1) p^(2m - 2) entries do; past that a translate or a block is one
    gather through add_index, which packed packs with pack_rows."""

    def __init__(self, values, p: int, m: int, guard: int = DEFAULT_GUARD):
        self.p, self.m, self.guard, self.base = p, m, guard, np.asarray(values)
        self.ext = self.table = self._windows = self._packed = self._ext_windows = self._corners = None
        self._table_fits = ((2 * p - 1) * p ** (2 * m - 2) if m else 1) <= guard

    def _extension(self) -> np.ndarray:
        if self.ext is None:
            self.ext = np.pad(self.base.reshape((self.p,) * self.m), (0, self.p - 1), mode="wrap")
        return self.ext

    def _gather(self, idx) -> np.ndarray:
        return self.base[add_index(self.p, self.m, idx, np.arange(len(self.base)))]

    def _row_table(self) -> np.ndarray:
        """T flattened, as rows keeps it; ext is dropped. The lowest b = m - 1 - a
        low digits come from strided views of ext, as G[c_B, y, z, x_B] =
        v(y mod p, upper low digits z, x_B + c_B), and the a digits above them
        from one gather of G through their sums, in runs of p^b points; a is the
        most that keeps p^a <= 10 and b >= 1, which ran fastest."""
        p, m, table = self.p, self.m, self.table
        if table is None:
            table = self.base
            if m:
                a = 0
                while a < m - 2 and p ** (a + 1) <= 10:
                    a += 1
                b, ext = m - 1 - a, self._extension()[(slice(None),) + (slice(0, p),) * a]
                low = np.lib.stride_tricks.sliding_window_view(ext, (p,) * b, axis=tuple(range(a + 1, m)))
                # low[y, z..., c..., x...] = ext[y, z, c + x]; move the c axes to the front
                order = tuple(range(a + 1, m)) + tuple(range(a + 1)) + tuple(range(m, m + b))
                G = np.ascontiguousarray(low.transpose(order)).reshape(p**b, 2 * p - 1, p**a, p**b)
                if a:
                    up = np.arange(p**a)
                    G = G[np.arange(p**b)[:, None, None], np.arange(2 * p - 1)[:, None], add_index(p, a, up[:, None, None, None], up)]
                table = G.reshape(-1)
        self.ext = None
        return table

    def _offsets(self, idx: np.ndarray) -> np.ndarray:
        """Offset in T of the translate by each shift index."""
        lo = self.p ** (self.m - 1) if self.m else 1
        low = idx % lo
        return low * ((2 * self.p - 1) * lo) + (idx - low)

    def at(self, index: int) -> np.ndarray:
        """The p^m values v(x + s) for the index of one shift s."""
        p, m, index = self.p, self.m, int(index)
        if (2 * p - 1) ** m > self.guard:
            return self._gather(index)
        return self._extension()[tuple(slice(d, d + p) for d in reversed(decode_index(p, m, index)))].reshape(-1)

    def block(self, shift_indices) -> np.ndarray:
        """The (B, p^m) translates at(s_b) for the indices of a block of B
        shifts, as one fancy index into the (p,)*m sliding windows of ext: the
        window of a shift starts at its digits, top digit first. Unlike rows it
        builds no table, so it needs only ext's (2p - 1)^m points."""
        idx = np.asarray(shift_indices, dtype=np.int64)
        p, m = self.p, self.m
        if not m or (2 * p - 1) ** m > self.guard:
            return self._gather(idx[:, None])
        if self._corners is None:
            self._ext_windows = np.lib.stride_tricks.sliding_window_view(self._extension(), (p,) * m)
            self._corners = np.ascontiguousarray(digit_table(p, m)[:, ::-1].T)
        return self._ext_windows[tuple(self._corners[:, idx])].reshape(len(idx), -1)

    def rows(self, shift_indices) -> np.ndarray:
        """The (B, p^m) rows v(x + s_b) for the indices of a block of B shifts."""
        idx = np.asarray(shift_indices, dtype=np.int64)
        if not self._table_fits:
            return self._gather(idx[:, None])
        if self.table is None:
            self.table = self._row_table()
            self._windows = np.lib.stride_tricks.sliding_window_view(self.table, len(self.base))
        return self._windows[self._offsets(idx)]

    def packed(self, shift_indices) -> np.ndarray:
        """rows(shift_indices) of a bool v as (B, ceil(p^m / 64)) words: the
        first p^m bits of each row are pack_rows's, the rest are arbitrary."""
        idx = np.asarray(shift_indices, dtype=np.int64)
        if not self._table_fits:
            return pack_rows(self._gather(idx[:, None]))
        if self._packed is None:
            table = self._row_table()
            P, pk = len(self.base), np.packbits(table, bitorder="little")
            width = 8 * -(-P // 64)  # bytes in a row of words
            # the last window ends at byte ((len(T) - P) >> 3) + width; a zero word past it feeds the copies' top bits
            words = -(-max(len(pk), ((len(table) - P) >> 3) + width) // 8) + 1
            del table  # before the copies, so T and its copies are never held at once
            shifted = np.zeros((8, words), dtype="<u8")
            shifted[0].view(np.uint8)[:len(pk)] = pk
            del pk
            # copy r: copy 0's words shifted down by r bits, each topped by the next word's low r bits
            for r in range(1, 8):
                np.right_shift(shifted[0, :-1], r, out=shifted[r, :-1])
                shifted[r, :-1] |= shifted[0, 1:] << (64 - r)
            self._packed = np.lib.stride_tricks.sliding_window_view(shifted.view(np.uint8), width, axis=1)
        o = self._offsets(idx)
        return self._packed[o & 7, o >> 3].view("<u8")


def pack_rows(rows) -> np.ndarray:
    """(B, n) 0/1 rows as (B, ceil(n / 64)) little-endian uint64 words: value
    64 j + i of a row is bit i of its word j, and the bits past n are zero."""
    B, n = np.shape(rows)
    out = np.zeros((B, 8 * -(-n // 64)), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


def add_index(p: int, m: int, a, b) -> np.ndarray:
    """Index of a + b for broadcastable index arrays a and b.

    Works one digit at a time, so no array of shape (..., m) is built.
    """
    a, b = np.asarray(a), np.asarray(b)
    digits = digit_table(p, m)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for j in range(m):
        col = digits[:, j]
        s = col[a] + col[b]
        s %= p
        s *= p**j
        out += s
    return out


@functools.lru_cache(maxsize=1)
def add_table(p: int, m: int) -> np.ndarray:
    """The read-only int32 (p^m, p^m) table of index(x + y); the last one
    built is kept, so the callers on one grid share it.

    Built digit by digit in int32: for x = x' p + x0 and y = y' p + y0,
    index(x + y) = (x0 + y0) mod p + p index(x' + y')."""
    digit = np.arange(p, dtype=np.int32)
    add_1 = (digit[:, None] + digit[None, :]) % p
    add = np.zeros((1, 1), dtype=np.int32)
    for j in range(m):
        size = p ** (j + 1)
        add = (add_1[None, :, None, :] + p * add[:, None, :, None]).reshape(size, size)
    add.setflags(write=False)
    return add


def linear_digits(p: int, k: int, n: int, M_rows, digits) -> np.ndarray:
    """Digits of M @ X for each row of digits, the digits of a k x n point X.

    M_rows is a k x k integer matrix acting on the k rows of the point.
    """
    X = np.asarray(digits, dtype=np.int64)
    out = np.einsum("ab,xbn->xan", np.asarray(M_rows, dtype=np.int64), X.reshape(len(X), k, n)) % p
    return out.reshape(len(X), k * n)


def linear_perm(p: int, k: int, n: int, M_rows) -> np.ndarray:
    """Permutation (or collapse) q with q[x] = index of M @ X for X = grid point x."""
    return encode_digits(linear_digits(p, k, n, M_rows, digit_table(p, k * n)), p)


def dft(values, p: int, m: int, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform over (Z/pZ)^m of an array in index order:
    numpy's fftn, or ifftn if inverse, over the first m axes of the (p,)*m
    tensor whose axis j is digit j. Axes of values after the first ride along,
    so a (p^m, B) array is B transforms. At p = 3 it runs pocketfft's pass3 ops
    on (batch..., digit m - 1, ..., digit 0) in C order, digit m - 1 first as fftn
    does; real scalings run on float64 views, as a complex multiply adds a*0 terms
    that can flip signed zeros."""
    V = np.asarray(values, dtype=np.complex128)
    if p != 3:
        T = V.reshape((p,) * m + V.shape[1:], order="F")
        out = (np.fft.ifftn if inverse else np.fft.fftn)(T, axes=tuple(range(m)))
        return out.reshape(V.shape, order="F")
    # pocketfft's length-3 twiddle, sin(pi/3), negated for the forward transform
    X, tw = np.array(V.T, order="C"), 0.8660254037844386467637231707529362 * (1 if inverse else -1)
    for j in reversed(range(m)):
        c = X.reshape(-1, 3, 3**j)
        t1, t2, X = c[:, 1] + c[:, 2], c[:, 1] - c[:, 2], np.empty_like(c)
        np.add(c[:, 0], t1, out=X[:, 0])
        t1.view(np.float64)[...] *= -0.5
        t1 += c[:, 0]
        cb = np.empty_like(t2)
        np.multiply(t2.imag, -tw, out=cb.real)
        np.multiply(t2.real, tw, out=cb.imag)
        np.add(t1, cb, out=X[:, 1])
        np.subtract(t1, cb, out=X[:, 2])
        if inverse:
            X.view(np.float64)[...] *= 1 / 3
    return X.reshape(V.T.shape).T
