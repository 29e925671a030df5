"""Index arithmetic for dense enumeration of (Z/pZ)^m.

This is the one module that knows the index encoding. Elements are encoded
as integers in [0, p^m) with base-p digits, digit 0 least significant. A
k x n matrix X over F_p flattens row-major, so digit (i*n + j) is entry
(row i, col j) and (0, 0) is least significant. The cyclic group Z_N is the
radix-N, one-digit case (p = N, m = 1, k = n = 1).

Every shift, linear map and sum of elements is a gather through an index
array built here.
"""

from __future__ import annotations

import functools

import numpy as np


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
    """Permutation array q with q[x] = index of (x + shift).

    Base-p addition has no carries, so q is the outer sum of the m one-digit
    tables ((d + s_j) mod p) * p^j.
    """
    shift = np.asarray(shift_digits, dtype=np.int64) % p
    digit = np.arange(p, dtype=np.int64)
    q = np.zeros(1, dtype=np.int64)
    for j in range(m):
        s = int(shift[j])
        # (d + s) mod p for every digit d, by rotation rather than division
        column = np.concatenate((digit[s:], digit[:s])) * p**j
        q = (column[:, None] + q).reshape(-1)
    return q


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


def linear_digits(p: int, k: int, n: int, M_rows, digits) -> np.ndarray:
    """Digits of M @ X for each row of digits, the digits of a k x n point X.

    M_rows is a k x k integer matrix acting on the k rows of the point.
    """
    X = np.asarray(digits, dtype=np.int64).reshape(-1, k, n)
    out = np.einsum("ab,xbn->xan", np.asarray(M_rows, dtype=np.int64), X) % p
    return out.reshape(-1, k * n)


def linear_perm(p: int, k: int, n: int, M_rows) -> np.ndarray:
    """Permutation (or collapse) q with q[x] = index of M @ X for X = grid point x."""
    return encode_digits(linear_digits(p, k, n, M_rows, digit_table(p, k * n)), p)


def dft(values, p: int, m: int, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform over (Z/pZ)^m of an array in index order:
    numpy's fftn, or ifftn if inverse, on the (p,)*m tensor whose axis j is
    digit j."""
    T = np.asarray(values, dtype=np.complex128).reshape((p,) * m, order="F")
    out = np.fft.ifftn(T) if inverse else np.fft.fftn(T)
    return out.reshape(-1, order="F")
