"""A-hat expansion (``mlkem._matrix``) against FIPS 203 SampleNTT row by row.

``_matrix`` decodes the SHAKE-128 streams of all k^2 entries at once and
keeps each row's first 256 candidates below q with one running count of the
accepted ones, reading twice as many bytes of every stream while some row
has too few. The reference below is Algorithm 7 as written: one stream per
entry, three bytes at a time, stopping at the 256th accepted candidate. Real
SHAKE output practically never leaves a row short after 768 bytes, so one
test feeds ``_matrix`` streams whose first bytes are all rejected.
"""

from __future__ import annotations

import hashlib
import types

import pytest

from hearthgate import mlkem

RHOS = [hashlib.sha3_256(b"rho %d" % n).digest() for n in range(200)]
STREAM_BYTES = 3 * 1024   # far more than any row below needs


def _sample_ntt(stream: bytes) -> list[int]:
    """FIPS 203 Algorithm 7 on the first bytes of ``stream``."""
    a: list[int] = []
    for b0, b1, b2 in zip(stream[0::3], stream[1::3], stream[2::3]):
        for d in (b0 + 256 * (b1 % 16), b1 // 16 + 16 * b2):
            if d < mlkem.Q:
                a.append(d)
        if len(a) >= mlkem.N:
            return a[:mlkem.N]
    raise AssertionError("stream too short for the reference")


def _reference(rho: bytes, k: int, shake=hashlib.shake_128) -> list:
    return [[_sample_ntt(shake(rho + bytes([j, i])).digest(STREAM_BYTES))
             for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matrix_matches_row_by_row_sample_ntt(k):
    for rho in RHOS:
        assert mlkem._matrix.__wrapped__(rho, k).tolist() == _reference(rho, k)


class _Stalled:
    """SHAKE-128 behind 0xFF bytes, whose candidates (4095) are all rejected:
    3 * (150 + 40 j + 10 i) of them for the stream of entry (i, j), from 450
    (about 150 of a row's first 256 accepted) to 900 (none)."""

    lengths: list[int] = []

    def __init__(self, seed: bytes):
        self.pad = b"\xff" * (3 * (150 + 40 * seed[-2] + 10 * seed[-1]))
        self.real = hashlib.shake_128(seed)

    def digest(self, length: int) -> bytes:
        self.lengths.append(length)
        return (self.pad + self.real.digest(length))[:length]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matrix_reads_longer_streams_while_a_row_is_short(k, monkeypatch):
    monkeypatch.setattr(_Stalled, "lengths", [])
    monkeypatch.setattr(mlkem, "hashlib", types.SimpleNamespace(shake_128=_Stalled))
    for rho in RHOS:
        got = mlkem._matrix.__wrapped__(rho, k).tolist()
        assert got == _reference(rho, k, shake=_Stalled)
    assert set(_Stalled.lengths) == {768, 1536, STREAM_BYTES}
