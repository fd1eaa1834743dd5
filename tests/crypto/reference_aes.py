"""Per-byte FIPS-197 AES, the reference the T-table cipher is checked against.

This is the textbook round structure (SubBytes, ShiftRows, MixColumns,
AddRoundKey on a 16-byte state, with every MixColumns byte a
:func:`gf256_mul` call). It is slow and kept only as a test oracle:
``repro.crypto.aes.AES`` must agree with it byte for byte.
"""

from __future__ import annotations

from typing import List

from repro.crypto.aes import expand_key, gf256_mul, inv_sbox_table, sbox_table

_SBOX = sbox_table()
_INV_SBOX = inv_sbox_table()

# State layout: state[4*c + r] is row r of column c (FIPS byte order).
_SHIFT_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_MAP = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = _INV_SBOX[state[i]]


def _shift_rows(state: List[int]) -> List[int]:
    return [state[_SHIFT_MAP[i]] for i in range(16)]


def _inv_shift_rows(state: List[int]) -> List[int]:
    return [state[_INV_SHIFT_MAP[i]] for i in range(16)]


def _mix_single_column(col: List[int]) -> List[int]:
    a0, a1, a2, a3 = col
    return [
        gf256_mul(a0, 2) ^ gf256_mul(a1, 3) ^ a2 ^ a3,
        a0 ^ gf256_mul(a1, 2) ^ gf256_mul(a2, 3) ^ a3,
        a0 ^ a1 ^ gf256_mul(a2, 2) ^ gf256_mul(a3, 3),
        gf256_mul(a0, 3) ^ a1 ^ a2 ^ gf256_mul(a3, 2),
    ]


def _inv_mix_single_column(col: List[int]) -> List[int]:
    a0, a1, a2, a3 = col
    return [
        gf256_mul(a0, 14) ^ gf256_mul(a1, 11) ^ gf256_mul(a2, 13) ^ gf256_mul(a3, 9),
        gf256_mul(a0, 9) ^ gf256_mul(a1, 14) ^ gf256_mul(a2, 11) ^ gf256_mul(a3, 13),
        gf256_mul(a0, 13) ^ gf256_mul(a1, 9) ^ gf256_mul(a2, 14) ^ gf256_mul(a3, 11),
        gf256_mul(a0, 11) ^ gf256_mul(a1, 13) ^ gf256_mul(a2, 9) ^ gf256_mul(a3, 14),
    ]


def _mix_columns(state: List[int], inverse: bool = False) -> List[int]:
    mix = _inv_mix_single_column if inverse else _mix_single_column
    out: List[int] = []
    for c in range(4):
        out.extend(mix(state[4 * c : 4 * c + 4]))
    return out


def _add_round_key(state: List[int], round_key: List[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


class ReferenceAES:
    """Single-block AES with the straightforward per-byte rounds."""

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)
        self.rounds = len(self._round_keys) - 1

    def encrypt_block(self, plaintext: bytes) -> bytes:
        state = list(plaintext)
        _add_round_key(state, self._round_keys[0])
        for r in range(1, self.rounds):
            _sub_bytes(state)
            state = _shift_rows(state)
            state = _mix_columns(state)
            _add_round_key(state, self._round_keys[r])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        state = list(ciphertext)
        _add_round_key(state, self._round_keys[self.rounds])
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        for r in range(self.rounds - 1, 0, -1):
            _add_round_key(state, self._round_keys[r])
            state = _mix_columns(state, inverse=True)
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
