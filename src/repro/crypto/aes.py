"""AES-128/192/256 block cipher, implemented from scratch.

The reproduction cannot assume hardware AES engines, and the functional
security tests (tamper diffusion, value-check soundness) need a real
cipher, so the full FIPS-197 algorithm is implemented here: the S-box is
derived from the GF(2^8) multiplicative inverse plus the affine map, key
expansion follows the Rijndael schedule, and both the encrypt and decrypt
directions are provided.

Rounds run on four 32-bit column words through T-tables (SubBytes,
ShiftRows and MixColumns folded into ``Te0..Te3``/``Td0..Td3``), which
are themselves built at import from the derived S-box and
:func:`gf256_mul`, so every constant stays traceable to GF(2^8)
arithmetic. The performance simulator never encrypts real data (it
accounts traffic symbolically); this code runs in functional mode (the
forgery study, tamper and crash campaigns) and in the test suite, where
NIST vectors and a per-byte FIPS-197 reference cipher pin it down.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.common.errors import BlockSizeError, KeySizeError

BLOCK_SIZE = 16

_IRREDUCIBLE = 0x11B  # x^8 + x^4 + x^3 + x + 1, the Rijndael polynomial


def gf256_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the Rijndael polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _IRREDUCIBLE
        b >>= 1
    return result


def _build_sbox() -> Tuple[List[int], List[int]]:
    """Derive the AES S-box and its inverse from first principles.

    Each byte is mapped to its multiplicative inverse in GF(2^8) (0 maps
    to 0) followed by the FIPS-197 affine transformation. Computing the
    table instead of hard-coding 256 literals makes the construction
    auditable; the test suite additionally checks the canonical values.
    """
    # Build inverses via exponentiation tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = gf256_mul(x, 3)
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inverse = 0 if value == 0 else exp[255 - log[value]]
        transformed = 0
        for bit in range(8):
            parity = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        sbox[value] = transformed
        inv_sbox[transformed] = value
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(gf256_mul(_RCON[-1], 2))

_ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}


def expand_key(key: bytes) -> List[List[int]]:
    """Run the Rijndael key schedule.

    Returns one 16-byte round key per round plus the initial whitening
    key, each as a flat list of 16 ints in column-major (FIPS) order.
    """
    if len(key) not in _ROUNDS_BY_KEY_LEN:
        raise KeySizeError(
            f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
        )
    rounds = _ROUNDS_BY_KEY_LEN[len(key)]
    nk = len(key) // 4
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    round_keys = []
    for r in range(rounds + 1):
        flat: List[int] = []
        for w in words[4 * r : 4 * r + 4]:
            flat.extend(w)
        round_keys.append(flat)
    return round_keys


def _rotate_word(word: int, bits: int) -> int:
    """Rotate a 32-bit word right by *bits*."""
    return ((word >> bits) | (word << (32 - bits))) & 0xFFFFFFFF


def _column_word(b0: int, b1: int, b2: int, b3: int) -> int:
    return (b0 << 24) | (b1 << 16) | (b2 << 8) | b3


def _build_round_tables() -> Tuple[List[List[int]], List[List[int]]]:
    """Fold SubBytes + MixColumns into four 32-bit lookup tables per direction.

    ``Te0[x]`` is the MixColumns column produced by S-box output
    ``S[x]`` sitting in row 0 (coefficients 2, 1, 1, 3); ``Td0[x]`` is
    the InvMixColumns column for ``InvS[x]`` (14, 9, 13, 11). Rows 1-3
    are byte rotations of row 0, so one round becomes sixteen table
    lookups and XORs on four column words.
    """
    te0 = [
        _column_word(gf256_mul(s, 2), s, s, gf256_mul(s, 3)) for s in _SBOX
    ]
    td0 = [
        _column_word(
            gf256_mul(s, 14), gf256_mul(s, 9), gf256_mul(s, 13), gf256_mul(s, 11)
        )
        for s in _INV_SBOX
    ]
    te = [te0] + [[_rotate_word(w, 8 * k) for w in te0] for k in (1, 2, 3)]
    td = [td0] + [[_rotate_word(w, 8 * k) for w in td0] for k in (1, 2, 3)]
    return te, td


(_TE0, _TE1, _TE2, _TE3), (_TD0, _TD1, _TD2, _TD3) = _build_round_tables()

# A 16-byte state (or round key) is four big-endian column words:
# column c holds FIPS bytes 4c..4c+3, row 0 in the top byte.
_COLUMNS = struct.Struct(">4I")


def _inv_mix_column_word(word: int) -> int:
    """InvMixColumns of one column word (``Td`` composed with ``S`` cancels the S-box)."""
    sbox = _SBOX
    return (
        _TD0[sbox[word >> 24]]
        ^ _TD1[sbox[(word >> 16) & 0xFF]]
        ^ _TD2[sbox[(word >> 8) & 0xFF]]
        ^ _TD3[sbox[word & 0xFF]]
    )


class AES:
    """A keyed AES instance exposing single-block primitives.

    Modes of operation (XTS, counter-mode) are layered on top in
    :mod:`repro.crypto.xts` and :mod:`repro.crypto.cme`.
    """

    def __init__(self, key: bytes) -> None:
        round_keys = expand_key(key)
        self.key_len = len(key)
        self.rounds = _ROUNDS_BY_KEY_LEN[self.key_len]
        enc: List[int] = []
        for round_key in round_keys:
            enc.extend(_COLUMNS.unpack(bytes(round_key)))
        # Equivalent inverse cipher (FIPS-197 section 5.3.5): round keys
        # in reverse order, InvMixColumns applied to the middle rounds so
        # decryption shares the encrypt round's lookup-then-XOR shape.
        dec: List[int] = []
        for r in range(self.rounds, -1, -1):
            words = enc[4 * r : 4 * r + 4]
            if 0 < r < self.rounds:
                words = [_inv_mix_column_word(w) for w in words]
            dec.extend(words)
        self._enc_keys = enc
        self._dec_keys = dec

    def __deepcopy__(self, memo: dict) -> "AES":
        # Immutable once keyed: engine forks (``deepcopy``) share it.
        return self

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(plaintext)}"
            )
        rk = self._enc_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        s0, s1, s2, s3 = _COLUMNS.unpack(plaintext)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        k = 4
        # SubBytes + ShiftRows + MixColumns + AddRoundKey: output column c
        # takes row r from input column c + r (mod 4).
        for _ in range(self.rounds - 1):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3],
            )
            k += 4
        # Final round: no MixColumns.
        sbox = _SBOX
        return _COLUMNS.pack(
            ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
             | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[k],
            ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
             | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[k + 1],
            ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
             | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[k + 2],
            ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
             | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[k + 3],
        )

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(ciphertext)}"
            )
        dk = self._dec_keys
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        s0, s1, s2, s3 = _COLUMNS.unpack(ciphertext)
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        k = 4
        # InvSubBytes + InvShiftRows + InvMixColumns + AddRoundKey: output
        # column c takes row r from input column c - r (mod 4).
        for _ in range(self.rounds - 1):
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ dk[k],
                td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ dk[k + 1],
                td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ dk[k + 2],
                td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ dk[k + 3],
            )
            k += 4
        inv = _INV_SBOX
        return _COLUMNS.pack(
            ((inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
             | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ dk[k],
            ((inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
             | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) ^ dk[k + 1],
            ((inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
             | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) ^ dk[k + 2],
            ((inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
             | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) ^ dk[k + 3],
        )


def sbox_table() -> List[int]:
    """Expose a copy of the derived S-box for verification in tests."""
    return list(_SBOX)


def inv_sbox_table() -> List[int]:
    """Expose a copy of the derived inverse S-box."""
    return list(_INV_SBOX)
