"""SHA-256 where the library uses it: Merkle node hashes and HMAC pads.

Both go through :mod:`hashlib`. The FIPS 180-4 vectors pin the Merkle
node hash to SHA-256 (persisted roots depend on it), and the stdlib
cross-checks drive HMAC's precomputed inner/outer pad states across the
55/56/64-byte padding edges of the inner hash.
"""

import hashlib
import hmac as hmac_stdlib

import pytest

from repro.crypto.mac import HmacSha256Mac
from repro.metadata.merkle import _hash_node


def node_hex(data: bytes) -> str:
    return _hash_node(data, 32).hex()


class TestFipsVectors:
    def test_empty(self):
        assert node_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert node_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert node_hex(msg) == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )


class TestAgainstStdlib:
    @pytest.mark.parametrize(
        "length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000]
    )
    def test_padding_boundaries(self, length):
        """HMAC messages straddling the inner hash's padding edges."""
        data = bytes(i % 251 for i in range(length))
        mac = HmacSha256Mac(b"boundary-key", tag_bytes=32)
        expected = hmac_stdlib.new(b"boundary-key", data, hashlib.sha256).digest()
        assert mac._full_tag(data) == expected

    def test_large_input(self):
        data = b"\xa5" * 10_000
        mac = HmacSha256Mac(b"\x0b" * 64, tag_bytes=32)
        expected = hmac_stdlib.new(b"\x0b" * 64, data, hashlib.sha256).digest()
        assert mac._full_tag(data) == expected


class TestProperties:
    def test_digest_length(self):
        assert len(_hash_node(b"x", 8)) == 8
        assert _hash_node(b"x", 8) == _hash_node(b"x", 32)[:8]

    def test_deterministic(self):
        """Tags never leak state between messages (pad states are copied)."""
        mac = HmacSha256Mac(b"key", tag_bytes=32)
        first = mac._full_tag(b"same")
        mac._full_tag(b"other message")
        assert mac._full_tag(b"same") == first

    def test_avalanche(self):
        a, b = _hash_node(b"message0", 32), _hash_node(b"message1", 32)
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert differing > 80  # ~128 expected
