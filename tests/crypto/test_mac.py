"""MAC tests: RFC/NIST vectors, stateful binding, truncation."""

import copy
import hashlib
import hmac as hmac_stdlib
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.mac import CmacAesMac, HmacSha256Mac, make_mac


class TestHmacAgainstStdlib:
    def test_full_tag_matches_stdlib(self):
        key = b"k" * 20
        mac = HmacSha256Mac(key, tag_bytes=32)
        message = (5).to_bytes(8, "little") + (7).to_bytes(8, "little") + b"data"
        expected = hmac_stdlib.new(key, message, hashlib.sha256).digest()
        assert mac.compute(b"data", address=5, counter=7) == expected

    def test_long_key_is_hashed_first(self):
        key = b"K" * 100  # longer than the 64-byte block
        mac = HmacSha256Mac(key, tag_bytes=32)
        message = (0).to_bytes(8, "little") * 2 + b"m"
        expected = hmac_stdlib.new(key, message, hashlib.sha256).digest()
        assert mac.compute(b"m") == expected

    def test_deepcopy_and_pickle_keep_tags(self):
        """Engine forks deep-copy MACs; the hashlib pad states are rebuilt."""
        mac = HmacSha256Mac(b"fork-key", tag_bytes=8)
        tag = mac.compute(b"data", address=3, counter=9)
        for clone in (copy.deepcopy(mac), pickle.loads(pickle.dumps(mac))):
            assert clone.compute(b"data", address=3, counter=9) == tag


class TestCmacNistVectors:
    """NIST SP 800-38B, AES-128 examples."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

    def test_empty_message(self):
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(b"").hex() == "bb1d6929e95937287fa37d129b756746"

    def test_one_block(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "070a16b46b4d4144f79bdd9dd04a287c"

    def test_40_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "dfa66747de9ae63030ca32611497c827"

    def test_four_blocks(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "51f0bebf7e3b9d92fc49741779363cfe"


@pytest.mark.parametrize("algorithm", ["hmac-sha256", "cmac-aes"])
class TestStatefulBinding:
    """BMT-style MACs bind data to (address, counter)."""

    def make(self, algorithm, tag_bytes=8):
        return make_mac(algorithm, b"\x42" * 16, tag_bytes)

    def test_verify_accepts_honest_tag(self, algorithm):
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert mac.verify(b"sector!", tag, address=0x80, counter=3)

    def test_tampered_data_rejected(self, algorithm):
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sectorX", tag, address=0x80, counter=3)

    def test_spliced_address_rejected(self, algorithm):
        """Moving a valid (data, tag) to another address must fail."""
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sector!", tag, address=0xC0, counter=3)

    def test_replayed_counter_rejected(self, algorithm):
        """A stale counter (replay) must fail even with matching data."""
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sector!", tag, address=0x80, counter=4)

    def test_wrong_length_tag_rejected(self, algorithm):
        mac = self.make(algorithm)
        assert not mac.verify(b"data", b"\x00" * 3, address=0, counter=0)


class TestTruncation:
    def test_truncated_tag_length(self):
        assert len(HmacSha256Mac(b"k", tag_bytes=8).compute(b"d")) == 8
        assert len(CmacAesMac(b"k" * 16, tag_bytes=4).compute(b"d")) == 4

    def test_truncation_is_a_prefix(self):
        full = HmacSha256Mac(b"k", tag_bytes=32).compute(b"d", 1, 2)
        short = HmacSha256Mac(b"k", tag_bytes=8).compute(b"d", 1, 2)
        assert full[:8] == short

    def test_collision_probability(self):
        assert HmacSha256Mac(b"k", tag_bytes=8).collision_probability == 2.0**-64
        assert HmacSha256Mac(b"k", tag_bytes=4).collision_probability == 2.0**-32

    def test_invalid_truncation_rejected(self):
        with pytest.raises(ConfigurationError):
            HmacSha256Mac(b"k", tag_bytes=0)
        with pytest.raises(ConfigurationError):
            HmacSha256Mac(b"k", tag_bytes=33)
        with pytest.raises(ConfigurationError):
            CmacAesMac(b"k" * 16, tag_bytes=17)


class TestFactory:
    def test_factory_dispatch(self):
        assert isinstance(make_mac("hmac-sha256", b"k", 8), HmacSha256Mac)
        assert isinstance(make_mac("cmac-aes", b"k" * 16, 8), CmacAesMac)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_mac("md5", b"k", 8)

    def test_negative_context_rejected(self):
        mac = make_mac("hmac-sha256", b"k", 8)
        with pytest.raises(ValueError):
            mac.compute(b"d", address=-1, counter=0)
