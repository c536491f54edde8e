"""Password <-> feature-vector codec, including dequantization invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.alphabet import Alphabet, compact_alphabet, default_alphabet
from repro.data.encoding import PasswordEncoder


@pytest.fixture
def encoder():
    return PasswordEncoder(default_alphabet(), max_length=10)


class TestIndices:
    def test_pads_to_length(self, encoder):
        idx = encoder.to_indices("abc")
        assert idx.shape == (10,)
        assert np.all(idx[3:] == 0)

    def test_too_long_raises(self, encoder):
        with pytest.raises(ValueError):
            encoder.to_indices("x" * 11)

    def test_from_indices_stops_at_pad(self, encoder):
        idx = encoder.to_indices("hi")
        idx[5] = encoder.alphabet.index_of("z")  # junk after PAD is ignored
        assert encoder.from_indices(idx) == "hi"

    def test_empty_password(self, encoder):
        assert encoder.from_indices(encoder.to_indices("")) == ""


class TestFloatCodec:
    def test_roundtrip(self, encoder):
        for password in ("love123", "", "a", "QWERTY!#", "0123456789"):
            assert encoder.decode(encoder.encode(password)) == password

    def test_bin_centers_in_unit_interval(self, encoder):
        feats = encoder.encode("zz99")
        assert np.all((feats > 0) & (feats < 1))

    def test_decode_clips_out_of_range(self, encoder):
        values = np.array([-0.5] * 5 + [1.5] * 5)
        decoded = encoder.decode(values)  # must not raise
        assert isinstance(decoded, str)

    def test_batch_roundtrip(self, encoder):
        passwords = ["abc", "love99", ""]
        feats = encoder.encode_batch(passwords)
        assert feats.shape == (3, 10)
        assert encoder.decode_batch(feats) == passwords

    def test_empty_batch(self, encoder):
        assert encoder.encode_batch([]).shape == (0, 10)

    def test_invalid_max_length(self):
        with pytest.raises(ValueError):
            PasswordEncoder(default_alphabet(), max_length=0)


class TestVectorizedCodec:
    """The batch paths must be index-for-index the scalar loops."""

    def test_strings_from_indices_matches_scalar(self, encoder):
        rng = np.random.default_rng(0)
        index_matrix = rng.integers(0, encoder.vocab_size, size=(500, 10))
        expected = [encoder.from_indices(row) for row in index_matrix]
        assert encoder.strings_from_indices(index_matrix) == expected

    def test_indices_from_strings_matches_scalar(self, encoder):
        rng = np.random.default_rng(1)
        index_matrix = rng.integers(0, encoder.vocab_size, size=(200, 10))
        passwords = [encoder.from_indices(row) for row in index_matrix]
        expected = np.stack([encoder.to_indices(p) for p in passwords])
        assert (encoder.indices_from_strings(passwords) == expected).all()

    def test_indices_from_strings_validation(self, encoder):
        with pytest.raises(ValueError):
            encoder.indices_from_strings(["x" * 11])
        with pytest.raises(KeyError):
            encoder.indices_from_strings(["abc\tdef"])
        with pytest.raises(KeyError):
            encoder.indices_from_strings(["ab\x00c"])  # embedded NUL
        with pytest.raises(KeyError):
            # trailing NUL must not alias the NUL-free password
            encoder.indices_from_strings(["abc\x00"])
        assert encoder.indices_from_strings([]).shape == (0, 10)

    def test_empty_decode_batch(self, encoder):
        assert encoder.strings_from_indices(np.empty((0, 10), dtype=np.int64)) == []


class TestInternedIds:
    @pytest.fixture
    def packer(self):
        return PasswordEncoder(compact_alphabet(), max_length=10)

    def test_keys_biject_with_decoded_strings(self, packer):
        rng = np.random.default_rng(2)
        index_matrix = rng.integers(0, packer.vocab_size, size=(2000, 10))
        keys = packer.pack_indices(index_matrix).tolist()
        strings = packer.strings_from_indices(index_matrix)
        key_to_string, string_to_key = {}, {}
        for key, string in zip(keys, strings):
            assert key_to_string.setdefault(key, string) == string
            assert string_to_key.setdefault(string, key) == key

    def test_pack_passwords_agrees_with_pack_indices(self, packer):
        passwords = ["love12", "a", "", "zzzz999zz"]
        via_strings = packer.pack_passwords(passwords)
        via_indices = packer.pack_indices(
            np.stack([packer.to_indices(p) for p in passwords])
        )
        assert via_strings.tolist() == via_indices.tolist()

    def test_unpack_inverts_pack(self, packer):
        rng = np.random.default_rng(3)
        index_matrix = rng.integers(0, packer.vocab_size, size=(100, 10))
        canonical = packer._canonical(index_matrix)
        assert (packer.unpack_keys(packer.pack_indices(index_matrix)) == canonical).all()

    def test_junk_after_pad_packs_identically(self, packer):
        clean = packer.to_indices("hi")
        dirty = clean.copy()
        dirty[5] = packer.alphabet.index_of("z")
        assert (
            packer.pack_indices(clean[None, :]) == packer.pack_indices(dirty[None, :])
        ).all()

    def test_wide_alphabet_refuses_packing(self):
        """The default alphabet (74 symbols + PAD) packs at the paper's
        length of 10, 75^10 < 2^64, and is refused at 11."""
        wide = PasswordEncoder(default_alphabet(), max_length=10)
        top = np.full((1, 10), wide.vocab_size - 1)
        assert int(wide.pack_indices(top)[0]) == wide.vocab_size**10 - 1
        assert wide.strings_from_keys(wide.pack_passwords(["Pa$$w0rd!?"])) == [
            "Pa$$w0rd!?"
        ]
        with pytest.raises(ValueError, match="does not fit 64-bit keys"):
            PasswordEncoder(default_alphabet(), max_length=11)

    def test_huge_max_length_is_refused_at_once(self):
        with pytest.raises(ValueError, match="does not fit 64-bit keys"):
            PasswordEncoder(Alphabet("ab"), max_length=10**9)


#: symbols for generated alphabets: 256 distinct characters, none NUL
SYMBOLS = "".join(chr(code) for code in range(1, 257))


def longest_fit(vocab_size: int) -> int:
    """The largest D with vocab_size**D <= 2**64."""
    length = 0
    while vocab_size ** (length + 1) <= 2**64:
        length += 1
    return length


@st.composite
def codec_rows(draw):
    """A codec of 1-255 characters at any length that fits, plus rows."""
    size = draw(st.integers(min_value=1, max_value=255))
    length = draw(st.integers(min_value=1, max_value=longest_fit(size + 1)))
    codec = PasswordEncoder(Alphabet(SYMBOLS[:size]), max_length=length)
    digit = st.integers(min_value=0, max_value=size)
    rows = draw(
        st.lists(
            st.lists(digit, min_size=length, max_size=length), min_size=1, max_size=16
        )
    )
    return codec, np.array(rows, dtype=np.int64)


class TestKeyLayout:
    """Keys are base-V numbers: exact up to V^D = 2^64, refused past it."""

    @given(codec_rows())
    @settings(max_examples=120, deadline=None)
    def test_layout_property(self, drawn):
        codec, rows = drawn
        keys = codec.pack_indices(rows)
        canonical = codec._canonical(rows)
        assert (codec.unpack_keys(keys) == canonical).all()
        # Python integers never wrap: the uint64 keys equal the exact sums
        assert keys.tolist() == [
            sum(int(d) * codec.vocab_size**i for i, d in enumerate(row))
            for row in canonical
        ]
        bound = codec.vocab_size**codec.max_length
        assert all(int(key) < bound for key in keys)
        key_to_string, string_to_key = {}, {}
        for key, string in zip(keys.tolist(), codec.strings_from_indices(rows)):
            assert key_to_string.setdefault(key, string) == string
            assert string_to_key.setdefault(string, key) == key

    @pytest.mark.parametrize("size, length", [(1, 64), (15, 16), (255, 8)])
    def test_exact_boundary(self, size, length):
        """V^D == 2^64 packs, the all-top row is 2^64 - 1, and one more
        position or one more symbol is refused at construction."""
        codec = PasswordEncoder(Alphabet(SYMBOLS[:size]), max_length=length)
        assert codec.vocab_size**length == 2**64
        rows = np.array([np.full(length, size), np.arange(length) % (size + 1)])
        keys = codec.pack_indices(rows)
        assert int(keys[0]) == 2**64 - 1
        assert (codec.unpack_keys(keys) == codec._canonical(rows)).all()
        with pytest.raises(ValueError, match="does not fit 64-bit keys"):
            PasswordEncoder(Alphabet(SYMBOLS[:size]), max_length=length + 1)
        with pytest.raises(ValueError, match="does not fit 64-bit keys"):
            PasswordEncoder(Alphabet(SYMBOLS[: size + 1]), max_length=length)


class TestDequantization:
    def test_dequantize_preserves_decoding(self, encoder):
        rng = np.random.default_rng(0)
        passwords = ["hello1", "pass99", "x"]
        feats = encoder.encode_batch(passwords)
        noisy = encoder.dequantize(feats, rng)
        assert encoder.decode_batch(noisy) == passwords

    def test_noise_bounded_by_bin(self, encoder):
        rng = np.random.default_rng(1)
        feats = encoder.encode_batch(["abcde"] * 50)
        noisy = encoder.dequantize(feats, rng)
        assert np.max(np.abs(noisy - feats)) <= 0.5 * encoder.bin_width

    def test_clamp_to_data_range(self, encoder):
        clamped = encoder.clamp_to_data_range(np.array([-1.0, 0.5, 2.0]))
        assert np.all((clamped > 0) & (clamped < 1))


@given(
    st.text(alphabet=st.sampled_from(list(compact_alphabet().chars)), min_size=0, max_size=10)
)
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(password):
    encoder = PasswordEncoder(compact_alphabet(), max_length=10)
    assert encoder.decode(encoder.encode(password)) == password


@given(
    st.text(alphabet=st.sampled_from(list(compact_alphabet().chars)), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_dequantized_roundtrip_property(password, seed):
    encoder = PasswordEncoder(compact_alphabet(), max_length=10)
    rng = np.random.default_rng(seed)
    noisy = encoder.dequantize(encoder.encode(password)[None, :], rng)
    assert encoder.decode_batch(noisy) == [password]
