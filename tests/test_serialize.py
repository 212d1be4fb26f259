"""Model bundle binary format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmm.errors import BundleFormatError
from nnmm.mog import PhonemeMog
from nnmm.nn import init_classifier
from nnmm.serialize import (
    FORMAT_VERSION,
    MAGIC,
    ModelBundle,
    config_fingerprint,
    load_bundle,
    save_bundle,
)


def make_mog(m=3, n_bins=257, seed=0):
    rng = np.random.default_rng(seed)
    return PhonemeMog(
        weights=np.full(m, 1.0 / m),
        means=rng.normal(size=(m, n_bins)),
        stds=rng.uniform(0.5, 2.0, size=(m, n_bins)),
        labels=tuple(f"ph{i}" for i in range(m)),
    )


def make_bundle(with_net=True, seed=0):
    mog = make_mog(seed=seed)
    net = init_classifier(351, 3, n_hidden=16, seed=seed) if with_net else None
    return ModelBundle(mog=mog, net=net, sample_rate=16000, frame_length=512,
                       config_hash=config_fingerprint({"beta": 2.5}))


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_bit_exact_with_net(self, tmp_path):
        bundle = make_bundle(with_net=True)
        path = tmp_path / "model.nnmm"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.sample_rate == 16000
        assert back.frame_length == 512
        assert back.config_hash == bundle.config_hash
        assert back.mog.labels == bundle.mog.labels
        assert np.array_equal(back.mog.weights, bundle.mog.weights)
        assert np.array_equal(back.mog.means, bundle.mog.means)
        assert np.array_equal(back.mog.stds, bundle.mog.stds)
        assert np.array_equal(back.net.w1, bundle.net.w1)
        assert np.array_equal(back.net.w2, bundle.net.w2)

    def test_bit_exact_without_net(self, tmp_path):
        bundle = make_bundle(with_net=False)
        path = tmp_path / "model.nnmm"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.net is None
        assert np.array_equal(back.mog.means, bundle.mog.means)

    def test_save_is_deterministic(self, tmp_path):
        bundle = make_bundle()
        save_bundle(bundle, tmp_path / "a.nnmm")
        save_bundle(bundle, tmp_path / "b.nnmm")
        assert (tmp_path / "a.nnmm").read_bytes() == (tmp_path / "b.nnmm").read_bytes()

    def test_unicode_labels_survive(self, tmp_path):
        mog = make_mog()
        mog = PhonemeMog(weights=mog.weights, means=mog.means, stds=mog.stds,
                         labels=("açaí", "über", "ねこ"))
        bundle = ModelBundle(mog=mog, net=None, sample_rate=16000, frame_length=512)
        save_bundle(bundle, tmp_path / "m.nnmm")
        assert load_bundle(tmp_path / "m.nnmm").mog.labels == ("açaí", "über", "ねこ")


# ---------------------------------------------------------------------------
# Corrupt files
# ---------------------------------------------------------------------------


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.nnmm"
        save_bundle(make_bundle(), p)
        data = bytearray(p.read_bytes())
        data[:4] = b"WAVE"
        p.write_bytes(bytes(data))
        with pytest.raises(BundleFormatError, match="magic"):
            load_bundle(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "m.nnmm"
        save_bundle(make_bundle(), p)
        data = bytearray(p.read_bytes())
        data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(BundleFormatError, match="version"):
            load_bundle(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.nnmm"
        save_bundle(make_bundle(), p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(BundleFormatError, match="unexpected end"):
            load_bundle(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "m.nnmm"
        save_bundle(make_bundle(), p)
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(BundleFormatError, match="trailing"):
            load_bundle(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.nnmm"
        p.write_bytes(b"")
        with pytest.raises(BundleFormatError):
            load_bundle(p)

    def test_label_not_utf8(self, tmp_path):
        """Byte 35 is the first byte of the first label (magic 4, version
        and hash 12, four u32 16, has_net 1, label length 2)."""
        p = tmp_path / "m.nnmm"
        save_bundle(make_bundle(), p)
        data = bytearray(p.read_bytes())
        data[35] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(BundleFormatError, match="m.nnmm.*utf-8"):
            load_bundle(p)

    @pytest.mark.parametrize("field,value,message", [
        ("weights", np.array([0.5, 0.5, 0.5]), "weights"),
        ("stds", np.full((3, 257), 1e-4), "std-devs"),
        ("w2", np.full((3, 17), np.nan), "finite"),
    ])
    def test_model_value_refused(self, tmp_path, field, value, message):
        """A value the model types refuse, written over its bytes in a valid
        file, is a bad file, not a plain ValueError."""
        p = tmp_path / "m.nnmm"
        bundle = make_bundle()
        save_bundle(bundle, p)
        blob = p.read_bytes()
        model = bundle.net if field == "w2" else bundle.mog
        old = np.ascontiguousarray(getattr(model, field), dtype="<f8").tobytes()
        assert blob.count(old) == 1
        p.write_bytes(blob.replace(old, np.ascontiguousarray(value, dtype="<f8").tobytes()))
        with pytest.raises(BundleFormatError, match=f"m.nnmm.*{message}"):
            load_bundle(p)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_truncated_or_changed_byte_loads_or_is_format_error(self, tmp_path_factory, data):
        """Every truncation and every single-byte change of a valid bundle
        either loads or raises BundleFormatError, nothing else."""
        mog = make_mog(m=2, n_bins=5)
        net = init_classifier(3, 2, n_hidden=2, seed=0)
        p = tmp_path_factory.getbasetemp() / "corrupt.nnmm"
        save_bundle(ModelBundle(mog=mog, net=net, sample_rate=16000, frame_length=8,
                                config_hash=7), p)
        blob = p.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
            blob = blob[:at] + bytes([byte]) + blob[at + 1:]
        p.write_bytes(blob)
        try:
            load_bundle(p)
        except BundleFormatError:
            pass


# ---------------------------------------------------------------------------
# Bundle validation and fingerprints
# ---------------------------------------------------------------------------


class TestBundle:
    def test_magic_constant(self):
        assert MAGIC == b"NNMM"
        assert FORMAT_VERSION == 1

    def test_bin_count_must_match_frame_length(self):
        with pytest.raises(BundleFormatError, match="bins"):
            ModelBundle(mog=make_mog(n_bins=129), net=None,
                        sample_rate=16000, frame_length=512)

    def test_net_class_count_must_match_mog(self):
        net = init_classifier(351, 4, n_hidden=8, seed=0)
        with pytest.raises(BundleFormatError, match="class"):
            ModelBundle(mog=make_mog(m=3), net=net,
                        sample_rate=16000, frame_length=512)

    @pytest.mark.parametrize("field,value", [
        ("config_hash", "x"), ("config_hash", -1), ("config_hash", 2**64),
        ("config_hash", 1.0), ("sample_rate", 2**33), ("sample_rate", 16000.0),
        ("frame_length", 2**32),
    ])
    def test_values_save_cannot_pack_are_refused(self, field, value):
        """Construction refuses what the u32/u64 header slots cannot hold,
        instead of save_bundle failing with a bare struct.error."""
        fields = dict(mog=make_mog(), net=None, sample_rate=16000, frame_length=512)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            ModelBundle(**fields)

    def test_header_extremes_round_trip(self, tmp_path):
        bundle = ModelBundle(mog=make_mog(), net=None, sample_rate=2**32 - 1,
                             frame_length=512, config_hash=2**64 - 1)
        save_bundle(bundle, tmp_path / "m.nnmm")
        back = load_bundle(tmp_path / "m.nnmm")
        assert (back.sample_rate, back.config_hash) == (2**32 - 1, 2**64 - 1)

    def test_fingerprint_stable_and_order_free(self):
        a = config_fingerprint({"beta": 2.5, "alpha": 0.1})
        b = config_fingerprint({"alpha": 0.1, "beta": 2.5})
        assert a == b
        assert a == config_fingerprint({"beta": 2.5, "alpha": 0.1})

    def test_fingerprint_sees_value_changes(self):
        assert config_fingerprint({"beta": 2.5}) != config_fingerprint({"beta": 2.6})
