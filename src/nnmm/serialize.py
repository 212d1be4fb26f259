"""Binary model bundle: mixture + optional classifier in one file.

Layout (all integers little-endian, floats little-endian IEEE f64,
matrices row-major):

    magic "NNMM" | u32 version | u64 config hash
    u32 sample_rate | u32 frame_length | u32 components | u32 bins
    u8 has_net
    per component: u16 label length + UTF-8 label
    weights, means, stds
    if has_net: u32 hidden | u32 inputs | w1 | w2

Round-trips are bit-exact; that is the point of the format.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BundleFormatError
from .mog import PhonemeMog
from .nn import NnClassifier

MAGIC = b"NNMM"
FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything the enhancer needs, plus provenance."""

    mog: PhonemeMog
    net: NnClassifier | None
    sample_rate: int
    frame_length: int
    config_hash: int = 0

    def __post_init__(self):
        # Refuse here what save_bundle could not pack: an integer field
        # outside its u32 or u64 slot would only fail at save time.
        for name, bits in (("sample_rate", 32), ("frame_length", 32), ("config_hash", 64)):
            _check_unsigned(name, getattr(self, name), bits)
        if self.sample_rate <= 0 or self.frame_length <= 0:
            raise ValueError("sample_rate and frame_length must be positive")
        if self.mog.n_bins != self.frame_length // 2 + 1:
            raise BundleFormatError(
                f"mixture has {self.mog.n_bins} bins but frame length "
                f"{self.frame_length} implies {self.frame_length // 2 + 1}"
            )
        if self.net is not None and self.net.n_classes != self.mog.n_components:
            raise BundleFormatError(
                f"classifier has {self.net.n_classes} classes, mixture has "
                f"{self.mog.n_components} components"
            )


def _check_unsigned(name: str, value, bits: int) -> None:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}") from None
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")


def config_fingerprint(settings: dict) -> int:
    """Stable 64-bit digest of a flat settings mapping."""
    text = "\n".join(f"{k}={settings[k]}" for k in sorted(settings))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _f64_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_bundle(bundle: ModelBundle, path: str) -> None:
    mog, net = bundle.mog, bundle.net
    out = [
        MAGIC,
        struct.pack("<IQ", FORMAT_VERSION, bundle.config_hash),
        struct.pack(
            "<IIII", bundle.sample_rate, bundle.frame_length,
            mog.n_components, mog.n_bins,
        ),
        struct.pack("<B", 0 if net is None else 1),
    ]
    for label in mog.labels:
        raw = label.encode()
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
    out += [_f64_bytes(mog.weights), _f64_bytes(mog.means), _f64_bytes(mog.stds)]
    if net is not None:
        out.append(struct.pack("<II", net.n_hidden, net.n_inputs))
        out += [_f64_bytes(net.w1), _f64_bytes(net.w2)]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise BundleFormatError("unexpected end of model file")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, shape: tuple) -> np.ndarray:
        n = math.prod(shape)  # exact: a corrupt count must not wrap around
        return np.frombuffer(self.take(8 * n), dtype="<f8").reshape(shape).copy()


def load_bundle(path: str) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`.

    Any content that does not parse or validate raises
    :class:`BundleFormatError`: a label that is not UTF-8, or a value the
    model types refuse (a mixture weight or std, a classifier weight, a
    header field), is reported as a bad file naming ``path``, not as the
    plain ``ValueError`` the model types raise.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob, path)
    except BundleFormatError:
        raise
    except ValueError as exc:  # UnicodeDecodeError included
        raise BundleFormatError(f"{path}: invalid model bundle: {exc}") from exc


def _parse(blob: bytes, path: str) -> ModelBundle:
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise BundleFormatError(f"{path}: not a model bundle (bad magic)")
    version, config_hash = r.unpack("<IQ")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported model format version {version} (supported: {FORMAT_VERSION})"
        )
    sample_rate, frame_length, m, k = r.unpack("<IIII")
    (has_net,) = r.unpack("<B")

    labels = []
    for _ in range(m):
        (ln,) = r.unpack("<H")
        labels.append(r.take(ln).decode())
    mog = PhonemeMog(
        weights=r.floats((m,)),
        means=r.floats((m, k)),
        stds=r.floats((m, k)),
        labels=tuple(labels),
    )

    net = None
    if has_net:
        hidden, inputs = r.unpack("<II")
        net = NnClassifier(
            w1=r.floats((hidden, inputs + 1)),
            w2=r.floats((m, hidden + 1)),
        )
    if r.pos != len(r.blob):
        raise BundleFormatError("trailing bytes after model payload")

    return ModelBundle(
        mog=mog,
        net=net,
        sample_rate=sample_rate,
        frame_length=frame_length,
        config_hash=config_hash,
    )
