"""Gradient compression codecs: sparsification, quantization, error feedback,
and a deep-gradient-compression style pipeline, with exact bit accounting.

Payload cost model: a sparse payload of n entries over a length-d vector costs
n * (ceil(log2 d) + bits_per_symbol) + 64 header bits. A dense payload
(no sparsifier) needs no index bits: d * bits_per_symbol + 64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

HEADER_BITS = 64
FLOAT_BITS = 64

SPARSIFIER_NONE = "none"
SPARSIFIER_THRESHOLD = "threshold"
SPARSIFIER_TOPK = "topk"
SPARSIFIERS = (SPARSIFIER_NONE, SPARSIFIER_THRESHOLD, SPARSIFIER_TOPK)

QUANTIZER_NONE = "none"
QUANTIZER_BINARY = "binary"
QUANTIZER_THREE = "three-level"
QUANTIZER_FOUR = "four-level"
QUANTIZERS = (QUANTIZER_NONE, QUANTIZER_BINARY, QUANTIZER_THREE, QUANTIZER_FOUR)

_SYMBOL_BITS = {
    QUANTIZER_NONE: FLOAT_BITS,
    QUANTIZER_BINARY: 1,
    QUANTIZER_THREE: 2,
    QUANTIZER_FOUR: 2,
}


def index_bits(d: int) -> int:
    """Bits needed to address one coordinate of a length-d vector."""
    return math.ceil(math.log2(d)) if d > 1 else 0


@dataclass
class CompressedGradient:
    """Sparse encoded gradient plus everything needed to decode it."""

    indices: np.ndarray  # strictly increasing int64 positions in [0, d)
    values: np.ndarray  # decoded float64 values aligned with indices
    d: int
    payload_bits: int

    def decode(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense length-d vector, written into `out` when given: every
        entry of `out` is set, the unsent ones to zero. The indices strictly
        increase in [0, d), so d of them are 0..d-1 and the values are the
        vector: a copy, not a scatter."""
        out = np.empty(self.d) if out is None else out
        if out.shape != (self.d,):
            raise ConfigurationError(f"decode target has shape {out.shape}, expected ({self.d},)")
        if self.values.size == self.d:
            out[:] = self.values
        else:
            out.fill(0.0)
            out[self.indices] = self.values
        return out


@dataclass
class CodecSpec:
    sparsifier: str = SPARSIFIER_NONE
    threshold: float = 0.0  # threshold sparsifier
    keep_fraction: float = 1.0  # top-k sparsifier
    quantizer: str = QUANTIZER_NONE
    error_feedback: bool = False
    momentum: float = 0.0  # momentum-correction factor, [0, 1)
    clip_norm: float | None = None  # L2 clipping bound, > 0
    warmup: tuple[float, ...] | None = None  # per-epoch keep fractions

    def __post_init__(self):
        if self.sparsifier not in SPARSIFIERS:
            raise ConfigurationError(f"unknown sparsifier {self.sparsifier!r}")
        if self.quantizer not in QUANTIZERS:
            raise ConfigurationError(f"unknown quantizer {self.quantizer!r}")
        if self.sparsifier == SPARSIFIER_THRESHOLD and self.threshold < 0:
            raise ConfigurationError("threshold must be >= 0")
        if self.sparsifier == SPARSIFIER_TOPK and not (0 < self.keep_fraction <= 1):
            raise ConfigurationError("keep_fraction must be in (0, 1]")
        if not (0 <= self.momentum < 1):
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be > 0")
        if self.warmup is not None and (
            not self.warmup or any(not (0 < r <= 1) for r in self.warmup)
        ):
            raise ConfigurationError("warmup fractions must be in (0, 1]")

    @property
    def codec_id(self) -> str:
        """The codec's stages, named by the values that run: a top-k codec
        with a warm-up names its fractions, not the unused keep_fraction."""
        parts = []
        if self.sparsifier == SPARSIFIER_THRESHOLD:
            parts.append(f"thr{self.threshold:g}")
        elif self.sparsifier == SPARSIFIER_TOPK:
            fractions = self.warmup or (self.keep_fraction,)
            parts.append("topk" + ",".join(f"{r:g}" for r in fractions))
        else:
            parts.append("dense")
        parts.append(self.quantizer)
        if self.error_feedback:
            parts.append("ef")
        if self.momentum:
            parts.append(f"m{self.momentum:g}")
        if self.clip_norm is not None:
            parts.append(f"clip{self.clip_norm:g}")
        return "|".join(parts)


@dataclass
class EncoderState:
    """Per-client accumulators owned by that client's encoder."""

    momentum: np.ndarray  # u: momentum-corrected gradient accumulator
    residual: np.ndarray  # v: not-yet-transmitted mass

    @classmethod
    def zeros(cls, d: int) -> "EncoderState":
        return cls(np.zeros(d), np.zeros(d))


def _payload_bits(d: int, n_kept: int, quantizer: str, implicit_indices: bool) -> int:
    sym = _SYMBOL_BITS[quantizer]
    if implicit_indices:
        return d * sym + HEADER_BITS
    return n_kept * (index_bits(d) + sym) + HEADER_BITS


@functools.cache
def _every_index(d: int) -> np.ndarray:
    """0..d-1, the indices of every dense payload of length d: one read-only
    array for all of them, not a new one per upload. The cache holds one
    array per vector length the process encodes."""
    idx = np.arange(d)
    idx.flags.writeable = False
    return idx


def kept_count(fraction: float, n: int) -> int:
    """How many of n items a fraction in (0, 1] keeps: max(1, ceil(fraction*n)),
    at most n. A product within 4 * 2^-52 relative above an integer is that
    integer, since the rounding of the product put it there: 0.07 * 100 is
    7.000000000000001, which keeps 7 items, not 8."""
    x = fraction * n
    k = math.floor(x)
    return max(1, k if x - k <= 4 * 2.0**-52 * k else k + 1)


def topk_indices(g: np.ndarray, rho: float) -> np.ndarray:
    """Indices of the k = kept_count(rho, d) largest-|g| entries, rho in (0, 1]
    as `CodecSpec` and `RoundConfig` ensure, ties to the lower index, sorted
    ascending. NaN ranks below every number. Linear time: a partition finds the
    k-th key, every entry strictly above it is kept, and the lowest-index
    entries equal to it fill the rest."""
    d = g.size
    k = kept_count(rho, d)
    key = -np.abs(g)  # ascending key; np.partition puts NaN last
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):  # fewer than k numbers: all of them, then NaNs
        tied = np.isnan(key)
        keep = ~tied
    else:
        tied = key == kth
        keep = key < kth
    keep[np.flatnonzero(tied)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def quantize(values: np.ndarray, quantizer: str) -> np.ndarray:
    """The decoded values a lossy quantizer's payload carries, scale * symbol.

    binary:      symbol = sign, scale = mean|v|.
    three-level: symbol 0 when |v| <= s/2 with s the mean |v| over the entries
                 mapped to nonzero symbols (two-pass: provisional mean first).
    four-level:  magnitude split at mean|v|; inner/outer groups get their own
                 mean-|v| scales; symbols {-2, -1, +1, +2}.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigurationError("quantize requires nonempty values")
    sign = np.where(v >= 0, 1.0, -1.0)
    mag = np.abs(v)
    # a mean is sum / count: the reduction np.mean does, without its wrapper
    s0 = float(mag.sum() / v.size)
    if quantizer == QUANTIZER_BINARY:
        return s0 * sign
    if quantizer == QUANTIZER_THREE:
        symbols = np.where(mag <= s0 / 2, 0.0, sign)
        nz = symbols != 0
        n_nz = np.count_nonzero(nz)
        s = float(mag[nz].sum() / n_nz) if n_nz else 0.0
        return s * symbols
    if quantizer == QUANTIZER_FOUR:
        inner = mag <= s0
        n_in = np.count_nonzero(inner)
        s_lo = float(mag[inner].sum() / n_in) if n_in else 0.0
        s_hi = float(mag[~inner].sum() / (v.size - n_in)) if n_in < v.size else 0.0
        return sign * np.where(inner, s_lo, s_hi)
    raise ConfigurationError(f"{quantizer!r} is not a lossy quantizer")


def encode(
    g: np.ndarray,
    spec: CodecSpec,
    state: EncoderState | None = None,
    epoch: int = 0,
) -> CompressedGradient:
    """Full codec pipeline: clip, momentum-corrected accumulation, sparsify,
    mask the accumulators at transmitted coordinates, quantize."""
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    if spec.error_feedback:
        if state is None:
            raise ConfigurationError("error feedback requires encoder state")
        if state.residual.size != d or state.momentum.size != d:
            raise ConfigurationError("encoder state length must match gradient")

    work = g
    if spec.clip_norm is not None:
        nrm = float(np.linalg.norm(work))
        if nrm > spec.clip_norm:
            work = work * (spec.clip_norm / nrm)

    if spec.error_feedback:
        state.momentum *= spec.momentum
        state.momentum += work
        state.residual += state.momentum
        v = state.residual
    else:
        v = work

    if spec.sparsifier == SPARSIFIER_THRESHOLD:
        idx = np.flatnonzero(np.abs(v) > spec.threshold)
    elif spec.sparsifier == SPARSIFIER_TOPK:
        rho = spec.keep_fraction
        if spec.warmup is not None:
            rho = spec.warmup[min(epoch, len(spec.warmup) - 1)]
        idx = topk_indices(v, rho)
    else:
        idx = _every_index(d)

    # a copy either way: masking v below leaves it intact
    kept = v.copy() if spec.sparsifier == SPARSIFIER_NONE else v[idx]
    if spec.error_feedback:
        state.momentum[idx] = 0.0
        state.residual[idx] = 0.0

    if spec.quantizer != QUANTIZER_NONE and kept.size:
        values = quantize(kept, spec.quantizer)
    else:
        values = kept

    return CompressedGradient(
        indices=idx,
        values=values,
        d=d,
        payload_bits=_payload_bits(
            d, idx.size, spec.quantizer, spec.sparsifier == SPARSIFIER_NONE
        ),
    )


def compression_ratio(c: CompressedGradient) -> float:
    """Payload bits over the uncompressed full-precision payload bits."""
    return c.payload_bits / (FLOAT_BITS * c.d)
