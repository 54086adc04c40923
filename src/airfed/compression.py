"""Gradient compression codecs: sparsification, quantization, error feedback,
and a deep-gradient-compression style pipeline, with exact bit accounting.

Payload cost model: a sparse payload of n entries over a length-d vector costs
n * (ceil(log2 d) + bits_per_symbol) + 64 header bits. A dense payload
(no sparsifier) needs no index bits: d * bits_per_symbol + 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

HEADER_BITS = 64
FLOAT_BITS = 64

SPARSIFIER_NONE = "none"
SPARSIFIER_THRESHOLD = "threshold"
SPARSIFIER_TOPK = "topk"

QUANTIZER_NONE = "none"
QUANTIZER_BINARY = "binary"
QUANTIZER_THREE = "three-level"
QUANTIZER_FOUR = "four-level"

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

    indices: np.ndarray  # sorted unique int64 positions, all < d
    values: np.ndarray  # decoded real values aligned with indices
    d: int
    payload_bits: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.size and (
            np.any(np.diff(self.indices) <= 0)
            or self.indices[0] < 0
            or self.indices[-1] >= self.d
        ):
            raise ConfigurationError("indices must be strictly increasing and < d")

    def decode(self) -> np.ndarray:
        dense = np.zeros(self.d)
        dense[self.indices] = self.values
        return dense


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
        if self.sparsifier not in (SPARSIFIER_NONE, SPARSIFIER_THRESHOLD, SPARSIFIER_TOPK):
            raise ConfigurationError(f"unknown sparsifier {self.sparsifier!r}")
        if self.quantizer not in _SYMBOL_BITS:
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
        parts = []
        if self.sparsifier == SPARSIFIER_THRESHOLD:
            parts.append(f"thr{self.threshold:g}")
        elif self.sparsifier == SPARSIFIER_TOPK:
            parts.append(f"topk{self.keep_fraction:g}")
        else:
            parts.append("dense")
        parts.append(self.quantizer)
        if self.error_feedback:
            parts.append("ef")
        if self.momentum:
            parts.append(f"m{self.momentum:g}")
        if self.clip_norm is not None:
            parts.append(f"clip{self.clip_norm:g}")
        if self.warmup:
            parts.append("warmup")
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


def topk_indices(g: np.ndarray, rho: float) -> np.ndarray:
    """Indices of the k = max(1, ceil(rho*d)) largest-|g| entries, ties to
    the lower index, returned sorted ascending. NaN ranks below every number.

    Linear time: a partition finds the k-th key, every entry strictly above
    it is kept, and the lowest-index entries equal to it fill the rest."""
    if not (0 < rho <= 1):
        raise ConfigurationError("keep fraction must be in (0, 1]")
    d = g.size
    k = max(1, math.ceil(rho * d))
    if k >= d:
        return np.arange(d)
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


def quantize(values: np.ndarray, levels: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Quantize values to the given level count; returns (symbols, scales).

    binary (2):  symbol = sign, scale = mean|v|, decode = scale * symbol.
    three (3):   symbol 0 when |v| <= s/2 with s the mean |v| over the entries
                 mapped to nonzero symbols (two-pass: provisional mean first).
    four (4):    magnitude split at mean|v|; inner/outer groups get their own
                 mean-|v| scales; symbols {-2, -1, +1, +2}.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigurationError("quantize requires nonempty values")
    sign = np.where(v >= 0, 1, -1).astype(np.int8)
    mag = np.abs(v)
    if levels == 2:
        return sign, (float(np.mean(mag)),)
    if levels == 3:
        s0 = float(np.mean(mag))
        symbols = np.where(mag <= s0 / 2, 0, sign).astype(np.int8)
        nz = symbols != 0
        s = float(np.mean(mag[nz])) if np.any(nz) else 0.0
        return symbols, (s,)
    if levels == 4:
        s0 = float(np.mean(mag))
        inner = mag <= s0
        symbols = np.where(inner, sign, 2 * sign).astype(np.int8)
        s_lo = float(np.mean(mag[inner])) if np.any(inner) else 0.0
        s_hi = float(np.mean(mag[~inner])) if np.any(~inner) else 0.0
        return symbols, (s_lo, s_hi)
    raise ConfigurationError("levels must be one of 2, 3, 4")


def dequantize(symbols: np.ndarray, scales: tuple[float, ...], quantizer: str) -> np.ndarray:
    symbols = np.asarray(symbols)
    if quantizer == QUANTIZER_BINARY or quantizer == QUANTIZER_THREE:
        return scales[0] * symbols.astype(np.float64)
    if quantizer == QUANTIZER_FOUR:
        s_lo, s_hi = scales
        mag = np.where(np.abs(symbols) == 1, s_lo, s_hi)
        return np.sign(symbols) * mag
    raise ConfigurationError(f"cannot dequantize with quantizer {quantizer!r}")


_QUANT_LEVELS = {QUANTIZER_BINARY: 2, QUANTIZER_THREE: 3, QUANTIZER_FOUR: 4}


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
        idx = np.arange(d)

    kept = v[idx].copy()
    if spec.error_feedback:
        state.momentum[idx] = 0.0
        state.residual[idx] = 0.0

    if spec.quantizer != QUANTIZER_NONE and kept.size:
        symbols, scales = quantize(kept, _QUANT_LEVELS[spec.quantizer])
        values = dequantize(symbols, scales, spec.quantizer)
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
