"""Wireless transport: ideal orthogonal digital links, over-the-air analog
superposition with receive beamforming and power control, and compressed
over-the-air transmission with sparse recovery at the server.

Channels are real-valued with block fading: gains are drawn once per round
and held constant across the round's channel uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError, SchemeError

IDEAL_DIGITAL = "ideal-digital"
OVER_THE_AIR = "over-the-air"
CS_OVER_THE_AIR = "cs-over-the-air"

SCHEMES = (IDEAL_DIGITAL, OVER_THE_AIR, CS_OVER_THE_AIR)

GAIN_EPS = 1e-9
DIGITAL_SYMBOL_BITS = 64


@dataclass
class ChannelRealization:
    gains: np.ndarray  # (K, N), row k = h_k
    noise_std: float
    seed: int = 0

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if self.gains.ndim != 2:
            raise ConfigurationError("gains must be a (K, N) matrix")
        if not np.all(np.isfinite(self.gains)):
            raise ConfigurationError("channel gains must be finite")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")

    @property
    def n_antennas(self) -> int:
        return self.gains.shape[1]


@dataclass
class PowerAllocation:
    powers: dict[int, float]  # client id -> p_k
    cap: float

    def __post_init__(self):
        if self.cap <= 0:
            raise ConfigurationError("power cap must be > 0")
        for cid, p in self.powers.items():
            if p < 0 or p > self.cap * (1 + 1e-12):
                raise ConfigurationError(f"power for client {cid} outside [0, cap]")


@dataclass
class Beamformer:
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(self.weights)):
            raise ConfigurationError("beamformer weights must be finite")


@dataclass
class TransportScheme:
    kind: str = IDEAL_DIGITAL
    measurements: int | None = None  # cs-over-the-air projection count

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ConfigurationError(f"unknown transport scheme {self.kind!r}")
        if self.kind == CS_OVER_THE_AIR and (
            self.measurements is None or self.measurements < 1
        ):
            raise ConfigurationError("cs-over-the-air requires measurements >= 1")

    @property
    def analog(self) -> bool:
        return self.kind != IDEAL_DIGITAL


def sample_channel(
    n_clients: int, n_antennas: int, noise_std: float, seed: int
) -> ChannelRealization:
    """Block-fading realization: i.i.d. standard normal gains from the seed."""
    if n_clients < 1 or n_antennas < 1:
        raise ConfigurationError("n_clients and n_antennas must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gains = rng.standard_normal((n_clients, n_antennas))
    return ChannelRealization(gains, noise_std, seed)


def solve_aggregation_weights(
    ch: ChannelRealization,
    targets: dict[int, float],
    power_cap: float,
) -> tuple[Beamformer, PowerAllocation, list[int], dict[int, float]]:
    """Find (m, p) approximating m^T h_k sqrt(p_k) = c_k under the power cap.

    Iterative heuristic: solve for the minimum-norm beamformer hitting unit
    gain on every candidate (pseudo-inverse when antennas allow, principal
    channel direction otherwise), derive powers, drop any client that needs
    more than the cap or sits in the beamformer's null space, renormalize the
    remaining targets, and repeat.
    """
    if power_cap <= 0:
        raise ConfigurationError("power cap must be > 0")
    candidates = sorted(targets)
    tgt = {cid: targets[cid] for cid in candidates}
    ssum = sum(tgt.values())
    if not candidates or abs(ssum - 1.0) > 1e-9:
        raise ConfigurationError("targets must sum to 1 over candidates")

    n_rounds = len(candidates)
    m_vec = None
    for _ in range(n_rounds):
        if not candidates:
            break
        H = ch.gains[candidates]  # (Kc, N)
        if ch.n_antennas >= len(candidates):
            m_vec = np.linalg.pinv(H) @ np.ones(len(candidates))
            # unit-norm convention: the channel scale lives in the powers,
            # so the per-client cap is meaningful
            nrm = np.linalg.norm(m_vec)
            if nrm > 0:
                m_vec = m_vec / nrm
        else:
            # principal direction of sum_k h_k h_k^T
            _, _, vt = np.linalg.svd(H, full_matrices=False)
            m_vec = vt[0]
            if np.sum(H @ m_vec) < 0:
                m_vec = -m_vec
        gains = H @ m_vec
        excluded = []
        powers = {}
        for cid, gain in zip(candidates, gains):
            if gain <= GAIN_EPS:
                excluded.append(cid)
                continue
            sqrt_p = tgt[cid] / gain
            if sqrt_p * sqrt_p > power_cap:
                excluded.append(cid)
            else:
                powers[cid] = sqrt_p * sqrt_p
        if not excluded:
            residuals = {
                cid: abs(float(gain) * np.sqrt(powers[cid]) - tgt[cid])
                for cid, gain in zip(candidates, gains)
            }
            return (
                Beamformer(m_vec),
                PowerAllocation(powers, power_cap),
                candidates,
                residuals,
            )
        candidates = [cid for cid in candidates if cid not in excluded]
        total = sum(targets[cid] for cid in candidates)
        if total > 0:
            tgt = {cid: targets[cid] / total for cid in candidates}
    raise SchemeError("no clients satisfy the aggregation constraints")


def measurement_matrix(d: int, m_cs: int, seed: int) -> np.ndarray:
    """Shared Gaussian projection matrix, identical at all clients."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    return rng.standard_normal((m_cs, d))


def omp_recover(
    A: np.ndarray, y: np.ndarray, sparsity: int, tol: float = 1e-8
) -> np.ndarray:
    """Orthogonal matching pursuit: greedy support growth with least-squares
    refit, stopping at the sparsity budget or when the residual drops below
    tol."""
    m, d = A.shape
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    An = A / norms
    x = np.zeros(d)
    support: list[int] = []
    residual = y.copy()
    budget = min(sparsity, m, d)
    for _ in range(budget):
        if np.linalg.norm(residual) < tol:
            break
        scores = np.abs(An.T @ residual)
        scores[support] = -1.0
        j = int(np.argmax(scores))
        support.append(j)
        coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        residual = y - A[:, support] @ coef
    if support:
        x[support] = coef
    return x


def weighted_mean(vectors: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Size-weighted mean of equal-length vectors, accumulated in list order."""
    if not vectors:
        raise ProtocolError("no vectors to aggregate")
    total = sum(sizes)
    out = np.zeros(vectors[0].shape)
    for v, size in zip(vectors, sizes, strict=True):
        if v.shape != out.shape:
            raise ConfigurationError("vector lengths differ")
        out += (size / total) * v
    return out


@dataclass
class TransmitEntry:
    """One client's contribution to a round's uplink."""

    client_id: int
    dense: np.ndarray  # decoded payload actually transmitted
    raw: np.ndarray  # uncompressed payload, for error accounting
    size: int  # |D_k|
    n_symbols: int  # digital symbols this payload would occupy
    payload_bits: int
    sparsity: int  # nonzero budget contributed to CS recovery


@dataclass
class TransmitResult:
    aggregated: np.ndarray
    channel_uses: int
    bits_equivalent: int
    aggregation_error: float


def transmit_round(
    entries: list[TransmitEntry],
    scheme: TransportScheme,
    ch: ChannelRealization | None = None,
    power: PowerAllocation | None = None,
    beamformer: Beamformer | None = None,
    rng: np.random.Generator | None = None,
) -> TransmitResult:
    """Deliver one round of uplink payloads and aggregate at the server."""
    if not entries:
        raise SchemeError("no payloads to transmit")
    d = entries[0].dense.size
    sizes = [e.size for e in entries]
    exact = weighted_mean([e.raw for e in entries], sizes)

    if scheme.kind == IDEAL_DIGITAL:
        agg = weighted_mean([e.dense for e in entries], sizes)
        uses = sum(e.n_symbols for e in entries)
        bits = sum(e.payload_bits for e in entries)
        return TransmitResult(agg, uses, bits, float(np.linalg.norm(agg - exact)))

    if ch is None or power is None or beamformer is None:
        raise ConfigurationError("analog schemes require channel, power, beamformer")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(ch.seed))

    coeffs = np.array(
        [
            float(beamformer.weights @ ch.gains[e.client_id])
            * np.sqrt(power.powers[e.client_id])
            for e in entries
        ]
    )

    if scheme.kind == OVER_THE_AIR:
        V = np.stack([e.dense for e in entries])  # (Kc, d)
        y = coeffs @ V
        if ch.noise_std > 0:
            noise = ch.noise_std * rng.standard_normal((d, ch.n_antennas))
            y = y + noise @ beamformer.weights
        return TransmitResult(
            y, d, d * DIGITAL_SYMBOL_BITS, float(np.linalg.norm(y - exact))
        )

    # cs-over-the-air
    m_cs = scheme.measurements
    if m_cs >= d:
        raise ConfigurationError("measurements must be < d (no compression achieved)")
    A = measurement_matrix(d, m_cs, ch.seed)
    P = np.stack([A @ e.dense for e in entries])  # (Kc, m_cs)
    y = coeffs @ P
    if ch.noise_std > 0:
        noise = ch.noise_std * rng.standard_normal((m_cs, ch.n_antennas))
        y = y + noise @ beamformer.weights
    budget = sum(e.sparsity for e in entries)
    agg = omp_recover(A, y, budget)
    return TransmitResult(
        agg, m_cs, m_cs * DIGITAL_SYMBOL_BITS, float(np.linalg.norm(agg - exact))
    )
