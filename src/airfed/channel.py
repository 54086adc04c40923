"""Wireless transport: ideal orthogonal digital links, over-the-air analog
superposition with receive beamforming and power control, and compressed
over-the-air transmission with sparse recovery at the server.

Channels are real-valued with block fading: gains are drawn once per round
and held constant across the round's channel uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compression import FLOAT_BITS, CompressedGradient
from .errors import ConfigurationError, ProtocolError, SchemeError

IDEAL_DIGITAL = "ideal-digital"
OVER_THE_AIR = "over-the-air"
CS_OVER_THE_AIR = "cs-over-the-air"

SCHEMES = (IDEAL_DIGITAL, OVER_THE_AIR, CS_OVER_THE_AIR)

GAIN_EPS = 1e-9
OMP_TOL = 1e-8  # residual norm at which matching pursuit stops


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


class AirPlan(NamedTuple):
    """An over-the-air round's transceiver: receive beamformer m, amplitude
    sqrt(p_k) per transmitting client, and those clients in ascending order."""

    beam: np.ndarray
    amplitudes: np.ndarray  # aligned with transmitters
    transmitters: list[int]


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
        if self.kind != CS_OVER_THE_AIR and self.measurements is not None:
            raise ConfigurationError(f"{self.kind} takes no measurements")

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
) -> AirPlan:
    """Find (m, p) approximating m^T h_k sqrt(p_k) = c_k under the power cap.

    Iterative heuristic: solve for the minimum-norm beamformer hitting unit
    gain on every candidate when antennas allow (m = Q R^-T 1 from the
    reduced QR factorisation H^T = QR; pinv(H) @ 1 when R has a negligible
    diagonal entry, i.e. the channels are linearly dependent), otherwise take
    the principal channel direction (top eigenvector of H^T H); derive powers,
    drop any client that needs more than the cap or sits in the beamformer's
    null space, renormalize the remaining targets, and repeat.
    """
    if power_cap <= 0:
        raise ConfigurationError("power cap must be > 0")
    ids = np.array(sorted(targets), dtype=np.intp)
    shares = tgt = np.array([targets[cid] for cid in ids.tolist()])
    if not np.all((shares >= 0) & (shares < np.inf)):
        raise ConfigurationError("targets must be finite and >= 0")
    if not ids.size or abs(sum(shares.tolist()) - 1.0) > 1e-9:
        raise ConfigurationError("targets must sum to 1 over candidates")

    while ids.size:
        H = ch.gains[ids]  # (Kc, N)
        if ch.n_antennas >= ids.size:
            ones = np.ones(ids.size)
            q, r = np.linalg.qr(H.T)
            diag = np.abs(np.diag(r))
            if diag.min() > 1e-12 * diag.max():
                m_vec = q @ np.linalg.solve(r.T, ones)
            else:
                m_vec = np.linalg.pinv(H) @ ones
            # unit-norm convention: the channel scale lives in the powers,
            # so the per-client cap is meaningful
            nrm = np.linalg.norm(m_vec)
            if nrm > 0:
                m_vec = m_vec / nrm
        else:
            # principal direction of sum_k h_k h_k^T
            m_vec = np.linalg.eigh(H.T @ H)[1][:, -1]
            if np.sum(H @ m_vec) < 0:
                m_vec = -m_vec
        gain = H @ m_vec
        a = tgt / np.maximum(gain, GAIN_EPS)  # masked below where gain <= eps
        keep = (gain > GAIN_EPS) & (a * a <= power_cap)
        if keep.all():
            return AirPlan(m_vec, a, ids.tolist())
        ids, shares = ids[keep], shares[keep]
        # summed in order as in the check above; np.sum would pair the terms
        total = sum(shares.tolist())  # 0 only if all are 0
        tgt = shares / (total or 1.0)
    raise SchemeError("no clients satisfy the aggregation constraints")


def _hartley(x: np.ndarray) -> np.ndarray:
    """Real Hartley transform: its kernel cas = cos + sin is Re - Im of the DFT's."""
    f = np.fft.fft(x)
    return f.real - f.imag


@dataclass(frozen=True, eq=False)
class HartleyProjection:
    """Structurally random projection A = S H D (Do, Gan, Nguyen & Tran,
    arXiv 1106.5037): D flips the signs of the d columns, H is the real
    Hartley transform and S keeps m distinct rows. A product costs one FFT.
    Not scaled by 1/sqrt(m): cas entries have unit mean square, as N(0, 1)
    entries do, so column norms stay about sqrt(m)."""

    signs: np.ndarray  # (d,) the diagonal of D, each +1 or -1
    rows: np.ndarray  # (m,) the distinct rows of H that S keeps
    cas: np.ndarray  # (d,) cas(2 pi t / d); H[i, j] = cas[(i * j) % d]

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.size, self.signs.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return _hartley(self.signs * x)[self.rows]

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """A^T r: H is symmetric, so one transform of r placed on the rows."""
        z = np.zeros(self.signs.size)
        z[self.rows] = r
        return self.signs * _hartley(z)

    def column(self, j: int) -> np.ndarray:
        return self.signs[j] * self.cas[self.rows * j % self.signs.size]

    def column_norms(self) -> np.ndarray:
        """Exact norms: cas^2 = 1 + sin(2 theta), so with u the rows' indicator
        ||a_j||^2 = m - Im(fft(u))[2j mod d]. A nonzero term is at least
        2 sin^2(pi/4d); a sum below half that is rounding on zeros of cas."""
        m, d = self.shape
        u = np.zeros(d)
        u[self.rows] = 1.0
        sq = m - np.fft.fft(u).imag[2 * np.arange(d) % d]
        sq[sq < math.sin(math.pi / (4 * d)) ** 2] = 0.0
        return np.sqrt(sq)


def measurement_matrix(d: int, m_cs: int, seed: int) -> HartleyProjection:
    """Shared projection A = S H D, identical at all clients; drawn per round."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    signs = 1.0 - 2.0 * rng.integers(0, 2, d)
    rows = rng.choice(d, size=m_cs, replace=False)
    theta = (2 * np.pi / d) * np.arange(d)
    return HartleyProjection(signs, rows, np.cos(theta) + np.sin(theta))


def omp_recover(
    A: np.ndarray | HartleyProjection, y: np.ndarray, sparsity: int
) -> np.ndarray:
    """Orthogonal matching pursuit: greedy support growth, stopping at the
    sparsity budget or when the residual drops below OMP_TOL.

    A is a matrix or a `HartleyProjection`: the loop reads only A^T r, columns
    and column norms. Each step extends a thin QR factorisation of the
    selected columns (one Gram-Schmidt pass plus one re-orthogonalisation)
    and projects the new direction out of the residual, so the least-squares
    fit is never redone; the triangular system is solved once, at the end. A
    column whose orthogonalised norm is <= 1e-12 of its own lies in the span
    already chosen: the fit cannot improve, so the search stops there.
    """
    m, d = A.shape
    if isinstance(A, np.ndarray):
        correlate, column = lambda r: A.T @ r, lambda j: A[:, j]
        norms = np.linalg.norm(A, axis=0)
    else:
        correlate, column, norms = A.rmatvec, A.column, A.column_norms()
    norms[norms == 0] = 1.0
    budget = min(sparsity, m, d)
    Q = np.empty((budget, m))  # row i: the i-th orthonormal direction
    R = np.zeros((budget, budget))
    support: list[int] = []
    taken = np.zeros(d, dtype=bool)
    residual = y.astype(np.float64)
    for k in range(budget):
        if math.sqrt(residual @ residual) < OMP_TOL:
            break
        scores = np.abs(correlate(residual)) / norms
        scores[taken] = -1.0
        j = int(np.argmax(scores))
        a_j = column(j)
        Qk = Q[:k]
        r = Qk @ a_j
        q = a_j - r @ Qk
        again = Qk @ q
        q -= again @ Qk
        r += again
        r_kk = math.sqrt(q @ q)
        if r_kk <= 1e-12 * norms[j]:
            break
        Q[k] = q / r_kk
        R[:k, k] = r
        R[k, k] = r_kk
        taken[j] = True
        support.append(j)
        residual -= (Q[k] @ residual) * Q[k]
    x = np.zeros(d)
    s = len(support)
    if s:
        x[support] = np.linalg.solve(R[:s, :s], Q[:s] @ y)
    return x


def weighted_mean(vectors: list[np.ndarray] | np.ndarray, sizes: list[int]) -> np.ndarray:
    """Size-weighted mean of equal-length vectors, a list or a matrix's rows:
    one product of the shares |D_k| / sum |D| with the stacked rows."""
    if len(vectors) == 0:
        raise ProtocolError("no vectors to aggregate")
    shares = np.asarray(sizes, dtype=np.float64)
    total = shares.sum()
    if shares.shape != (len(vectors),) or not total > 0 or shares.min() < 0:
        raise ConfigurationError("sizes must be one per vector, >= 0, with a positive sum")
    try:
        rows = np.asarray(vectors)  # a list is stacked; a matrix is used as it is
    except ValueError:
        raise ConfigurationError("vector lengths differ") from None
    return (shares / total) @ rows


@dataclass
class TransmitEntry:
    """One client's contribution to a round's uplink."""

    client_id: int
    payload: CompressedGradient  # what the client transmits
    raw: np.ndarray  # uncompressed payload, for error accounting
    size: int  # |D_k|

    @property
    def dense(self) -> np.ndarray:
        return self.payload.decode()


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
    plan: AirPlan | None = None,
    rng: np.random.Generator | None = None,
) -> TransmitResult:
    """Deliver one round of uplink payloads and aggregate at the server:
    one coefficient vector times the decoded payload rows, the size shares
    on digital links and the gains m^T h_k sqrt(p_k) over the air.

    A digital payload occupies one channel use per transmitted entry. An
    analog round needs the channel, its plan and its entries in the order
    of `plan.transmitters`; a noisy one also needs the noise generator."""
    if not entries:
        raise SchemeError("no payloads to transmit")
    sizes = [e.size for e in entries]
    exact = weighted_mean([e.raw for e in entries], sizes)
    rows = np.asarray([e.dense for e in entries])  # (K, d), each decoded once
    if scheme.analog and (ch is None or plan is None):
        raise ConfigurationError("analog schemes require a channel and a plan")
    if scheme.analog and ch.noise_std > 0 and rng is None:
        raise ConfigurationError("a noisy analog channel requires a noise rng")
    if scheme.analog and [e.client_id for e in entries] != plan.transmitters:
        # coefficients are taken by position: any other order mis-weights
        raise ConfigurationError("entries must follow plan.transmitters, in order")
    if scheme.kind == CS_OVER_THE_AIR and scheme.measurements >= rows.shape[1]:
        raise ConfigurationError("measurements must be < d (no compression achieved)")

    if scheme.kind == IDEAL_DIGITAL:
        agg = weighted_mean(rows, sizes)
        uses = sum(e.payload.indices.size for e in entries)
        bits = sum(e.payload.payload_bits for e in entries)
    else:
        y = (ch.gains[plan.transmitters] @ plan.beam * plan.amplitudes) @ rows
        if scheme.kind == CS_OVER_THE_AIR:
            A = measurement_matrix(y.size, scheme.measurements, ch.seed)
            y = A @ y  # projection is linear: project the sum once, not each payload
        uses, bits = y.size, y.size * FLOAT_BITS
        if ch.noise_std > 0:
            y = y + ch.noise_std * rng.standard_normal((uses, ch.n_antennas)) @ plan.beam
        agg = y
        if scheme.kind == CS_OVER_THE_AIR:
            budget = sum(np.count_nonzero(e.payload.values) for e in entries)
            agg = omp_recover(A, y, budget)
    return TransmitResult(agg, uses, bits, float(np.linalg.norm(agg - exact)))
