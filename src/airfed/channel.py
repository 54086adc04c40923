"""Wireless transport: ideal orthogonal digital links, over-the-air analog
superposition with receive beamforming and power control, and compressed
over-the-air transmission with sparse recovery at the server.

Channels are real-valued with block fading: gains are drawn once per round
and held constant across the round's channel uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
# what the Gram domain resolves of a squared norm, relative to its scale
GRAM_FLOOR = 64 * float(np.finfo(np.float64).eps)


@dataclass
class ChannelRealization:
    gains: np.ndarray  # (K, N), row k = h_k
    noise_std: float  # >= 0, as `RoundConfig` ensures
    seed: int = 0

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if self.gains.ndim != 2:
            raise ConfigurationError("gains must be a (K, N) matrix")
        if not np.all(np.isfinite(self.gains)):
            raise ConfigurationError("channel gains must be finite")

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
    """Block-fading realization: i.i.d. standard normal gains from the seed.
    Both counts are >= 1, as `PartitionSpec` and `RoundConfig` ensure."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gains = rng.standard_normal((n_clients, n_antennas))
    return ChannelRealization(gains, noise_std, seed)


def solve_aggregation_weights(
    ch: ChannelRealization,
    targets: dict[int, float],
    power_cap: float,
) -> AirPlan:
    """Find (m, p) approximating m^T h_k sqrt(p_k) = c_k under the power cap.

    Iterative heuristic over the candidates: c_k is client k's target weight
    (such as its size |D_k|) over the candidates' sum; solve for the
    minimum-norm beamformer hitting unit gain on every candidate when
    antennas allow (m = Q R^-T 1 from the reduced QR factorisation H^T = QR;
    pinv(H) @ 1 when R has a negligible diagonal entry, i.e. the channels
    are linearly dependent), otherwise take the principal channel direction
    (top eigenvector of H^T H); derive powers, drop every client whose gain
    m^T h_k on the beam is <= GAIN_EPS (negative gains included) or whose
    squared amplitude (c_k / gain)^2 exceeds the cap, and repeat. The cap is
    > 0, as `RoundConfig` ensures."""
    ids = np.array(sorted(targets), dtype=np.intp)
    shares = np.array([targets[cid] for cid in ids.tolist()])
    if not np.all((shares >= 0) & (shares < np.inf)):
        raise ConfigurationError("targets must be finite and >= 0")
    if not sum(shares.tolist()) > 0:
        raise ConfigurationError("targets must have a positive sum")

    while ids.size:
        tgt = shares / (sum(shares.tolist()) or 1.0)  # in order, unlike np.sum
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
        gain = H @ m_vec
        # eigh's sign is arbitrary; unit-gain beam gains sum to ||P 1||^2 >= 0
        if np.sum(gain) < 0:  # negation is exact: -(H m) == H (-m)
            m_vec, gain = -m_vec, -gain
        a = tgt / np.maximum(gain, GAIN_EPS)  # masked below where gain <= eps
        keep = (gain > GAIN_EPS) & (a * a <= power_cap)
        if keep.all():
            return AirPlan(m_vec, a, ids.tolist())
        ids, shares = ids[keep], shares[keep]
    raise SchemeError("no clients satisfy the aggregation constraints")


def _hartley(x: np.ndarray) -> np.ndarray:
    """Real Hartley transform: its kernel cas = cos + sin is Re - Im of the DFT's."""
    f = np.fft.fft(x)
    return f.real - f.imag


@dataclass(frozen=True, eq=False)
class HartleyProjection:
    """Structurally random projection A = S H D (Do, Gan, Nguyen & Tran,
    arXiv 1106.5037): D flips the signs of the d columns, H is the real
    Hartley transform and S keeps m distinct rows. A product costs one FFT,
    and so does the whole Gram matrix of S H (see `gram_column`).
    Not scaled by 1/sqrt(m): cas entries have unit mean square, as N(0, 1)
    entries do, so column norms stay about sqrt(m)."""

    signs: np.ndarray  # (d,) the diagonal of D, each +1 or -1
    rows: np.ndarray  # (m,) the distinct rows of H that S keeps

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

    @cached_property  # from rows, on first use: a dataclasses.replace copy makes its own
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Re and Im of F = fft(u), u the rows' indicator, each laid out twice
        so that every circular shift of them is a slice."""
        u = np.zeros(self.signs.size)
        u[self.rows] = 1.0
        f = np.fft.fft(u)
        return np.tile(f.real, 2), np.tile(f.imag, 2)

    def gram_column(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Column j of the Gram matrix of B = S H, written into `out` when
        given; A's column A^T a_j is s_j s times it, as A = B D. cas(a) cas(b)
        = cos(a - b) + sin(a + b), so summed over the rows, entry i is Re F[(i
        - j) mod d] - Im F[(i + j) mod d]: one subtraction of two slices."""
        d = self.signs.size
        re, im = self._spectrum
        return np.subtract(re[d - j : 2 * d - j], im[j : j + d], out=out)

    def column_norms(self) -> np.ndarray:
        """Exact norms: G's diagonal is ||a_j||^2 = m - Im F[2j mod d]. A
        nonzero term is at least 2 sin^2(pi/4d); a sum below half that is
        rounding on zeros of cas."""
        m, d = self.shape
        sq = m - self._spectrum[1][2 * np.arange(d) % d]
        sq[sq < math.sin(math.pi / (4 * d)) ** 2] = 0.0
        return np.sqrt(sq)


def measurement_matrix(d: int, m_cs: int, seed: int) -> HartleyProjection:
    """Shared projection A = S H D, identical at all clients; drawn per round."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    signs = 1.0 - 2.0 * rng.integers(0, 2, d)
    return HartleyProjection(signs, rng.choice(d, size=m_cs, replace=False))


def omp_recover(
    A: np.ndarray | HartleyProjection, y: np.ndarray, sparsity: int
) -> np.ndarray:
    """Orthogonal matching pursuit: greedy support growth, stopping at the
    sparsity budget or when the residual drops below OMP_TOL.

    Runs in the Gram domain, as Batch-OMP does (Rubinstein, Zibulevsky &
    Elad, Technion CS-2008-08): with q_i the orthonormalised chosen columns,
    it keeps the rows A^T q_i, the correlations c = A^T r and ||r||^2 =
    ||y||^2 - sum (q_i^T y)^2, and extends them by one Gram column A^T a_j
    per step; R x = Q^T y is solved once, at the end. So a call transforms y
    once, and a `HartleyProjection` its rows' indicator once, whatever the
    budget; the residual guard below adds at most one product A x. On A =
    B D the loop runs on B = S H, from c = s * A^T y = B^T y, and fit applies
    the signs s: products by +-1 are exact, so no pick or bit moves. The step
    loop writes into buffers allocated once per call: `gram_column` fills
    the new row of P in place. A pick leaves the search by one store, an
    infinite norm that scores it 0: it repeats only when no other column
    correlates with the residual (or c is NaN), and then stops the search.
    A step's scalars are Python floats, numpy's IEEE results at less cost.

    A difference of squared norms keeps rounding of a few eps of the larger
    term, so below GRAM_FLOOR = 64 eps of it (a norm below ~sqrt(eps) of
    its scale) it is noise. Hence two guards: when ||r||^2 falls to
    GRAM_FLOOR ||y||^2, the OMP_TOL stop reads y - A x, formed once; and a
    column whose part orthogonal to the q_i has squared norm <= GRAM_FLOOR
    ||a_j||^2 lies in their span, where the fit cannot improve, so the search
    stops there (a zero column always does).
    """
    m, d = A.shape
    y = np.asarray(y, dtype=np.float64)
    if isinstance(A, np.ndarray):
        gram_column, c = lambda j, out: np.matmul(A.T, A[:, j], out=out), A.T @ y
        norms = np.linalg.norm(A, axis=0)
    else:  # B = S H: s * A^T y = B^T y
        gram_column, c, norms = A.gram_column, A.signs * A.rmatvec(y), A.column_norms()
    sq_norms = (norms**2).tolist()  # Python floats: a step's scalars stay off numpy
    norms[norms == 0] = 1.0
    budget = min(sparsity, m, d)
    P = np.empty((budget, d))  # row i: A^T q_i
    R = np.zeros((budget, budget))
    beta = np.empty(budget)  # entry i: q_i^T y
    support = np.empty(budget, dtype=np.intp)  # entries [:k]: the picks so far
    scores, step = np.empty(d), np.empty(d)

    def fit(s: int) -> np.ndarray:
        x = np.zeros(d)
        x[support[:s]] = np.linalg.solve(R[:s, :s], beta[:s])
        if not isinstance(A, np.ndarray):  # B's coefficients times D's signs
            x[support[:s]] *= A.signs[support[:s]]
        return x

    res_sq = float(y @ y)
    floor = GRAM_FLOOR * res_sq
    k = 0
    while k < budget:
        if res_sq <= floor:
            residual = y - A @ fit(k)
            res_sq, floor = float(residual @ residual), -1.0
        if res_sq < OMP_TOL**2:
            break
        np.abs(c, out=scores)
        scores /= norms
        j = int(scores.argmax())
        Pk = P[:k]
        r = Pk[:, j]  # a strided view: a contiguous copy rounds differently
        r_kk_sq = sq_norms[j] - float(r @ r)
        if r_kk_sq <= GRAM_FLOOR * sq_norms[j]:
            break
        r_kk = math.sqrt(r_kk_sq)
        row = gram_column(j, out=P[k])
        row -= np.dot(r, Pk, out=step)  # the gemv of r @ P[:k], called more cheaply
        row /= r_kk
        R[:k, k] = r
        R[k, k] = r_kk
        beta[k] = b = float(c[j]) / r_kk
        c -= np.multiply(row, b, out=step)
        res_sq -= b * b
        support[k], norms[j] = j, math.inf  # the pick scores 0 from now on
        k += 1
    return fit(k)


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
    on digital links and the gains m^T h_k sqrt(p_k) over the air. A digital
    payload occupies one channel use per transmitted entry. An analog round
    needs the channel, its plan and its entries in the order of
    `plan.transmitters`, a noisy one also the noise generator; a compressed
    one has measurements < d, as `parse_scenario` ensures."""
    if not entries:
        raise SchemeError("no payloads to transmit")
    sizes = [e.size for e in entries]
    exact = weighted_mean([e.raw for e in entries], sizes)
    rows = np.empty((len(entries), entries[0].payload.d))  # (K, d): one decode per row
    for e, row in zip(entries, rows):
        e.payload.decode(out=row)
    if scheme.analog and (ch is None or plan is None):
        raise ConfigurationError("analog schemes require a channel and a plan")
    if scheme.analog and ch.noise_std > 0 and rng is None:
        raise ConfigurationError("a noisy analog channel requires a noise rng")
    if scheme.analog and [e.client_id for e in entries] != plan.transmitters:
        # coefficients are taken by position: any other order mis-weights
        raise ConfigurationError("entries must follow plan.transmitters, in order")

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
