"""Federated round orchestration: local updates, uploads, weighted global
aggregation, and broadcast, with participation, upload-period, and straggler
deadline handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch_mod
from . import compression as comp_mod
from . import models
from .budget import BudgetLedger
from .errors import ConfigurationError, ProtocolError, SchemeError

PAYLOAD_WEIGHTS = "weights"
PAYLOAD_GRADIENTS = "gradients"

SELECT_RANDOM = "random"
SELECT_CHANNEL = "channel"

DOWNLINK_BITS_PER_ENTRY = 64


@dataclass
class ClientState:
    id: int
    dataset: models.Dataset
    local_params: np.ndarray
    encoder: comp_mod.EncoderState
    delay_mean: float = 0.0
    delay_jitter: float = 0.0

    @property
    def size(self) -> int:
        return self.dataset.size


@dataclass
class ServerState:
    params: np.ndarray
    round_index: int = 0


@dataclass
class RoundConfig:
    payload_mode: str = PAYLOAD_WEIGHTS
    period: int = 1
    deadline: float | None = None
    participation: float = 1.0
    selection: str = SELECT_RANDOM
    scheme: ch_mod.TransportScheme = field(default_factory=ch_mod.TransportScheme)
    codec: comp_mod.CodecSpec = field(default_factory=comp_mod.CodecSpec)

    def __post_init__(self):
        if self.payload_mode not in (PAYLOAD_WEIGHTS, PAYLOAD_GRADIENTS):
            raise ConfigurationError(f"unknown payload mode {self.payload_mode!r}")
        if self.period < 1:
            raise ConfigurationError("aggregation period must be >= 1")
        if not (0 < self.participation <= 1):
            raise ConfigurationError("participation must be in (0, 1]")
        if self.selection not in (SELECT_RANDOM, SELECT_CHANNEL):
            raise ConfigurationError(f"unknown selection mode {self.selection!r}")
        if self.scheme.analog and self.payload_mode != PAYLOAD_GRADIENTS:
            raise ConfigurationError(
                "analog transport requires payload_mode = gradients"
            )


@dataclass
class RoundRecord:
    """Outcome of one round; a round without an uplink keeps the zero defaults."""

    round_index: int
    scheme: str  # transport the uplink used; the configured one if nothing was sent
    global_loss: float = math.nan
    aggregation_error: float = 0.0
    participants: list[int] = field(default_factory=list)
    uplink_uses: int = 0
    uplink_bits: int = 0
    downlink_bits: int = 0
    events: list[str] = field(default_factory=list)


def select_participants(
    client_ids: list[int],
    fraction: float,
    rng: np.random.Generator,
    channel: ch_mod.ChannelRealization | None = None,
    mode: str = SELECT_RANDOM,
) -> list[int]:
    """Choose max(1, ceil(fraction*K)) clients; channel-aware mode ranks by
    descending channel norm with ties to the lower id."""
    if not (0 < fraction <= 1):
        raise ConfigurationError("fraction must be in (0, 1]")
    k = max(1, math.ceil(fraction * len(client_ids)))
    if mode == SELECT_CHANNEL:
        if channel is None:
            raise ConfigurationError("channel-aware selection needs a realization")
        ranked = sorted(
            client_ids, key=lambda cid: (-float(np.linalg.norm(channel.gains[cid])), cid)
        )
        return sorted(ranked[:k])
    chosen = rng.choice(np.array(client_ids), size=k, replace=False)
    return sorted(int(c) for c in chosen)


def sample_delays(
    clients: list[ClientState], rng: np.random.Generator
) -> dict[int, float]:
    """delay = mean + jitter * u with u uniform in [-1, 1], floored at 0."""
    return {
        c.id: max(0.0, c.delay_mean + c.delay_jitter * float(rng.uniform(-1.0, 1.0)))
        for c in clients
    }


def apply_deadline(delays: dict[int, float], deadline: float | None) -> list[int]:
    if any(v < 0 for v in delays.values()):
        raise ConfigurationError("delays must be >= 0")
    if deadline is None:
        return sorted(delays)
    return sorted(cid for cid, v in delays.items() if v <= deadline)


@dataclass
class RngStreams:
    """All randomness in a run flows through named substreams of one seed."""

    seed: int

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        )

    def data(self) -> np.random.Generator:
        return self._rng(0)

    def client(self, cid: int) -> np.random.Generator:
        return self._rng(1, cid)

    def participation(self, t: int) -> np.random.Generator:
        return self._rng(2, t)

    def delays(self, t: int) -> np.random.Generator:
        return self._rng(3, t)

    def noise(self, t: int) -> np.random.Generator:
        return self._rng(4, t)

    def channel_seed(self, t: int) -> int:
        return int(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(5, t)).generate_state(1)[0]
        )


def _finish(
    rec: RoundRecord,
    server: ServerState,
    population: models.Dataset,
    model_spec: models.ModelSpec,
) -> RoundRecord:
    """Close the round: advance the server clock and evaluate the global loss
    once over the pooled population. A non-finite model or loss means
    training diverged: stop the run."""
    server.round_index = rec.round_index
    # an overflow here is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        rec.global_loss = models.global_loss(model_spec, server.params, [population])
    if not (np.all(np.isfinite(server.params)) and math.isfinite(rec.global_loss)):
        raise ProtocolError(
            f"training diverged in round {rec.round_index}: "
            "non-finite server parameters or global loss"
        )
    return rec


def run_round(
    server: ServerState,
    clients: list[ClientState],
    population: models.Dataset,
    model_spec: models.ModelSpec,
    train_cfg: models.TrainConfig,
    cfg: RoundConfig,
    streams: RngStreams,
    client_rngs: dict[int, np.random.Generator],
    n_antennas: int = 1,
    noise_std: float = 0.0,
    power_cap: float = 1.0,
) -> RoundRecord:
    """Execute one federated round; mutates server and client state.

    `population` is the union of the clients' data, over which the global
    loss is evaluated."""
    held = sum(c.size for c in clients)
    if population.size != held:
        raise ConfigurationError(
            f"population has {population.size} rows, clients hold {held}"
        )
    t = server.round_index + 1
    rec = RoundRecord(round_index=t, scheme=cfg.scheme.kind)

    if t % cfg.period != 0:
        # off-schedule round: local progress only, no uplink
        for c in clients:
            c.local_params = models.sgd_local_update(
                model_spec, c.local_params, c.dataset, train_cfg, client_rngs[c.id]
            )
        return _finish(rec, server, population, model_spec)

    need_channel = cfg.scheme.analog or cfg.selection == SELECT_CHANNEL
    realization = None
    if need_channel:
        realization = ch_mod.sample_channel(
            len(clients), n_antennas, noise_std, streams.channel_seed(t)
        )

    client_ids = [c.id for c in clients]
    participants = select_participants(
        client_ids,
        cfg.participation,
        streams.participation(t),
        channel=realization,
        mode=cfg.selection,
    )
    by_id = {c.id: c for c in clients}

    # local updates and payload encoding for the participating set
    payloads: dict[int, comp_mod.CompressedGradient] = {}
    raws: dict[int, np.ndarray] = {}
    for cid in participants:
        c = by_id[cid]
        w_new = models.sgd_local_update(
            model_spec, c.local_params, c.dataset, train_cfg, client_rngs[cid]
        )
        c.local_params = w_new
        if cfg.payload_mode == PAYLOAD_GRADIENTS:
            if train_cfg.step_size > 0:
                raw = (server.params - w_new) / train_cfg.step_size
            else:
                raw = np.zeros_like(w_new)
        else:
            raw = w_new
        raws[cid] = raw
        payloads[cid] = comp_mod.encode(raw, cfg.codec, c.encoder, epoch=t - 1)

    delays = sample_delays([by_id[cid] for cid in participants], streams.delays(t))
    survivors = apply_deadline(delays, cfg.deadline)
    if not survivors:
        rec.events.append("protocol-error: all clients missed the deadline")
        return _finish(rec, server, population, model_spec)

    scheme = cfg.scheme
    beamformer = None
    power = None
    transmitters = survivors
    if scheme.analog:
        total = sum(by_id[cid].size for cid in survivors)
        targets = {cid: by_id[cid].size / total for cid in survivors}
        try:
            beamformer, power, transmitters, _ = ch_mod.solve_aggregation_weights(
                realization, targets, power_cap
            )
        except SchemeError:
            rec.events.append(
                "scheme-error: aggregation constraints unsatisfiable, "
                "falling back to ideal-digital"
            )
            scheme = ch_mod.TransportScheme(ch_mod.IDEAL_DIGITAL)

    entries = [
        ch_mod.TransmitEntry(
            client_id=cid,
            dense=payloads[cid].decode(),
            raw=raws[cid],
            size=by_id[cid].size,
            n_symbols=int(payloads[cid].indices.size),
            payload_bits=payloads[cid].payload_bits,
            sparsity=int(np.count_nonzero(payloads[cid].values)),
        )
        for cid in transmitters
    ]
    result = ch_mod.transmit_round(
        entries, scheme, realization, power, beamformer, streams.noise(t)
    )

    if cfg.payload_mode == PAYLOAD_GRADIENTS:
        server.params = server.params - train_cfg.step_size * result.aggregated
    else:
        server.params = result.aggregated

    # broadcast: every client restarts from the new global parameters
    for c in clients:
        c.local_params = server.params.copy()

    rec.scheme = scheme.kind
    rec.aggregation_error = result.aggregation_error
    rec.participants = transmitters
    rec.uplink_uses = result.channel_uses
    rec.uplink_bits = result.bits_equivalent
    rec.downlink_bits = server.params.size * DOWNLINK_BITS_PER_ENTRY
    return _finish(rec, server, population, model_spec)


def run_training(scenario) -> tuple[list[RoundRecord], BudgetLedger]:
    """Run a full scenario: build data, clients, and server, then execute
    `scenario.rounds` federated rounds. Deterministic per seed."""
    streams = RngStreams(scenario.seed)
    population = models.make_synthetic(scenario.partition, scenario.seed)
    datasets = population.split(scenario.partition.sizes)
    d = scenario.model_spec.dim
    clients = [
        ClientState(
            id=k,
            dataset=ds,
            local_params=np.zeros(d),
            encoder=comp_mod.EncoderState.zeros(d),
            delay_mean=scenario.delay_mean,
            delay_jitter=scenario.delay_jitter,
        )
        for k, ds in enumerate(datasets)
    ]
    server = ServerState(params=np.zeros(d))
    client_rngs = {c.id: streams.client(c.id) for c in clients}

    records: list[RoundRecord] = []
    ledger = BudgetLedger()
    for _ in range(scenario.rounds):
        try:
            rec = run_round(
                server,
                clients,
                population,
                scenario.model_spec,
                scenario.train_cfg,
                scenario.round_cfg,
                streams,
                client_rngs,
                n_antennas=scenario.n_antennas,
                noise_std=scenario.noise_std,
                power_cap=scenario.power_cap,
            )
        except ProtocolError as exc:
            # the finished rounds are the evidence of a failed run
            exc.records, exc.ledger = records, ledger
            raise
        records.append(rec)
        ledger.record(
            rec.round_index,
            rec.scheme,
            rec.uplink_uses,
            rec.uplink_bits,
            rec.downlink_bits,
        )
    return records, ledger
