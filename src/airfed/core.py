"""Federated round orchestration: local updates, uploads, weighted global
aggregation, and broadcast, with participation, upload-period, and straggler
deadline handling.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch_mod
from . import compression as comp_mod
from . import models
from .budget import BudgetLedger
from .errors import ConfigurationError, ProtocolError, SchemeError

SELECT_RANDOM = "random"
SELECT_CHANNEL = "channel"
SELECTIONS = (SELECT_RANDOM, SELECT_CHANNEL)


@dataclass
class ClientState:
    dataset: models.Dataset
    local_params: np.ndarray
    encoder: comp_mod.EncoderState
    rng: np.random.Generator | None  # mini-batch order of local SGD; a full batch has none


@dataclass
class ServerState:
    params: np.ndarray
    round_index: int = 0


@dataclass
class RoundConfig:
    period: int = 1
    deadline: float | None = None
    participation: float = 1.0
    selection: str = SELECT_RANDOM
    scheme: ch_mod.TransportScheme = field(default_factory=ch_mod.TransportScheme)
    codec: comp_mod.CodecSpec = field(default_factory=comp_mod.CodecSpec)
    n_antennas: int = 1
    noise_std: float = 0.0
    power_cap: float = 1.0
    delay_mean: float = 0.0
    delay_jitter: float = 0.0

    def __post_init__(self):
        if self.period < 1:
            raise ConfigurationError("aggregation period must be >= 1")
        if not (0 < self.participation <= 1):
            raise ConfigurationError("participation must be in (0, 1]")
        if self.selection not in SELECTIONS:
            raise ConfigurationError(f"unknown selection mode {self.selection!r}")
        if self.n_antennas < 1:
            raise ConfigurationError("n_antennas must be >= 1")
        if not (0 < self.power_cap < math.inf):
            raise ConfigurationError("power_cap must be finite and > 0")
        for name in ("noise_std", "delay_mean", "delay_jitter"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.deadline is not None and not (0 <= self.deadline < math.inf):
            raise ConfigurationError("deadline must be None or finite and >= 0")


@dataclass
class RoundRecord:
    """Outcome of one round; a round without an uplink keeps the zero
    defaults. `run_round` leaves `global_loss` at nan: `run_training`
    evaluates it for a block of rounds at once and fills it in place."""

    round_index: int
    scheme: str  # transport the uplink used; the configured one if nothing was sent
    global_loss: float = math.nan
    aggregation_error: float = 0.0
    participants: list[int] = field(default_factory=list)
    uplink_uses: int = 0
    uplink_bits: int = 0
    downlink_bits: int = 0
    events: list[tuple[str, str]] = field(default_factory=list)  # (kind, detail)


def select_participants(
    n_clients: int,
    fraction: float,
    rng_factory: Callable[[], np.random.Generator] | None,
    channel: ch_mod.ChannelRealization | None = None,
    mode: str = SELECT_RANDOM,
) -> list[int]:
    """Choose `compression.kept_count(fraction, K)` of the clients 0..K-1 in
    ascending order, fraction in (0, 1] as `RoundConfig` ensures; channel-aware
    mode ranks client k by the norm of row k of the channel, descending, ties
    to the lower id. Random mode builds its generator from `rng_factory` only
    when it leaves a client out, so full participation may pass None."""
    if mode == SELECT_CHANNEL:
        if channel is None:
            raise ConfigurationError("channel-aware selection needs a realization")
        norms = np.linalg.norm(channel.gains[:n_clients], axis=1)
        return comp_mod.topk_indices(norms, fraction).tolist()
    k = comp_mod.kept_count(fraction, n_clients)
    if k >= n_clients:
        return list(range(n_clients))
    chosen = rng_factory().choice(n_clients, size=k, replace=False)
    return sorted(int(c) for c in chosen)


def deadline_survivors(
    participants: list[int], cfg: RoundConfig, rng: np.random.Generator
) -> list[int]:
    """Participants whose delay meets `cfg.deadline`, in list order. The
    delay is mean + jitter * u with u uniform in [-1, 1], floored at 0;
    one u per participant, drawn in list order. The deadline is >= 0, so
    the floor never changes who meets it and is not taken."""
    u = rng.uniform(-1.0, 1.0, size=len(participants))
    delays = cfg.delay_mean + cfg.delay_jitter * u
    return [cid for cid, v in zip(participants, delays) if v <= cfg.deadline]


@dataclass
class RngStreams:
    """All randomness in a run flows through named substreams of one seed."""

    seed: int

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        )

    def client(self, cid: int) -> np.random.Generator:
        return self._rng(1, cid)

    def participation(self, t: int) -> np.random.Generator:
        return self._rng(2, t)

    def delays(self, t: int) -> np.random.Generator:
        return self._rng(3, t)

    def noise(self, t: int) -> np.random.Generator:
        return self._rng(4, t)

    def init(self) -> np.random.Generator:
        return self._rng(6)

    def channel_seed(self, t: int) -> int:
        return int(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(5, t)).generate_state(1)[0]
        )


def format_ids(client_ids) -> str:
    """Client ids in ascending order, `;`-separated: the form of the id
    lists in rounds.csv and events.csv."""
    return ";".join(str(cid) for cid in sorted(client_ids))


# a run has diverged when a round's global loss exceeds DIVERGENCE_FACTOR times
# L_0, the loss at the server's starting parameters: on the golden cases and
# the benchmark's workloads max_t L_t / L_0 stays at or below 1.0, so 2 leaves
# them a 2x margin
DIVERGENCE_FACTOR = 2.0


def _diverged(rec: RoundRecord, start_loss: float = math.nan) -> ProtocolError:
    why = "non-finite server parameters or global loss"
    if math.isfinite(rec.global_loss):
        why = (
            f"global loss {rec.global_loss:.6g} exceeds {DIVERGENCE_FACTOR:g} times "
            f"the starting loss {start_loss:.6g}"
        )
    return ProtocolError(f"training diverged in round {rec.round_index}: {why}")


def _finish(rec: RoundRecord, server: ServerState) -> RoundRecord:
    """Close the round: advance the server clock. Non-finite parameters
    mean training diverged: stop the run."""
    server.round_index = rec.round_index
    if not np.all(np.isfinite(server.params)):
        raise _diverged(rec)
    return rec


def _train(chosen: list[ClientState], spec: models.ModelSpec, cfg: models.TrainConfig) -> None:
    """Local SGD of the chosen clients in one `models.local_updates` call."""
    data, rngs = [c.dataset for c in chosen], [c.rng for c in chosen]
    trained = models.local_updates(spec, [c.local_params for c in chosen], data, cfg, rngs)
    for c, w in zip(chosen, trained):
        c.local_params = w


def run_round(
    server: ServerState,
    clients: list[ClientState],
    model_spec: models.ModelSpec,
    train_cfg: models.TrainConfig,
    cfg: RoundConfig,
    streams: RngStreams,
) -> RoundRecord:
    """Execute one federated round; mutates server and client state.

    The round schedules, computes, then transmits: the deadline and the
    over-the-air plan come first, and a client the plan excludes neither
    trains nor encodes. `cfg` holds the round's channel and delay settings,
    and each client its own stream. Client k is `clients[k]` and row k of
    the round's channel. After an uplink every client shares the server's
    new parameters, which are read-only. The round does not evaluate the
    global loss: a caller other than `run_training` gets `global_loss = nan`
    and evaluates `models.global_loss` over the clients' data itself."""
    t = server.round_index + 1
    rec = RoundRecord(round_index=t, scheme=cfg.scheme.kind)

    if t % cfg.period != 0:
        _train(clients, model_spec, train_cfg)  # off-schedule: local progress only
        return _finish(rec, server)

    realization = None
    if cfg.scheme.analog or cfg.selection == SELECT_CHANNEL:
        realization = ch_mod.sample_channel(
            len(clients), cfg.n_antennas, cfg.noise_std, streams.channel_seed(t)
        )

    participants = select_participants(
        len(clients),
        cfg.participation,
        lambda: streams.participation(t),
        channel=realization,
        mode=cfg.selection,
    )

    # schedule: the deadline and the over-the-air plan read only the delay
    # stream, the channel, the data sizes and the cap, never a trained model
    survivors = participants
    if cfg.deadline is not None:
        survivors = deadline_survivors(participants, cfg, streams.delays(t))
        if survivors and len(survivors) < len(participants):
            missed = set(participants) - set(survivors)
            rec.events.append(("deadline-miss", format_ids(missed)))

    scheme = cfg.scheme
    plan = None
    transmitters = survivors
    if scheme.analog and survivors:
        targets = {cid: clients[cid].dataset.size for cid in survivors}  # the solver normalises
        try:
            plan = ch_mod.solve_aggregation_weights(realization, targets, cfg.power_cap)
        except SchemeError:
            rec.events.append((
                "scheme-error",
                "aggregation constraints unsatisfiable, falling back to ideal-digital",
            ))
            scheme = ch_mod.TransportScheme(ch_mod.IDEAL_DIGITAL)
        else:
            transmitters = plan.transmitters
    sending = set(transmitters)
    excluded = set(survivors) - sending
    if excluded:
        rec.events.append(("excluded", format_ids(excluded)))

    # compute: every participant the plan keeps trains, in one call, and
    # encodes; stragglers do too, and miss the deadline only afterwards.
    # Both lists ascend, so the entries follow the plan's order.
    kept = [cid for cid in participants if cid not in excluded]
    _train([clients[cid] for cid in kept], model_spec, train_cfg)
    entries = []
    for cid in kept:
        c = clients[cid]
        # the upload is the pseudo-gradient (w_server - w_k)/mu: uncompressed,
        # the server's step by -mu times its mean is FedAvg's weight average
        if train_cfg.step_size > 0:
            raw = (server.params - c.local_params) / train_cfg.step_size
        else:
            raw = np.zeros_like(server.params)
        payload = comp_mod.encode(raw, cfg.codec, c.encoder, epoch=t - 1)
        if cid in sending:
            entries.append(ch_mod.TransmitEntry(cid, payload, raw, c.dataset.size))
    if not survivors:
        rec.events.append(("protocol-error", "all clients missed the deadline"))
        return _finish(rec, server)

    noisy = scheme.analog and cfg.noise_std > 0
    result = ch_mod.transmit_round(
        entries, scheme, realization, plan, streams.noise(t) if noisy else None
    )

    server.params = server.params - train_cfg.step_size * result.aggregated

    # broadcast: every client restarts from the new global parameters; local
    # SGD never writes its start, so one read-only array serves them all
    server.params.flags.writeable = False
    for c in clients:
        c.local_params = server.params

    rec.scheme = scheme.kind
    rec.aggregation_error = result.aggregation_error
    rec.participants = transmitters
    rec.uplink_uses = result.channel_uses
    rec.uplink_bits = result.bits_equivalent
    rec.downlink_bits = server.params.size * comp_mod.FLOAT_BITS
    return _finish(rec, server)


# bytes of the (population size × block) temporaries of one global-loss block
LOSS_BLOCK_BYTES = 256 * 1024


def run_training(scenario) -> tuple[list[RoundRecord], BudgetLedger]:
    """Run a full scenario: build data, clients, and server, then execute
    `scenario.rounds` federated rounds. Deterministic per seed.

    The global loss of the finished rounds is evaluated in blocks: one
    `models.global_loss` call per block reads the population once and fills
    the block's records. A block holds as many rounds as fit
    LOSS_BLOCK_BYTES of (population size × block) temporaries. A round
    whose parameters may overflow the loss (they fail the
    `models.finite_loss_radius` test) is evaluated at once, with the block
    before it. Each filled block is checked in round order: the first round
    whose loss is non-finite or exceeds DIVERGENCE_FACTOR times L_0 stops
    the run, which keeps the rounds before it. L_0, the loss at the server's
    starting parameters, is evaluated once, in set-up."""
    streams = RngStreams(scenario.seed)
    population = models.make_synthetic(scenario.partition, scenario.seed)
    datasets = population.split(scenario.partition.sizes)
    spec = scenario.model_spec
    # the server broadcasts its starting parameters: every client shares them
    server = ServerState(models.initial_params(spec, streams.init()))
    server.params.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        start_loss = models.global_loss(spec, server.params, population)
    # a full batch draws no order in either form of local SGD, so its clients
    # get no stream; streams before arrays: building each one between its
    # client's arrays raised the benchmark's peak RSS on ota-crowd (64
    # clients) by 3.5 MB
    mini_batch = scenario.train_cfg.batch_size != "full"
    rngs = [streams.client(k) if mini_batch else None for k in range(len(datasets))]
    clients = [
        ClientState(ds, server.params, comp_mod.EncoderState.zeros(spec.dim), rng)
        for ds, rng in zip(datasets, rngs)
    ]

    radius = models.finite_loss_radius(spec, population)
    width = spec.hidden if spec.kind == models.MLP else 1
    block = max(1, LOSS_BLOCK_BYTES // (8 * population.size * width))
    records: list[RoundRecord] = []
    pending: list[tuple[RoundRecord, np.ndarray]] = []  # rounds whose loss waits

    def flush() -> None:
        """Fill the pending rounds' losses; stop at the first that diverged."""
        if not pending:
            return
        block_records = [rec for rec, _ in pending]
        _fill_losses(spec, population, pending)
        for rec in block_records:
            loss = rec.global_loss
            if not (math.isfinite(loss) and loss <= DIVERGENCE_FACTOR * start_loss):
                del records[rec.round_index - 1 :]  # round t is records[t - 1]
                raise _diverged(rec, start_loss)

    try:
        for _ in range(scenario.rounds):
            before = server.params
            rec = run_round(
                server, clients, spec, scenario.train_cfg, scenario.round_cfg, streams
            )
            records.append(rec)
            if server.params is before and len(records) > 1 and not pending:
                # the round before holds this array, and its loss is known
                rec.global_loss = records[-2].global_loss
            else:
                pending.append((rec, server.params))
            with np.errstate(over="ignore"):  # past about 1e154 the norm is inf
                far = not np.linalg.norm(server.params) < radius
            if len(pending) == block or far:
                flush()
        flush()
    except ProtocolError as exc:
        # the finished rounds, with their losses, are the evidence of a failed
        # run; a pending round before the one that failed may have diverged
        try:
            flush()
        except ProtocolError as earlier:
            exc = earlier
        exc.records = records
        raise exc
    return records, ledger_of(records)


def _fill_losses(
    spec: models.ModelSpec,
    population: models.Dataset,
    pending: list[tuple[RoundRecord, np.ndarray]],
) -> None:
    """Set the global loss of the pending (record, parameters) rounds from
    one `global_loss` call, then empty the list. Rounds that hold one array
    share its row of the block, so their losses are equal."""
    arrays = {id(w): w for _, w in pending}
    # an overflow shows as a non-finite loss, which stops the run
    with np.errstate(over="ignore", invalid="ignore"):
        losses = models.global_loss(spec, np.stack(list(arrays.values())), population)
    row = dict(zip(arrays, losses.tolist()))
    for rec, w in pending:
        rec.global_loss = row[id(w)]
    pending.clear()


def ledger_of(records: list[RoundRecord]) -> BudgetLedger:
    """The communication ledger of finished rounds, one entry per round."""
    ledger = BudgetLedger()
    for r in records:
        ledger.record(r.round_index, r.scheme, r.uplink_uses, r.uplink_bits, r.downlink_bits)
    return ledger
