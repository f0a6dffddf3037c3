"""Closed-form latency model and event timeline simulator.

A session of T rounds alternates forward intervals of delta ms (encoding,
then min(delta, min_forward) ms on the air) and feedback packets of
delta_tilde ms. Synchronous coding serializes them: encode(t+1) waits for
feedback(t), so the total is T*delta + (T-1)*delta_tilde. Pipelined
(asynchronous) coding lets encode(t) begin when feedback(t-2) lands, squeezing
each forward burst into the gap delta_prime = max((delta - delta_tilde)/2,
min_forward) between consecutive feedback packets; the total becomes
delta + (T-1)*delta_tilde + T*delta_prime. Only the event times, not the
totals, depend on how delta splits into encoding and air time.

The simulator builds the granted slot schedule for the chosen mode and runs
encode jobs against it; a pipelined encode always waits for the feedback two
rounds back, the lag its slot grid and the closed form assume. With zero jitter
every job meets its slot and the emergent total equals the closed form; with
jitter, a round whose encoding finishes after its slot start emits one
SlotSkipped event and the remaining schedule shifts to the next feasible slot
boundary (the empty-slot safeguard of a deadline-driven radio).

`TimelineEvent` and `SweepRow` are the records of `timeline.csv` and
`latency_sweep.csv`: their fields are the files' columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InputDomainError
from .keys import bounded, check_bounds

EVENT_KINDS = (
    "EncodeStart",
    "EncodeEnd",
    "TxStart",
    "TxEnd",
    "FbStart",
    "FbEnd",
    "SlotSkipped",
)


@dataclass
class TimingParams:
    """A session's timing in ms, stated by its forward and feedback intervals.

    A forward interval of delta ms encodes for tau_enc, then is on the air for
    tau_tx = min(delta, min_forward): a burst takes the minimum air time.
    """

    delta: float = bounded(0, default=10.0)
    delta_tilde: float = bounded(0, default=4.0)
    rounds: int = bounded(1, default=9)
    min_forward: float = bounded(0, default=1.0)

    __post_init__ = check_bounds

    @property
    def tau_tx(self) -> float:
        return min(self.delta, self.min_forward)

    @property
    def tau_enc(self) -> float:
        return self.delta - self.tau_tx


def sync_latency(p: TimingParams) -> float:
    """Total for lock-step coding: forward intervals plus interleaved feedback."""
    return p.rounds * p.delta + (p.rounds - 1) * p.delta_tilde


def async_delta_prime(p: TimingParams) -> float:
    """Steady-state gap between consecutive feedback packets.

    The encode-plus-transmit span of a round must fit between the end of
    feedback t-2 and the start of feedback t (two gaps plus one feedback),
    and a forward burst needs at least min_forward on the air.
    """
    return max((p.delta - p.delta_tilde) / 2.0, p.min_forward)


def async_latency(p: TimingParams) -> float:
    """Total for pipelined coding; defined for 2 or more rounds."""
    if p.rounds < 2:
        raise InputDomainError("the pipelined closed form needs rounds >= 2")
    return p.delta + (p.rounds - 1) * p.delta_tilde + p.rounds * async_delta_prime(p)


def _nonzero_sync_latency(p: TimingParams) -> float:
    total = sync_latency(p)
    if total == 0:
        raise InputDomainError("the lock-step total is 0 ms: delta and delta_tilde are both 0")
    return total


def latency_reduction(p: TimingParams) -> float:
    """Fractional saving of pipelined over lock-step coding."""
    return 1.0 - async_latency(p) / _nonzero_sync_latency(p)


def sync_forward_share(p: TimingParams) -> float:
    """Fraction of the lock-step total spent in forward intervals."""
    return p.rounds * p.delta / _nonzero_sync_latency(p)


# ---------------------------------------------------------------------------
# Event timeline
# ---------------------------------------------------------------------------


@dataclass
class TimelineEvent:
    round: int
    kind: str
    time_ms: float


@dataclass
class Timeline:
    events: list[TimelineEvent]
    total_latency: float
    mode: str
    skipped_rounds: list[int]


def simulate_timeline(
    p: TimingParams,
    mode: str,
    inference_jitter: dict[int, float] | None = None,
) -> Timeline:
    """Play out one session against the granted slot schedule.

    inference_jitter maps a round to the ms it adds to that round's encoding
    time; rounds it omits add none. The timeline is deterministic. All events
    of a skipped round move together to the next feasible slot boundary and
    later rounds shift with them, so a single long stall produces exactly one
    SlotSkipped event.
    """
    if mode not in ("sync", "async"):
        raise ConfigError(f"mode must be 'sync' or 'async', got {mode!r}")
    if mode == "async" and p.rounds < 2:
        raise InputDomainError("the pipelined schedule needs rounds >= 2")
    jitter = inference_jitter or {}

    T = p.rounds
    delta, dtail = p.delta, p.delta_tilde
    if mode == "sync":
        period = delta + dtail
        nominal_tx_start = [t * period + p.tau_enc for t in range(T)]
    else:
        dprime = async_delta_prime(p)
        period = dprime + dtail
        nominal_tx_end = [delta] + [delta + (t + 1) * dprime + t * dtail for t in range(1, T)]
        nominal_tx_start = [e - p.tau_tx for e in nominal_tx_end]

    events: list[TimelineEvent] = []
    skipped: list[int] = []
    shift = 0.0
    fb_end: list[float] = []
    tx_end: list[float] = []

    for t in range(T):
        # Lock-step encoding waits for the last round's feedback; pipelined
        # encoding for feedback t-2, or for encode(0) in round 1.
        if t == 0:
            e_start = 0.0
        elif mode == "sync":
            e_start = fb_end[t - 1]
        elif t == 1:
            e_start = e_end
        else:
            e_start = fb_end[t - 2]
        e_end = e_start + p.tau_enc + jitter.get(t, 0.0)

        slot = nominal_tx_start[t] + shift
        if e_end > slot:
            events.append(TimelineEvent(t, "SlotSkipped", slot))
            skipped.append(t)
            periods = math.ceil((e_end - slot) / period)
            shift += periods * period
            slot += periods * period

        t_end = slot + p.tau_tx
        tx_end.append(t_end)
        events.append(TimelineEvent(t, "EncodeStart", e_start))
        events.append(TimelineEvent(t, "EncodeEnd", e_end))
        events.append(TimelineEvent(t, "TxStart", slot))
        events.append(TimelineEvent(t, "TxEnd", t_end))

        if t <= T - 2:
            fb_end.append(t_end + dtail)
            events.append(TimelineEvent(t, "FbStart", t_end))
            events.append(TimelineEvent(t, "FbEnd", t_end + dtail))

    order = {k: i for i, k in enumerate(EVENT_KINDS)}
    events.sort(key=lambda e: (e.time_ms, e.round, order[e.kind]))
    return Timeline(events, tx_end[-1], mode, skipped)


@dataclass
class SweepRow:
    delta_ms: float
    delta_tilde_ms: float
    mode: str
    delta_prime_ms: float
    total_ms: float


def latency_sweep(
    deltas, delta_tildes, rounds: int, min_forward: float = 1.0
) -> list[SweepRow]:
    """Closed-form totals over a (delta x delta_tilde) grid, both modes.

    The effective forward interval reported for the lock-step mode is delta
    itself (its encoder blocks for the whole forward span).
    """
    rows = []
    for d in deltas:
        for dt in delta_tildes:
            p = TimingParams(d, dt, rounds, min_forward)
            rows.append(SweepRow(d, dt, "sync", d, sync_latency(p)))
            rows.append(SweepRow(d, dt, "async", async_delta_prime(p), async_latency(p)))
    return rows
