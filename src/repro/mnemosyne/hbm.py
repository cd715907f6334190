"""HBM channel modeling and tensor -> pseudo-channel bank assignment.

The sequel papers extend the mnemosyne PLM flow from a flat BRAM budget
to multi-channel HBM on data-center cards: Soldavini & Pilato 2021
("Compiler Infrastructure for Specializing Domain-Specific Memory
Templates") define the template machinery, and Soldavini et al. 2022
("Automatic Creation of High-Bandwidth Memory Architectures from
Domain-Specific Languages") assign each logical buffer to one or more of
the Alveo U280's 32 HBM2 pseudo-channels so every AXI port streams from
its own bank conflict-free.

This module is that assignment as an analytic model.  Each transfer-
footprint tensor becomes a :class:`TensorDemand` (sustained bandwidth +
resident bytes); :func:`assign_banks` maps every demand onto *exclusive*
pseudo-channels — one channel never serves two tensors, matching the
one-AXI-port-per-channel hardware — by first-fit decreasing over the
demands, striping a tensor across several channels when one channel's
bandwidth or capacity cannot carry it.  An infeasible demand set raises
:class:`HbmSpillError` naming the offending tensor, so flow errors say
*what* to shrink, not just that the board is full.

Demoted intermediates never reach this module: fusion removes
``ACCELERATOR_ONLY`` arrays from the transfer footprint (they live in
on-device PLMs), so only tensors that actually cross the HBM boundary
consume channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import MemoryArchitectureError
from repro.utils import ascii_table, ceil_div


class HbmSpillError(MemoryArchitectureError):
    """A tensor's demand does not fit the remaining pseudo-channels."""


#: directions a transfer-footprint tensor moves across the HBM boundary
DIRECTION_IN = "in"          # host -> PLM, once per element
DIRECTION_OUT = "out"        # PLM -> host, once per element
DIRECTION_STATIC = "static"  # one-time operand transfer (e.g. S)


@dataclass(frozen=True)
class TensorDemand:
    """One transfer-footprint tensor's claim on the memory system.

    ``bytes_per_sec`` is the sustained streaming bandwidth the system's
    element rate implies (0 for static operands: a one-time transfer has
    no steady-state demand); ``resident_bytes`` is the footprint the
    tensor's whole dataset occupies in HBM (all Ne elements for streamed
    tensors, the operand itself for static ones).
    """

    name: str
    direction: str
    bytes_per_element: int
    bytes_per_sec: float
    resident_bytes: int

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_IN, DIRECTION_OUT, DIRECTION_STATIC):
            raise MemoryArchitectureError(
                f"tensor {self.name!r}: unknown transfer direction "
                f"{self.direction!r}"
            )

    @property
    def streamed(self) -> bool:
        return self.direction in (DIRECTION_IN, DIRECTION_OUT)


@dataclass(frozen=True)
class ChannelAssignment:
    """One tensor mapped onto its (exclusive) pseudo-channels."""

    tensor: str
    direction: str
    channels: Tuple[int, ...]
    bytes_per_element: int
    bytes_per_sec: float
    resident_bytes: int

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def streamed(self) -> bool:
        return self.direction in (DIRECTION_IN, DIRECTION_OUT)

    def utilization(self, channel_bytes_per_sec: float) -> float:
        """Bandwidth utilization of each assigned channel (demand is
        striped evenly, so all of a tensor's channels load equally)."""
        if not self.channels or channel_bytes_per_sec <= 0:
            return 0.0
        return self.bytes_per_sec / self.n_channels / channel_bytes_per_sec


@dataclass
class BankingReport:
    """The ``bank-assign`` stage's product: who streams from where.

    ``assignments`` hold one entry per transfer-footprint tensor;
    channels are exclusive (validated), so per-channel utilization is the
    owning tensor's striped share.  The report is what the simulate
    stage consults for HBM transfer timing and what
    :class:`~repro.flow.session.FlowResult` surfaces to users.
    """

    board: str
    n_channels: int
    channel_bytes_per_sec: float
    channel_bytes: int
    assignments: Tuple[ChannelAssignment, ...] = ()
    #: modeled element rate the accelerators demand (what bandwidth was
    #: provisioned against), elements/sec
    demanded_elements_per_sec: float = 0.0

    def __post_init__(self) -> None:
        owners: Dict[int, str] = {}
        for a in self.assignments:
            for ch in a.channels:
                if ch in owners:
                    raise MemoryArchitectureError(
                        f"channel {ch} assigned to both {owners[ch]!r} "
                        f"and {a.tensor!r}"
                    )
                if not 0 <= ch < self.n_channels:
                    raise MemoryArchitectureError(
                        f"tensor {a.tensor!r} assigned out-of-range "
                        f"channel {ch} (board has {self.n_channels})"
                    )
                owners[ch] = a.tensor

    # -- aggregate views -----------------------------------------------------
    @property
    def channels_used(self) -> int:
        return sum(a.n_channels for a in self.assignments)

    def assignment_of(self, tensor: str) -> ChannelAssignment:
        for a in self.assignments:
            if a.tensor == tensor:
                return a
        raise MemoryArchitectureError(
            f"tensor {tensor!r} has no channel assignment (assigned: "
            f"{', '.join(a.tensor for a in self.assignments) or 'none'})"
        )

    def channel_utilization(self) -> Dict[int, float]:
        """Per-channel bandwidth utilization (only channels in use)."""
        out: Dict[int, float] = {}
        for a in self.assignments:
            util = a.utilization(self.channel_bytes_per_sec)
            for ch in a.channels:
                out[ch] = util
        return out

    def achievable_elements_per_sec(self) -> float:
        """Streaming rate the assigned channels sustain: the slowest
        streamed tensor's (aggregate channel bandwidth / bytes per
        element) bounds the pipeline."""
        rates = [
            a.n_channels * self.channel_bytes_per_sec / a.bytes_per_element
            for a in self.assignments
            if a.streamed and a.bytes_per_element > 0
        ]
        return min(rates) if rates else float("inf")

    def phase_seconds(self, direction: str, n_elements: int) -> float:
        """Wall-clock of one transfer phase moving ``n_elements``.

        Channels drain/fill concurrently (each has its own AXI port), so
        a phase lasts as long as its slowest tensor.  For
        ``DIRECTION_STATIC`` the resident bytes move once and
        ``n_elements`` is ignored.
        """
        seconds = 0.0
        for a in self.assignments:
            if a.direction != direction:
                continue
            bw = a.n_channels * self.channel_bytes_per_sec
            if bw <= 0:
                continue
            n_bytes = (
                a.resident_bytes
                if direction == DIRECTION_STATIC
                else n_elements * a.bytes_per_element
            )
            seconds = max(seconds, n_bytes / bw)
        return seconds

    def phase_cycles(self, direction: str, n_elements: int, clock_hz: float) -> int:
        """The same phase in integer fabric cycles at ``clock_hz``."""
        seconds = self.phase_seconds(direction, n_elements)
        if seconds <= 0.0:
            return 0
        return max(1, math.ceil(seconds * clock_hz))

    def summary(self) -> str:
        rows = []
        for a in self.assignments:
            util = a.utilization(self.channel_bytes_per_sec)
            rows.append(
                (
                    a.tensor,
                    a.direction,
                    a.n_channels,
                    ",".join(str(c) for c in a.channels),
                    f"{a.bytes_per_sec / 1e9:.3f}",
                    f"{util * 100:.1f}%",
                )
            )
        head = (
            f"HBM banking on {self.board}: {self.channels_used}/"
            f"{self.n_channels} channels, "
            f"{self.achievable_elements_per_sec():,.0f} elements/s achievable "
            f"({self.demanded_elements_per_sec:,.0f} demanded)"
        )
        return head + "\n" + ascii_table(
            ["tensor", "dir", "ch", "channels", "GB/s", "util/ch"], rows
        )


def channels_needed(demand: TensorDemand, channel_bytes_per_sec: float,
                    channel_bytes: int) -> int:
    """Channels one tensor needs so no channel exceeds its bandwidth or
    capacity (the striping width)."""
    n = 1
    if demand.bytes_per_sec > 0 and channel_bytes_per_sec > 0:
        n = max(n, math.ceil(demand.bytes_per_sec / channel_bytes_per_sec))
    if demand.resident_bytes > 0 and channel_bytes > 0:
        n = max(n, ceil_div(demand.resident_bytes, channel_bytes))
    return n


def assign_banks(
    demands: Sequence[TensorDemand],
    *,
    board: str,
    n_channels: int,
    channel_bytes_per_sec: float,
    channel_bytes: int,
    demanded_elements_per_sec: float = 0.0,
) -> BankingReport:
    """Map every demand onto exclusive pseudo-channels (greedy FFD).

    Demands are sorted by bandwidth, then residency, decreasing — the
    classic first-fit-decreasing order, which here degenerates to an
    optimal packing because channels are exclusive: each tensor takes
    exactly ``channels_needed`` whole channels, so only the *sum* of
    widths can spill.  The FFD order still matters for the diagnostic:
    the big demands grab channels first, and the spill names the tensor
    whose marginal demand broke the budget together with what it needed
    and what was left.
    """
    seen: Dict[str, str] = {}
    for d in demands:
        if d.name in seen:
            raise MemoryArchitectureError(
                f"tensor {d.name!r} appears twice in the demand set"
            )
        seen[d.name] = d.direction
    ordered = sorted(
        demands, key=lambda d: (-d.bytes_per_sec, -d.resident_bytes, d.name)
    )
    assignments: List[ChannelAssignment] = []
    next_free = 0
    for demand in ordered:
        width = channels_needed(demand, channel_bytes_per_sec, channel_bytes)
        if next_free + width > n_channels:
            need_gbps = demand.bytes_per_sec / 1e9
            raise HbmSpillError(
                f"tensor {demand.name!r} spills the HBM banks on {board}: "
                f"it needs {width} pseudo-channel(s) "
                f"({need_gbps:.2f} GB/s sustained, "
                f"{demand.resident_bytes:,} bytes resident) but only "
                f"{n_channels - next_free} of {n_channels} remain; reduce "
                f"k (lower the element rate), shrink the element count, or "
                f"demote the tensor from the transfer footprint (fusion)"
            )
        assignments.append(
            ChannelAssignment(
                tensor=demand.name,
                direction=demand.direction,
                channels=tuple(range(next_free, next_free + width)),
                bytes_per_element=demand.bytes_per_element,
                bytes_per_sec=demand.bytes_per_sec,
                resident_bytes=demand.resident_bytes,
            )
        )
        next_free += width
    return BankingReport(
        board=board,
        n_channels=n_channels,
        channel_bytes_per_sec=channel_bytes_per_sec,
        channel_bytes=channel_bytes,
        assignments=tuple(assignments),
        demanded_elements_per_sec=demanded_elements_per_sec,
    )


def demands_from_footprint(
    footprint,
    decls,
    *,
    elements_per_sec: float,
    n_elements: int,
) -> List[TensorDemand]:
    """Build the demand set for one kernel's transfer footprint.

    ``footprint`` is a :class:`~repro.system.integration.
    TransferFootprint`; ``decls`` the TeIL declarations supplying
    per-tensor sizes and kinds.  Streamed tensors demand ``element rate x
    bytes/element`` sustained and hold all ``n_elements`` in HBM; static
    operands demand no steady-state bandwidth (moved once) and hold one
    copy.  Arrays fusion demoted to ``ACCELERATOR_ONLY`` are absent from
    the footprint, so they produce no demand — on-device intermediates
    never consume channels.
    """
    from repro.teil.types import TensorKind

    out: List[TensorDemand] = []
    for name in footprint.streamed:
        decl = decls[name]
        direction = (
            DIRECTION_IN if decl.kind is TensorKind.INPUT else DIRECTION_OUT
        )
        out.append(
            TensorDemand(
                name=name,
                direction=direction,
                bytes_per_element=decl.n_bytes,
                bytes_per_sec=elements_per_sec * decl.n_bytes,
                resident_bytes=n_elements * decl.n_bytes,
            )
        )
    for name in footprint.static:
        decl = decls[name]
        out.append(
            TensorDemand(
                name=name,
                direction=DIRECTION_STATIC,
                bytes_per_element=decl.n_bytes,
                bytes_per_sec=0.0,
                resident_bytes=decl.n_bytes,
            )
        )
    return out
