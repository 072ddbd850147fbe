"""UWB logical-channel inventory and the control/data split per regulatory domain.

A logical channel pairs one of 16 physical UWB channels with one of 8
preamble sequence codes; overlapping physical channels carrying different
codes do not interfere, so every (channel, code) pair is an independent
resource.  Worldwide regulation admits 32 logical channels in the US, 18
in Europe and 22 in Japan.

Control traffic is confined to the high-bandwidth physical channels 4, 7,
11 and 15 paired with sequence codes 7 and 8; everything else carries
data.  The built-in domain tables reproduce the regulatory cardinalities
exactly; channel membership outside the control set varies across
standards revisions, so a custom table can be supplied through the
scenario config and overrides the defaults.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import CapacityError, InvalidDomainTableError

US = "US"
EUROPE = "Europe"
JAPAN = "Japan"
DOMAIN_NAMES = (US, EUROPE, JAPAN)


class LogicalChannel(namedtuple("LogicalChannel", "phy_channel code")):
    """One (physical channel, sequence code) pair; a tuple that equals,
    hashes and sorts like the plain pair."""

    __slots__ = ()

    def __new__(cls, phy_channel: int, code: int) -> "LogicalChannel":
        if not 0 <= phy_channel <= 15:
            raise ValueError(f"phy_channel {phy_channel} outside 0..15")
        if not 1 <= code <= 8:
            raise ValueError(f"code {code} outside 1..8")
        return tuple.__new__(cls, (phy_channel, code))

    def token(self) -> str:
        """Compact text form used in CSV output, e.g. ``4:7``."""
        return f"{self.phy_channel}:{self.code}"


# Channels eligible to carry control traffic: wideband channels, codes 7 and 8.
CONTROL_CAPABLE = frozenset(
    LogicalChannel(phy, code) for phy in (4, 7, 11, 15) for code in (7, 8)
)


class RegulatoryDomain(namedtuple("RegulatoryDomain", "name total_channels")):
    """A named set (a frozenset) of admissible logical channels."""

    __slots__ = ()


class ChannelPlan(namedtuple("ChannelPlan", "control_set data_set")):
    """Disjoint control/data split of one domain's channels, as frozensets."""

    __slots__ = ()

    def ordered_control(self) -> tuple[LogicalChannel, ...]:
        return tuple(sorted(self.control_set))

    def ordered_data(self) -> tuple[LogicalChannel, ...]:
        return tuple(sorted(self.data_set))


def _table(phys_with_control_codes: dict[int, tuple[int, int]]) -> frozenset[LogicalChannel]:
    return frozenset(
        LogicalChannel(phy, code) for phy, codes in phys_with_control_codes.items() for code in codes
    )


# Two codes per admitted physical channel; control-capable channels carry
# codes 7 and 8 so the control intersection comes out right.
_US_TABLE = _table({phy: ((7, 8) if phy in (4, 7, 11, 15) else (1, 2)) for phy in range(16)})
_EUROPE_TABLE = _table({phy: ((7, 8) if phy in (4, 7) else (1, 2)) for phy in (1, 2, 3, 4, 5, 6, 7, 8, 9)})
_JAPAN_TABLE = _table({phy: ((7, 8) if phy == 4 else (1, 2)) for phy in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13)})

_DEFAULT_TABLES = {US: _US_TABLE, EUROPE: _EUROPE_TABLE, JAPAN: _JAPAN_TABLE}


def default_domain(name: str) -> RegulatoryDomain:
    """Built-in channel table for US (32 channels), Europe (18) or Japan (22)."""
    try:
        table = _DEFAULT_TABLES[name]
    except KeyError:
        raise ValueError(f"unknown regulatory domain {name!r}; expected one of {DOMAIN_NAMES}") from None
    return RegulatoryDomain(name=name, total_channels=table)


def channel_plan(domain: RegulatoryDomain, us_data_card: int | None = None) -> ChannelPlan:
    """Split a domain's channels into control and data sets.

    The control set is the intersection with the control-capable channels.
    ``us_data_card=28`` selects the alternate US reading in which control
    is restricted to one sequence code (4 channels), leaving 28 data
    channels instead of the default 24.
    """
    control_pool = CONTROL_CAPABLE
    if us_data_card is not None:
        if domain.name != US:
            raise ValueError("us_data_card applies to the US domain only")
        if us_data_card not in (24, 28):
            raise ValueError("us_data_card must be 24 or 28")
        if us_data_card == 28:
            control_pool = frozenset(ch for ch in CONTROL_CAPABLE if ch.code == 7)
    control = frozenset(domain.total_channels & control_pool)
    if not control:
        raise InvalidDomainTableError(
            f"domain {domain.name!r} has no control-capable channels (4/7/11/15 with codes 7-8)"
        )
    data = frozenset(domain.total_channels - control)
    return ChannelPlan(control_set=control, data_set=data)


def partition_channels(
    channels: Sequence[LogicalChannel], k_groups: int, group_size: int
) -> tuple[list[tuple[LogicalChannel, ...]], tuple[LogicalChannel, ...]]:
    """Cut an ordered channel list into ``k_groups`` disjoint groups.

    Groups are taken front to back, ``group_size`` channels each; whatever
    remains is returned explicitly as the unassigned tail.
    """
    if k_groups < 1 or group_size < 1:
        raise ValueError("k_groups and group_size must be positive")
    needed = k_groups * group_size
    if needed > len(channels):
        raise CapacityError(
            f"need {needed} channels for {k_groups} groups of {group_size}, have {len(channels)}"
        )
    groups = [tuple(channels[g * group_size : (g + 1) * group_size]) for g in range(k_groups)]
    unassigned = tuple(channels[needed:])
    return groups, unassigned


def channels_from_pairs(pairs: Iterable[tuple[int, int]]) -> frozenset[LogicalChannel]:
    """Build a channel set from (phy_channel, code) pairs, e.g. a config table."""
    return frozenset(LogicalChannel(phy, code) for phy, code in pairs)
