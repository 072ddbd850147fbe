import pytest

from hexchan.errors import CapacityError, InvalidDomainTableError
from hexchan.spectrum import (
    EUROPE,
    JAPAN,
    US,
    LogicalChannel,
    RegulatoryDomain,
    channel_plan,
    channels_from_pairs,
    default_domain,
    partition_channels,
)

LC = LogicalChannel


def test_logical_channel_validation():
    with pytest.raises(ValueError):
        LC(16, 1)
    with pytest.raises(ValueError):
        LC(0, 0)
    with pytest.raises(ValueError):
        LC(-1, 3)
    with pytest.raises(ValueError):
        LC(4, 9)
    assert LC(4, 7).token() == "4:7"


@pytest.mark.parametrize("name,total", [(US, 32), (EUROPE, 18), (JAPAN, 22)])
def test_default_domain_cardinalities(name, total):
    assert len(default_domain(name).total_channels) == total


def test_default_domain_unknown_name():
    with pytest.raises(ValueError):
        default_domain("Atlantis")


def test_us_plan_default_split():
    plan = channel_plan(default_domain(US))
    assert len(plan.control_set) == 8
    assert len(plan.data_set) == 24


def test_europe_plan_control_is_channels_4_and_7():
    plan = channel_plan(default_domain(EUROPE))
    assert plan.control_set == {LC(4, 7), LC(4, 8), LC(7, 7), LC(7, 8)}
    assert len(plan.data_set) == 14


def test_japan_plan_data_count():
    plan = channel_plan(default_domain(JAPAN))
    assert len(plan.data_set) == 20


@pytest.mark.parametrize("name", [US, EUROPE, JAPAN])
def test_plan_partition_is_exact(name):
    domain = default_domain(name)
    plan = channel_plan(domain)
    assert not (plan.control_set & plan.data_set)
    assert plan.control_set | plan.data_set == domain.total_channels
    assert all(ch.phy_channel in (4, 7, 11, 15) for ch in plan.control_set)


def test_us_data_card_28_restricts_control():
    plan = channel_plan(default_domain(US), us_data_card=28)
    assert len(plan.control_set) == 4
    assert len(plan.data_set) == 28
    assert all(ch.code == 7 for ch in plan.control_set)


def test_us_data_card_24_is_default_split():
    assert channel_plan(default_domain(US), us_data_card=24) == channel_plan(default_domain(US))


def test_us_data_card_rejected_elsewhere():
    with pytest.raises(ValueError):
        channel_plan(default_domain(EUROPE), us_data_card=28)
    with pytest.raises(ValueError):
        channel_plan(default_domain(US), us_data_card=20)


def test_plan_with_no_control_channels_fails():
    domain = RegulatoryDomain("Custom", channels_from_pairs([(0, 1), (1, 1), (2, 1)]))
    with pytest.raises(InvalidDomainTableError):
        channel_plan(domain)


def test_custom_table_plan():
    domain = RegulatoryDomain("Custom", channels_from_pairs([(4, 7), (4, 8), (0, 1), (1, 2)]))
    plan = channel_plan(domain)
    assert plan.control_set == {LC(4, 7), LC(4, 8)}
    assert plan.data_set == {LC(0, 1), LC(1, 2)}


def test_partition_channels_three_groups_of_four():
    channels = channel_plan(default_domain(EUROPE)).ordered_data()
    groups, unassigned = partition_channels(channels, 3, 4)
    assert [len(g) for g in groups] == [4, 4, 4]
    assert len(unassigned) == 2
    seen = set()
    for g in groups:
        assert not (set(g) & seen)
        seen |= set(g)
    assert not (set(unassigned) & seen)


def test_partition_channels_two_groups_of_seven():
    channels = channel_plan(default_domain(EUROPE)).ordered_data()
    groups, unassigned = partition_channels(channels, 2, 7)
    assert [len(g) for g in groups] == [7, 7]
    assert unassigned == ()


def test_partition_channels_identity():
    channels = channel_plan(default_domain(EUROPE)).ordered_data()
    groups, unassigned = partition_channels(channels, 1, len(channels))
    assert groups == [channels]
    assert unassigned == ()


def test_partition_channels_capacity_error():
    channels = channel_plan(default_domain(EUROPE)).ordered_data()
    with pytest.raises(CapacityError):
        partition_channels(channels, 4, 4)
    with pytest.raises(ValueError):
        partition_channels(channels, 0, 4)


def test_partition_channels_deterministic():
    channels = channel_plan(default_domain(JAPAN)).ordered_data()
    assert partition_channels(channels, 3, 6) == partition_channels(channels, 3, 6)
