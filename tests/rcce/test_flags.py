"""Unit tests for the SF flag layout and counter predicates."""

import pytest

from repro.rcce.config import RankLayout, SccConfigFile
from repro.rcce.flags import FlagLayout, MAX_RANKS, SEQ_MOD, reached
from repro.scc.params import SCCParams


@pytest.fixture
def flags():
    config = SccConfigFile((tuple(range(48)), tuple(range(48))))
    return FlagLayout(RankLayout.from_config(config), SCCParams())


def test_flag_addresses_in_sf_region(flags):
    params = SCCParams()
    for addr in (flags.sent(0, 95), flags.ready(95, 0), flags.misc(3, 15)):
        assert params.mpb_payload_bytes <= addr.offset < params.lmb_bytes_per_core


def test_sent_and_ready_never_collide(flags):
    seen = set()
    for owner in (0, 50):
        for peer in (0, 1, 95):
            for addr in (flags.sent(owner, peer), flags.ready(owner, peer)):
                key = (addr.device, addr.core, addr.offset)
                assert key not in seen
                seen.add(key)
    for slot in range(16):
        addr = flags.misc(0, slot)
        key = (addr.device, addr.core, addr.offset)
        assert key not in seen
        seen.add(key)


def test_flag_owned_by_owner_rank(flags):
    addr = flags.sent(50, 3)
    assert (addr.device, addr.core) == (1, 2)  # rank 50 = device 1 core 2


def test_capacity_limit():
    config = SccConfigFile((tuple(range(48)),) * 6)
    with pytest.raises(ValueError, match="capacity"):
        FlagLayout(RankLayout.from_config(config), SCCParams())
    assert MAX_RANKS == 248


def test_next_seq_cycles_skipping_zero():
    seq = 0
    seen = []
    for _ in range(SEQ_MOD + 3):
        seq = FlagLayout.next_seq(seq)
        seen.append(seq)
    assert 0 not in seen
    assert seen[0] == 1 and seen[SEQ_MOD] == 1  # wrapped


def test_reached_predicate_with_wrap():
    pred = reached(target=253, max_lead=4)
    assert pred(253)
    assert pred(254)
    assert pred(1)      # wrapped lead
    assert not pred(252)  # behind
    assert not pred(0)    # never signalled
    with pytest.raises(ValueError):
        reached(0)


def test_reached_at_the_254_wrap_boundary():
    """Exhaustive window check at target=254 (the wrap point) for the
    default max_lead=8: exactly 254, 1, 2, …, 7 are in the lead window."""
    pred = reached(target=SEQ_MOD)  # max_lead=8
    accepted = {value for value in range(0, SEQ_MOD + 1) if pred(value)}
    assert accepted == {254, 1, 2, 3, 4, 5, 6, 7}


def test_reached_window_is_half_open():
    """max_lead values past target is the first *rejected* lead."""
    for target in (1, 250, SEQ_MOD):
        for max_lead in (1, 4, 8):
            pred = reached(target, max_lead=max_lead)
            value = target
            for lead in range(max_lead):
                assert pred(value), (target, max_lead, lead, value)
                value = FlagLayout.next_seq(value)
            assert not pred(value), (target, max_lead, value)


def test_reached_rejects_never_signalled_across_targets():
    for target in (1, 2, 247, 253, SEQ_MOD):
        assert not reached(target)(0)


def test_reached_target_bounds():
    with pytest.raises(ValueError):
        reached(SEQ_MOD + 1)
    with pytest.raises(ValueError):
        reached(-3)


def test_misc_slot_bounds(flags):
    with pytest.raises(ValueError):
        flags.misc(0, 16)


def test_flag_addresses_are_resolved_once_per_pair(flags):
    assert flags.sent(50, 3) is flags.sent(50, 3)
    assert flags.ready(3, 50) is flags.ready(3, 50)
    assert flags.sent(50, 3) != flags.sent(3, 50)


@pytest.mark.parametrize("lookup", ["sent", "ready"])
def test_out_of_range_ranks_raise_on_every_lookup(flags, lookup):
    fn = getattr(flags, lookup)
    for _ in range(2):  # a failed lookup caches nothing
        with pytest.raises(ValueError):
            fn(0, 96)
        with pytest.raises(ValueError):
            fn(0, -1)
        with pytest.raises(ValueError):
            fn(96, 0)
    fn(0, 95)  # a valid pair, then the bad ones again
    for _ in range(2):
        with pytest.raises(ValueError):
            fn(0, 96)
        with pytest.raises(ValueError):
            fn(96, 0)
