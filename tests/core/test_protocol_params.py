"""Tests for wire-size accounting and SamhitaConfig validation."""

import pytest

from repro.core import SamhitaConfig
from repro.core import protocol
from repro.errors import ReproError
from repro.interconnect.scl import CONTROL_BYTES
from repro.memory import MemoryLayout
from repro.memory.cache import EvictionPolicy


class TestProtocolSizes:
    def test_notice_message_scales_with_pages(self):
        empty = protocol.notice_message_bytes(0)
        assert empty == CONTROL_BYTES
        assert protocol.notice_message_bytes(10) == empty + 10 * 8

    def test_directive_message_counts_both_lists(self):
        base = protocol.directive_message_bytes(0, 0)
        assert protocol.directive_message_bytes(3, 2) == base + 5 * 8

    def test_lock_grant_includes_payload_and_spans(self):
        base = protocol.lock_grant_bytes(0, 0)
        assert protocol.lock_grant_bytes(100, 3) == base + 100 + 3 * 8

    def test_release_mirrors_grant(self):
        assert (protocol.release_message_bytes(64, 2)
                == protocol.lock_grant_bytes(64, 2))

    def test_alloc_messages_are_control_sized(self):
        assert protocol.alloc_request_bytes() == CONTROL_BYTES
        assert protocol.alloc_reply_bytes() == CONTROL_BYTES


class TestConfigValidation:
    def test_defaults_valid(self):
        config = SamhitaConfig()
        assert config.coherence == "regc"
        assert config.multiple_writer and config.regc_fine_grain

    def test_with_returns_modified_copy(self):
        config = SamhitaConfig()
        changed = config.with_(multiple_writer=False)
        assert not changed.multiple_writer
        assert config.multiple_writer

    def test_cache_must_hold_one_line(self):
        layout = MemoryLayout(pages_per_line=8)
        with pytest.raises(ReproError):
            SamhitaConfig(layout=layout, cache_capacity_pages=4)

    def test_memory_server_count_positive(self):
        with pytest.raises(ReproError):
            SamhitaConfig(n_memory_servers=0)

    def test_unknown_coherence_rejected(self):
        with pytest.raises(ReproError):
            SamhitaConfig(coherence="release")

    def test_eviction_policy_enum_roundtrip(self):
        for policy in EvictionPolicy:
            config = SamhitaConfig(eviction_policy=policy)
            assert config.eviction_policy is policy
