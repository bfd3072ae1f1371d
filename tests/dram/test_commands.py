"""Unit tests for request/command types."""

from dataclasses import fields

from repro.dram.commands import Command, CommandType, Request, RequestType


class TestRequest:
    def test_ids_are_unique_and_increasing(self):
        a = Request(RequestType.READ, 0, arrival=0)
        b = Request(RequestType.READ, 0, arrival=0)
        assert b.req_id > a.req_id

    def test_kind_predicates(self):
        read = Request(RequestType.READ, 0, arrival=0)
        write = Request(RequestType.WRITE, 0, arrival=0)
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read

    def test_service_fields_default_unset(self):
        request = Request(RequestType.READ, 0, arrival=0)
        assert request.cas_issue == -1
        assert request.finish == -1
        assert request.own_pre_start == -1
        assert not request.forwarded

    def test_repr_mentions_address(self):
        request = Request(RequestType.READ, 0x1234, arrival=5)
        assert "0x1234" in repr(request)

    def test_leading_field_order(self):
        """The CPU model builds requests positionally from these."""
        assert [f.name for f in fields(Request)][:7] == [
            "req_type", "address", "arrival", "core_id", "requester_id",
            "is_prefetch", "meta",
        ]


class TestCommand:
    def test_is_cas(self):
        assert CommandType.READ.is_cas
        assert CommandType.WRITE.is_cas
        assert not CommandType.ACTIVATE.is_cas
        assert not CommandType.REFRESH.is_cas

    def test_command_is_immutable(self):
        command = Command(CommandType.ACTIVATE, 10)
        try:
            command.issue = 20
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_str_forms(self):
        assert str(CommandType.ACTIVATE) == "activate"
        assert str(RequestType.READ) == "read"
