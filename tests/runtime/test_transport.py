"""Direct unit tests for the message transport and matching rules."""

import pytest

from repro.runtime.transport import Transport


def post(transport, dst, comm_id=0, src=0, tag=0, payload="x", nbytes=8):
    transport.post(dst, comm_id, src, tag, payload, nbytes, 0.0)


class TestTransport:
    def test_requires_ranks(self):
        with pytest.raises(ValueError):
            Transport(0)

    def test_post_and_match(self):
        t = Transport(2)
        post(t, 1, src=0, tag=5, payload="hello", nbytes=16)
        got = t.match(1, comm_id=0, src=0, tag=5)
        assert (got.comm_id, got.src, got.tag, got.payload, got.nbytes) == (
            0, 0, 5, "hello", 16
        )
        assert t.match(1, comm_id=0, src=0, tag=5) is None

    def test_post_keeps_arrival_time(self):
        t = Transport(2)
        t.post(1, 0, 0, 5, "x", 8, 1.25e-6)
        assert t.match(1, 0, 0, 5).t_avail == 1.25e-6

    def test_no_match_returns_none(self):
        t = Transport(2)
        post(t, 1, src=0, tag=5)
        assert t.match(1, comm_id=0, src=0, tag=6) is None
        assert t.match(1, comm_id=0, src=1, tag=5) is None
        assert t.match(1, comm_id=7, src=0, tag=5) is None
        assert t.match(1, comm_id=0, src=0, tag=5) is not None

    def test_fifo_within_stream(self):
        t = Transport(2)
        post(t, 1, src=0, tag=1, payload="first")
        post(t, 1, src=0, tag=1, payload="second")
        assert t.match(1, 0, 0, 1).payload == "first"
        assert t.match(1, 0, 0, 1).payload == "second"

    def test_tag_selection_skips_earlier_nonmatching(self):
        t = Transport(2)
        post(t, 1, src=0, tag=1, payload="a")
        post(t, 1, src=0, tag=2, payload="b")
        assert t.match(1, 0, 0, 2).payload == "b"
        assert t.match(1, 0, 0, 1).payload == "a"

    def test_comm_scoping(self):
        t = Transport(2)
        post(t, 1, comm_id=3, src=0, tag=0, payload="subcomm")
        post(t, 1, comm_id=0, src=0, tag=0, payload="world")
        assert t.match(1, comm_id=0, src=0, tag=0).payload == "world"
        assert t.match(1, comm_id=3, src=0, tag=0).payload == "subcomm"

    def test_statistics(self):
        t = Transport(2)
        post(t, 1, nbytes=100)
        post(t, 0, nbytes=50)
        assert t.messages_sent == 2
        assert t.bytes_sent == 150

    def test_describe_pending(self):
        t = Transport(2)
        assert "no pending" in t.describe_pending()
        post(t, 1, src=0, tag=7)
        assert "dst=1" in t.describe_pending()

    def test_seq_monotone(self):
        t = Transport(2)
        for dst in (1, 0, 1):
            post(t, dst)
        seqs = [t.match(dst, 0, 0, 0).seq for dst in (1, 0, 1)]
        assert seqs == [1, 2, 3]

    def test_seq_continues_from_restored_counter(self):
        """A checkpoint restores ``_seq``; the next post numbers after it."""
        t = Transport(1)
        t._seq = 41
        post(t, 0)
        assert t.match(0, 0, 0, 0).seq == 42
