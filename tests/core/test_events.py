"""Tests for the typed event bus."""

from dataclasses import dataclass

from repro.core.events import EventBus


@dataclass(frozen=True)
class Ping:
    cycle: int = 0


@dataclass(frozen=True)
class Pong:
    cycle: int = 0


class TestSubscribe:
    def test_publish_reaches_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Ping, seen.append)
        bus.publish(Ping(3))
        assert seen == [Ping(3)]

    def test_publish_dispatches_on_exact_type(self):
        bus = EventBus()
        pings, pongs = [], []
        bus.subscribe(Ping, pings.append)
        bus.subscribe(Pong, pongs.append)
        bus.publish(Ping())
        bus.publish(Pong(100))
        assert len(pings) == 1
        assert pongs == [Pong(100)]

    def test_publish_without_subscribers_is_noop(self):
        EventBus().publish(Ping())  # must not raise

    def test_multiple_subscribers_called_in_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(Ping, lambda e: order.append("first"))
        bus.subscribe(Ping, lambda e: order.append("second"))
        bus.publish(Ping())
        assert order == ["first", "second"]

    def test_subscribe_returns_handler(self):
        bus = EventBus()
        handler = bus.subscribe(Ping, lambda e: None)
        assert callable(handler)


class TestUnsubscribe:
    def test_unsubscribed_handler_not_called(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Ping, seen.append)
        bus.unsubscribe(Ping, seen.append)
        bus.publish(Ping())
        assert seen == []

    def test_unsubscribe_unknown_handler_is_idempotent(self):
        bus = EventBus()
        bus.unsubscribe(Ping, lambda e: None)  # never registered
        handler = bus.subscribe(Ping, lambda e: None)
        bus.unsubscribe(Ping, handler)
        bus.unsubscribe(Ping, handler)  # second time: no error
