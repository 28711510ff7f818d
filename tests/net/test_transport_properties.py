"""Property tests for the transport: delivery under loss and duplication.

Invariant (Section 4.2's duplicate-detection contract): whatever the
network does short of partition, the receiver sees a *subsequence* of
the sent messages, in order, with no duplicates — the log protocol
above recovers the gaps (MissingInterval), never the transport.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.lan import Lan
from repro.net.transport import Endpoint
from repro.sim.kernel import Simulator


def run_exchange(n_messages: int, loss: float, dup: float, seed: int):
    sim = Simulator()
    lan = Lan(sim, loss_prob=loss, dup_prob=dup, rng=random.Random(seed))
    sender = Endpoint(sim, lan, "sender")
    receiver = Endpoint(sim, lan, "receiver")
    received: list[int] = []

    def receive_side():
        conn = yield from receiver.accept()
        while True:
            message = yield conn.inbox.get()
            received.append(message)

    def send_side():
        conn = yield from sender.connect("receiver")
        for i in range(n_messages):
            yield from conn.send(i)

    sim.spawn(receive_side())
    sim.spawn(send_side())
    sim.run(until=300)
    return received


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 40),
    loss=st.floats(0.0, 0.4),
    dup=st.floats(0.0, 0.4),
    seed=st.integers(0, 10_000),
)
def test_received_is_ordered_subsequence_without_duplicates(n, loss, dup, seed):
    received = run_exchange(n, loss, dup, seed)
    # no duplicates
    assert len(received) == len(set(received))
    # in order
    assert received == sorted(received)
    # a subsequence of what was sent
    assert set(received) <= set(range(n))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 40), dup=st.floats(0.0, 0.9), seed=st.integers(0, 10_000))
def test_lossless_network_delivers_everything(n, dup, seed):
    """With no loss, duplication alone never drops or reorders."""
    received = run_exchange(n, 0.0, dup, seed)
    assert received == list(range(n))
