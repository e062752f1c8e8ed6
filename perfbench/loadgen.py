"""Single-process, single-thread TCP load generator for `autotest serve`.

`drive` keeps at most `connections` requests in flight, one connection per
request (the wire protocol's one frame each way). With a schedule it is an
open loop: request i is due at start + schedule[i] and is sent then, or as
soon as a connection frees up if all are busy; its latency runs from the
due time, so a stall is charged to every request it delays, and the gap
between due and actual send is recorded as lateness. Without a schedule it
is a closed loop: each connection sends its next request as soon as the
previous response arrives, and latency runs from the send.
"""

import errno
import selectors
import socket
import time

from wire import frame_length


class Outcome:
    __slots__ = ("index", "due", "sent", "done", "response", "error")

    def __init__(self, index, due, sent):
        self.index = index
        self.due = due
        self.sent = sent
        self.done = None
        self.response = None  # raw response payload on success
        self.error = None

    @property
    def latency(self):
        return self.done - self.due

    @property
    def lateness(self):
        return self.sent - self.due


class _Conn:
    __slots__ = ("sock", "out", "buf", "need", "outcome")


def open_schedule(count, rate):
    """Due offsets, in seconds, of `count` requests at a fixed rate."""
    return [i / rate for i in range(count)]


def drive(port, frames, connections, schedule=None, timeout_s=60.0,
          clock=time.perf_counter):
    """Sends frames[i] for every i; returns one Outcome per frame."""
    sel = selectors.DefaultSelector()
    outcomes = [None] * len(frames)
    next_i = 0
    inflight = 0
    start = clock()
    give_up = start + timeout_s

    def finish(conn, error=None):
        nonlocal inflight
        sel.unregister(conn.sock)
        conn.sock.close()
        conn.outcome.done = clock()
        conn.outcome.error = error
        inflight -= 1

    while next_i < len(frames) or inflight:
        now = clock()
        if now > give_up:
            for key in list(sel.get_map().values()):
                finish(key.data, "timeout")
            for i in range(next_i, len(frames)):
                due = start + (schedule[i] if schedule else 0.0)
                outcomes[i] = Outcome(i, due, now)
                outcomes[i].done = now
                outcomes[i].error = "timeout"
            break
        while inflight < connections and next_i < len(frames):
            due = start + schedule[next_i] if schedule is not None else now
            if due > now:
                break
            conn = _Conn()
            conn.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            conn.sock.setblocking(False)
            conn.out = memoryview(frames[next_i])
            conn.buf = bytearray()
            conn.need = None
            sent = clock()
            conn.outcome = Outcome(next_i, sent if schedule is None else due,
                                   sent)
            outcomes[next_i] = conn.outcome
            rc = conn.sock.connect_ex(("127.0.0.1", port))
            inflight += 1
            next_i += 1
            sel.register(conn.sock, selectors.EVENT_WRITE, conn)
            if rc not in (0, errno.EINPROGRESS):
                finish(conn, f"connect: {errno.errorcode.get(rc, rc)}")
            now = clock()
        if schedule is not None and inflight < connections and \
                next_i < len(frames):
            wait = max(0.0, start + schedule[next_i] - clock())
        else:
            wait = max(0.0, give_up - clock())
        for key, mask in sel.select(wait):
            conn = key.data
            try:
                if mask & selectors.EVENT_WRITE and conn.out:
                    sent = conn.sock.send(conn.out)
                    conn.out = conn.out[sent:]
                    if not conn.out:
                        sel.modify(conn.sock, selectors.EVENT_READ, conn)
                elif mask & selectors.EVENT_READ:
                    chunk = conn.sock.recv(1 << 20)
                    if not chunk:
                        finish(conn, "closed before the full response")
                        continue
                    conn.buf += chunk
                    if conn.need is None:
                        conn.need = frame_length(conn.buf)
                    if conn.need is not None and \
                            len(conn.buf) >= conn.need + 4:
                        conn.outcome.response = bytes(
                            conn.buf[4:conn.need + 4])
                        finish(conn)
            except (OSError, ValueError) as e:
                finish(conn, str(e))
    sel.close()
    return outcomes
