import socket
import threading
import time
import unittest

import loadgen
import wire

OK_PAYLOAD = b"autotest.serve.v1 OK\nversion=1\n\npong\n"


class SlowServer:
    """Answers each framed request after `service_s`, one at a time."""

    def __init__(self, service_s):
        self.service_s = service_s
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                buf = b""
                while True:
                    need = wire.frame_length(buf)
                    if need is not None and len(buf) >= need + 4:
                        break
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    buf += chunk
                time.sleep(self.service_s)
                conn.sendall(wire.encode_frame(OK_PAYLOAD))

    def close(self):
        # shutdown() wakes the blocked accept(); close() alone would not.
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join()


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_due_time_and_lateness_is_recorded(self):
        # One connection, 40 ms service, a request due every 10 ms: the
        # generator falls behind, and every request is charged the wait.
        server = SlowServer(0.040)
        try:
            frames = [wire.encode_request("ping")] * 5
            out = loadgen.drive(server.port, frames, connections=1,
                                schedule=loadgen.open_schedule(5, 100.0))
        finally:
            server.close()
        self.assertTrue(all(o.error is None for o in out))
        self.assertTrue(all(o.response == OK_PAYLOAD for o in out))
        for i, o in enumerate(out):
            self.assertAlmostEqual(o.due - out[0].due, i * 0.010, places=6)
            self.assertGreaterEqual(o.sent, o.due)
            self.assertAlmostEqual(o.latency, o.done - o.due)
            self.assertGreaterEqual(o.latency, o.lateness + 0.040)
        # Request i waits for i earlier 40 ms services but was due 10 ms
        # after the previous one: about 30 ms more lateness per request.
        self.assertGreater(out[4].lateness, 0.090)
        self.assertGreater(out[4].latency, out[4].done - out[4].sent + 0.090)

    def test_on_schedule_requests_are_not_late(self):
        server = SlowServer(0.0)
        try:
            frames = [wire.encode_request("ping")] * 4
            out = loadgen.drive(server.port, frames, connections=2,
                                schedule=loadgen.open_schedule(4, 20.0))
        finally:
            server.close()
        for i, o in enumerate(out):
            self.assertGreaterEqual(o.sent - out[0].due, i * 0.050)
            self.assertLess(o.lateness, 0.030)


class ClosedLoopTest(unittest.TestCase):
    def test_keeps_connections_busy_and_reports_refused_connections(self):
        server = SlowServer(0.0)
        frames = [wire.encode_request("ping")] * 6
        try:
            out = loadgen.drive(server.port, frames, connections=3)
        finally:
            server.close()
        self.assertTrue(all(o.error is None for o in out))
        self.assertTrue(all(o.latency >= 0 and o.lateness == 0 for o in out))
        # Nothing listens on the closed port any more.
        out = loadgen.drive(server.port, frames[:2], connections=2,
                            timeout_s=5.0)
        self.assertTrue(all(o.error is not None for o in out))


if __name__ == "__main__":
    unittest.main()
