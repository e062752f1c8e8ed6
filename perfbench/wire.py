"""Client side of the serve wire format (src/serve/wire.h).

A frame is a 4-byte big-endian payload length followed by the payload.
One request frame and one response frame are exchanged per connection.

    request  = "autotest.serve.v1 <verb>\\n" {key "=" value "\\n"} "\\n" body
    response = "autotest.serve.v1 <CODE>\\n" {key "=" value "\\n"} "\\n" body
"""

import socket
import struct

MAGIC = b"autotest.serve.v1"
MAX_FRAME = 64 << 20


def encode_frame(payload):
    return struct.pack(">I", len(payload)) + payload


def encode_request(verb, body=b"", table="", tenant="", deadline_ms=0):
    """Framed request, byte-identical to serve::SerializeRequest."""
    head = MAGIC + b" " + verb.encode() + b"\n"
    if deadline_ms > 0:
        head += b"deadline_ms=%d\n" % deadline_ms
    if table:
        head += b"table=" + table.encode() + b"\n"
    if tenant:
        head += b"tenant=" + tenant.encode() + b"\n"
    return encode_frame(head + b"\n" + body)


def frame_length(buf):
    """Payload length of the frame at the start of `buf`, or None."""
    if len(buf) < 4:
        return None
    (n,) = struct.unpack(">I", bytes(buf[:4]))
    if n > MAX_FRAME:
        raise ValueError(f"frame of {n} bytes exceeds {MAX_FRAME}")
    return n


def decode_response(payload):
    """(code, fields, body) of a response payload; fields keep order."""
    head, sep, body = bytes(payload).partition(b"\n\n")
    if not sep:
        raise ValueError("response has no header terminator")
    lines = head.split(b"\n")
    magic, _, code = lines[0].partition(b" ")
    if magic != MAGIC or not code:
        raise ValueError(f"bad response status line {lines[0]!r}")
    fields = []
    for line in lines[1:]:
        key, eq, value = line.partition(b"=")
        if not eq:
            raise ValueError(f"bad response field {line!r}")
        fields.append((key.decode(), value.decode()))
    return code.decode(), fields, body


def round_trip(port, frame, timeout=30.0):
    """Blocking exchange of one framed request; returns the response."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(frame)
        buf = bytearray()
        need = None
        while need is None or len(buf) < need + 4:
            chunk = s.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            buf += chunk
            if need is None:
                need = frame_length(buf)
    return decode_response(buf[4:need + 4])
