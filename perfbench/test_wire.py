"""Checks the load generator's frame codec against serve/wire.h: the
benchmark's helper prints frames built by serve::SerializeRequest,
serve::SerializeResponse and serve::EncodeFrame. Builds the helper on
first use (see run.ensure_built)."""

import json
import subprocess
import unittest

import run
import wire


class WireCodecTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, tool = run.ensure_built()
        out = subprocess.run([tool, "wire"], capture_output=True, text=True,
                             check=True)
        cls.samples = json.loads(out.stdout)

    def test_requests_encode_byte_identically(self):
        for r in self.samples["requests"]:
            frame = wire.encode_request(r["verb"], r["body"].encode(),
                                        table=r["table"], tenant=r["tenant"],
                                        deadline_ms=r["deadline_ms"])
            self.assertEqual(frame.hex(), r["frame"], r["verb"])

    def test_responses_decode(self):
        for r in self.samples["responses"]:
            frame = bytes.fromhex(r["frame"])
            n = wire.frame_length(frame)
            self.assertEqual(n, len(frame) - 4)
            code, fields, body = wire.decode_response(frame[4:])
            self.assertEqual(code, r["code"])
            self.assertEqual(fields, [tuple(f) for f in r["fields"]])
            self.assertEqual(body.decode(), r["body"])

    def test_frame_length_needs_the_whole_header(self):
        self.assertIsNone(wire.frame_length(b"\x00\x00\x01"))
        self.assertEqual(wire.frame_length(b"\x00\x00\x01\x00rest"), 256)
        with self.assertRaises(ValueError):
            wire.frame_length(b"\xff\xff\xff\xff")


if __name__ == "__main__":
    unittest.main()
