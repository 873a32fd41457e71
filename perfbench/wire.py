"""Client side of qopt's framed JSON protocol, and its closed-loop sender.

A frame is the payload's byte length in ASCII decimal, a newline, the
payload and a newline.  Every connection sends its next request only after
the reply to the previous one has arrived.
"""

import json
import os
import selectors
import socket
import time


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.next_id = 1

    def close(self):
        self.sock.close()

    def send(self, obj):
        payload = json.dumps(obj, separators=(",", ":")).encode()
        self.sock.sendall(b"%d\n%s\n" % (len(payload), payload))

    def take_frame(self):
        """A complete reply from the buffer, or None."""
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        n = int(self.buf[:nl])
        end = nl + 1 + n + 1
        if len(self.buf) < end:
            return None
        payload = self.buf[nl + 1:end - 1]
        self.buf = self.buf[end:]
        return json.loads(payload)

    def fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def recv(self):
        while True:
            reply = self.take_frame()
            if reply is not None:
                return reply
            self.fill()

    def rpc(self, obj):
        obj = dict(obj, id=self.next_id)
        self.next_id += 1
        self.send(obj)
        return self.recv()


def wait_for_socket(path, proc, timeout_s=60.0):
    """Connect once the server listens; fail if the process exits first."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("server exited with code %d before listening"
                               % proc.returncode)
        if os.path.exists(path):
            try:
                return Conn(path)
            except OSError:
                pass
        time.sleep(0.005)
    raise RuntimeError("server did not listen within %.0f s" % timeout_s)


def run_pass(conns, streams, on_reply):
    """Send one pass: ``streams[c]`` is the list of ``(request, tag)`` for
    connection ``c``.  Each connection keeps exactly one request in flight.
    ``on_reply(tag, reply, seconds)`` sees every reply with its latency,
    measured from just before the send to the arrival of the full frame."""
    sel = selectors.DefaultSelector()
    pos = [0] * len(conns)
    sent_at = [0.0] * len(conns)
    live = 0

    def send_next(c):
        req, _ = streams[c][pos[c]]
        req["id"] = conns[c].next_id
        conns[c].next_id += 1
        sent_at[c] = time.perf_counter()
        conns[c].send(req)

    for c, conn in enumerate(conns):
        if streams[c]:
            sel.register(conn.sock, selectors.EVENT_READ, c)
            send_next(c)
            live += 1
    try:
        while live:
            for key, _ in sel.select():
                c = key.data
                conn = conns[c]
                conn.fill()
                while True:
                    reply = conn.take_frame()
                    if reply is None:
                        break
                    now = time.perf_counter()
                    on_reply(streams[c][pos[c]][1], reply, now - sent_at[c])
                    pos[c] += 1
                    if pos[c] < len(streams[c]):
                        send_next(c)
                    else:
                        sel.unregister(conn.sock)
                        live -= 1
    finally:
        sel.close()
