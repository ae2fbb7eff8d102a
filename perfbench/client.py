"""Open-loop ``/query`` client for serve_query (a separate process).

Reads its plan as JSON on stdin: the server port, the monotonic start
time, the interval between requests, and the request list from
``inputs.query_schedule``.  Request ``k`` is due at
``start + k * interval`` whether or not earlier ones have finished; one
connection at a time, one thread.  Writes one JSON list to stdout, a row
``[due, sent, done, status, ok]`` per request, where ``ok`` means a 200
answer naming exactly the requested statistics.

Ad-hoc requests name an epoch some epochs back from the newest one the
client has seen, which dashboard answers keep current.  Shortly before
the schedule starts, one untimed dashboard request learns the newest
epoch, so the first ad-hoc requests do not name an epoch that has
already left the ring.

Standard library only, so it starts fast and shares nothing with the
server process.
"""

from __future__ import annotations

import json
import socket
import sys
import time

DASHBOARD = ["cardinality", "entropy", "l1", "f2"]
DASHBOARD_NAMES = {"cardinality", "entropy", "l1", "f2"}
#: How long before the first due request the newest epoch is learned.
PRIME_S = 0.05


def _post(port: int, body: bytes, timeout: float):
    head = (f"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as conn:
        conn.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else {}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    port = spec["port"]
    start = spec["start"]
    interval = spec["interval"]
    wait = start - PRIME_S - time.monotonic()
    if wait > 0:
        time.sleep(wait)
    _, answer = _post(port, json.dumps({"statistics": DASHBOARD}).encode(),
                      5.0)
    latest = answer["epoch"]
    rows = []
    for k, request in enumerate(spec["plan"]):
        due = start + k * interval
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        if request["kind"] == "dashboard":
            query = {"statistics": DASHBOARD}
            names = DASHBOARD_NAMES
        else:
            moment = request["moment"]
            query = {"statistics": [f"hh:{request['hh']}",
                                    f"moment:{moment}"],
                     "epoch": latest - request["back"]}
            names = {"heavy_hitters", f"moment_{moment:g}"}
        sent = time.monotonic()
        try:
            status, answer = _post(port, json.dumps(query).encode(), 5.0)
            ok = status == 200 and set(answer.get("results", ())) == names
        except (OSError, ValueError, IndexError):
            status, answer, ok = 0, {}, False
        done = time.monotonic()
        if ok and request["kind"] == "dashboard":
            latest = max(latest, answer["epoch"])
        rows.append([due, sent, done, status, ok])
    json.dump(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
