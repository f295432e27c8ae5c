"""Loopback HTTP stub for the pathfind-http workload.

Serves the two wire formats karpa's HTTP providers speak:

* ``POST /embed`` ``{"model", "input": [...]}`` -> ``{"data": [{"index", "embedding"}]}``
  with ``karpa.embeddings.mock_embed`` vectors;
* ``POST /chat`` ``{"model", "messages", ...}`` -> ``{"choices": [...], "usage": {...}}``
  with the oracle's reply and token counts.

It binds 127.0.0.1 on an ephemeral port, prints the port on its first
stdout line, and exits when its stdin closes, so it never outlives the
benchmark process that started it:

    python3 perfbench/stub.py --oracle DIR/oracle.json --dim 64
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from karpa.embeddings import mock_embed  # noqa: E402

import oracle  # noqa: E402


def make_handler(table: dict[str, dict], dim: int):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if self.path == "/embed":
                payload = {
                    "data": [
                        {"index": i, "embedding": list(mock_embed(text, dim).values)}
                        for i, text in enumerate(body["input"])
                    ]
                }
            elif self.path == "/chat":
                messages = [(m["role"], m["content"]) for m in body["messages"]]
                text, prompt_tokens, completion_tokens = oracle.reply(table, messages)
                payload = {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
                }
            else:
                self.send_error(404)
                return
            data = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--oracle", required=True, help="oracle table written by gen.py")
    parser.add_argument("--dim", type=int, required=True, help="mock embedding dimension")
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(oracle.load_table(args.oracle), args.dim))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    watcher = threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True)
    watcher.start()
    server.serve_forever()
    server.server_close()


if __name__ == "__main__":
    main()
