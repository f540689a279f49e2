"""The asyncio HTTP front (`repro.serve.server`) end to end.

Runs a `BackgroundServer` over inline and multiprocess pools and talks
real HTTP through `urllib` / `http.client`: correct JSON answers that
agree with a fresh router, request validation (400s), unknown routes
(404), keep-alive connection reuse, concurrent clients, and graceful
shutdown that actually releases the socket.
"""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import parse
from repro.db import ProbabilisticDatabase
from repro.engines import RouterEngine
from repro.serve import BackgroundServer, ServerPool, SessionConfig

EXACT = SessionConfig(exact_fallback=True, mc_seed=99)


def make_db():
    return ProbabilisticDatabase.from_dict({
        "R": {(1,): 0.5, (2,): 0.6},
        "S": {(1, 10): 0.7, (2, 10): 0.4},
        "T": {(10,): 0.8},
    })


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as reply:
        return json.load(reply)


def get(url: str):
    with urllib.request.urlopen(url, timeout=60) as reply:
        return json.load(reply)


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServerPool(make_db(), workers=0, config=EXACT)) as s:
        yield s


class TestRoutes:
    def test_evaluate_matches_router(self, server):
        text = "R(x), S(x,y), T(y)"
        reply = post(server.url + "/evaluate", {"query": text})
        expected = RouterEngine(exact_fallback=True).probability(
            parse(text), make_db()
        )
        assert reply["probability"] == pytest.approx(expected, abs=1e-9)

    def test_answers_ranked(self, server):
        reply = post(
            server.url + "/answers",
            {"query": "Q(x) :- R(x), S(x,y), T(y)", "top": 2},
        )
        expected = RouterEngine(exact_fallback=True).answers(
            parse("Q(x) :- R(x), S(x,y), T(y)"), make_db(), 2
        )
        assert [
            (tuple(item["answer"]), item["probability"])
            for item in reply["answers"]
        ] == [(answer, pytest.approx(p, abs=1e-9)) for answer, p in expected]

    def test_batch(self, server):
        reply = post(
            server.url + "/batch", {"queries": ["R(x)", "R(x), S(x,y)"]}
        )
        assert len(reply["probabilities"]) == 2
        assert reply["probabilities"][0] == pytest.approx(0.8, abs=1e-9)

    def test_update_visible_to_later_queries(self):
        # Private server: mutates state, keep the shared fixture clean.
        with BackgroundServer(
            ServerPool(make_db(), workers=0, config=EXACT)
        ) as server:
            post(server.url + "/update",
                 {"relation": "R", "row": [1], "probability": 0.9})
            db = make_db()
            db.add("R", (1,), 0.9)
            expected = RouterEngine(exact_fallback=True).probability(
                parse("R(x), S(x,y), T(y)"), db
            )
            reply = post(server.url + "/evaluate",
                         {"query": "R(x), S(x,y), T(y)"})
            assert reply["probability"] == pytest.approx(expected, abs=1e-9)

    def test_healthz_and_stats(self, server):
        health = get(server.url + "/healthz")
        assert health == {
            "ok": True, "mode": "inline", "workers": 0, "shards": [],
        }
        stats = get(server.url + "/stats")
        assert stats["combined"]["prepared"] >= 1
        assert "describe" in stats
        assert stats["text"] == stats["describe"]


class TestErrors:
    def test_bad_json_body(self, server):
        request = urllib.request.Request(
            server.url + "/evaluate", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=60)
        assert info.value.code == 400
        assert "not valid JSON" in json.load(info.value)["error"]

    @pytest.mark.parametrize("path, payload, fragment", [
        ("/evaluate", {}, "'query' must be a str"),
        ("/evaluate", {"query": 42}, "'query' must be a str"),
        ("/evaluate", {"query": "R(x,"}, ""),  # parse error -> 400
        ("/answers", {"query": "R(x)", "top": "3"}, "non-negative integer"),
        ("/answers", {"query": "R(x)", "top": -1}, "non-negative integer"),
        ("/batch", {"queries": "R(x)"}, "'queries' must be a list"),
        ("/batch", {"queries": ["R(x)", 7]}, "array of strings"),
        ("/update", {"relation": "R", "row": [1], "probability": True},
         "must be a number"),
        ("/update", {"relation": "R", "row": [1], "probability": 1.5}, ""),
    ])
    def test_field_validation(self, server, path, payload, fragment):
        with pytest.raises(urllib.error.HTTPError) as info:
            post(server.url + path, payload)
        assert info.value.code == 400
        assert fragment in json.load(info.value)["error"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_query_errors_are_400_inline_and_pooled(self, workers):
        # Errors raised inside a worker process must keep the status
        # the inline pool gives them, not turn into a 500.
        pool = ServerPool(make_db(), workers=workers, config=EXACT,
                          request_timeout=120)
        cases = [
            ("/evaluate", "R(x), S(x,y), T(y), z > 3",
             "query is not range-restricted"),
            ("/evaluate", "R(x), S(x,y), z > 3",
             "query is not range-restricted"),
            ("/answers", "Q(x) :- R(x), S(x,y), z > 3",
             "query is not range-restricted"),
            ("/evaluate", "R(x, y)", "relation R has arity 1"),
            ("/answers", "Q(x) :- S(x)", "relation S has arity 2"),
        ]
        with BackgroundServer(pool) as server:
            for path, query, message in cases:
                with pytest.raises(urllib.error.HTTPError) as info:
                    post(server.url + path, {"query": query})
                assert info.value.code == 400, query
                assert json.load(info.value)["error"].startswith(message)
            assert post(server.url + "/evaluate", {"query": "R(x)"})[
                "probability"
            ] == pytest.approx(0.8, abs=1e-9)

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            get(server.url + "/nope")
        assert info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as info:
            post(server.url + "/healthz", {})
        assert info.value.code == 404


class TestConnections:
    def test_keep_alive_reuses_connection(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            for _ in range(3):
                connection.request(
                    "POST", "/evaluate",
                    body=json.dumps({"query": "R(x)"}),
                )
                reply = connection.getresponse()
                assert reply.status == 200
                assert json.load(reply)["probability"] == pytest.approx(
                    0.8, abs=1e-9
                )
        finally:
            connection.close()

    def test_concurrent_clients_agree_with_router(self):
        db = make_db()
        router = RouterEngine(exact_fallback=True)
        texts = ["R(x)", "R(x), S(x,y)", "R(x), S(x,y), T(y)",
                 "S(x,y), T(y)"] * 3
        expected = [router.probability(parse(t), db) for t in texts]
        pool = ServerPool(make_db(), workers=2, config=EXACT,
                          request_timeout=120)
        with BackgroundServer(pool) as server:
            with ThreadPoolExecutor(max_workers=8) as executor:
                replies = list(executor.map(
                    lambda t: post(server.url + "/evaluate", {"query": t}),
                    texts,
                ))
        for reply, want in zip(replies, expected):
            assert reply["probability"] == pytest.approx(want, abs=1e-9)

    def test_shutdown_not_blocked_by_idle_keepalive(self):
        # Regression: an open keep-alive connection parked between
        # requests must not stall graceful shutdown until the client
        # goes away.
        server = BackgroundServer(
            ServerPool(make_db(), workers=0, config=EXACT)
        )
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            connection.request("POST", "/evaluate",
                               body=json.dumps({"query": "R(x)"}))
            assert connection.getresponse().status == 200
            start = time.monotonic()
            server.stop()  # connection still open and idle
            assert time.monotonic() - start < 10
        finally:
            connection.close()

    def test_bad_content_length_closes_without_traceback(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as raw:
            raw.sendall(b"POST /evaluate HTTP/1.1\r\n"
                        b"Content-Length: abc\r\n\r\n")
            assert raw.recv(1024) == b""  # clean close, no response
        # ...and the server keeps serving.
        assert get(server.url + "/healthz")["ok"] is True

    def test_shutdown_releases_the_socket(self):
        server = BackgroundServer(
            ServerPool(make_db(), workers=0, config=EXACT)
        )
        port = server.port
        get(server.url + "/healthz")
        server.stop()
        with pytest.raises((ConnectionError, urllib.error.URLError,
                            socket.timeout)):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ):
                pass
