"""Build a serve workload's request stream and its expected answers.

Usage::

    python3 perfbench/child_expected.py TOPOLOGY OUT.json --seed N \
        --requests N

Writes ``{"warmup": W, "paths": [...], "expected": {path: payload}}``:
the first ``W`` paths warm the server up, the next ``N`` are measured.  Every
expected payload comes from a fresh ``QueryService`` with no shards and
no metric tier, so the served answers are checked against the live
kernels.  Runs outside every timed window.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import accumulate
from urllib.parse import parse_qs, urlsplit

#: the query endpoints and the name of each one's second parameter.
#: They are drawn with equal shares: a neutral mix, not a model of real
#: traffic, which no source gives for this service.
ENDPOINTS = (
    ("/reachable", "target"),
    ("/path_length", "target"),
    ("/reliance", "target"),
    ("/hegemony", "target"),
    ("/rib", "asn"),
)


def warmup_stream(graph, seed: int) -> list[str]:
    """One ``/path_length`` query per AS as origin, in an order drawn
    from ``seed``: every origin's shard record and the server's caches
    are warm before anything is timed."""
    nodes = sorted(graph.nodes())
    rng = random.Random(seed)
    origins = rng.sample(nodes, len(nodes))
    return [f"/path_length?origin={o}&target={nodes[0] if o != nodes[0] else nodes[-1]}"
            for o in origins]


def request_stream(graph, seed: int, count: int) -> list[str]:
    """``count`` query paths drawn from ``seed``.

    Endpoints are drawn with equal shares.  Origins are Zipf-ranked by
    degree: the r-th highest-degree AS is drawn with weight 1/r.
    Hegemony targets come from the metric shards' default target set
    (the top-64 ASes by degree); the other endpoints draw targets
    uniformly.
    """
    from repro.bgpsim.shards import default_metric_targets

    nodes = sorted(graph.nodes())
    by_degree = sorted(
        nodes,
        key=lambda a: (
            -(len(graph.providers(a)) + len(graph.customers(a)) + len(graph.peers(a))),
            a,
        ),
    )
    cum_weights = list(accumulate(1.0 / rank for rank in range(1, len(nodes) + 1)))
    hegemony_targets = list(default_metric_targets(graph))
    rng = random.Random(seed)
    paths = []
    for _ in range(count):
        endpoint, param = rng.choice(ENDPOINTS)
        origin = rng.choices(by_degree, cum_weights=cum_weights)[0]
        targets = hegemony_targets if endpoint == "/hegemony" else nodes
        target = rng.choice(targets)
        while target == origin:
            target = rng.choice(targets)
        paths.append(f"{endpoint}?origin={origin}&{param}={target}")
    return paths


def expected_answers(graph, paths: list[str]) -> dict[str, dict]:
    """The payload a fresh, shard-less ``QueryService`` gives each path."""
    from repro.serve import QueryService

    service = QueryService(graph, metrics=None, maxsize=None)
    queries = {}
    for path in paths:
        url = urlsplit(path)
        queries[path] = (url.path, {k: v[-1] for k, v in parse_qs(url.query).items()})
    service.warm(sorted({int(params["origin"]) for _, params in queries.values()}))
    expected = {}
    for path, (endpoint, params) in sorted(queries.items()):
        status, payload = service.answer(endpoint, params)
        if status != 200:
            raise RuntimeError(f"{path}: the live service answered {status}: {payload}")
        expected[path] = payload
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("topology")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    args = parser.parse_args(argv)
    from repro.topology import load_graph

    graph = load_graph(args.topology)
    warmup = warmup_stream(graph, args.seed)
    paths = warmup + request_stream(graph, args.seed, args.requests)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"warmup": len(warmup), "paths": paths,
             "expected": expected_answers(graph, paths)},
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
