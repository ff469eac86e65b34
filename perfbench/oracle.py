"""Reference results from the Datalog oracle, never from the engine.

``repro.baselines.datalog.run_datalog`` evaluates the grammar as plain
semi-naive Datalog over hash sets; it shares no join, partition or
storage code with the engine.  Results are cached per (workload, seed,
scale, edit index, source hash) under ``perfbench/.oracle-cache`` and
are computed in child processes, so neither their time nor their memory
lands in a measured process.

Run as ``python3 -m perfbench.oracle closure|serve ...`` from the root
of the checkout; the workloads do that themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench import programs

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / ".oracle-cache"


def digest_rows(src: np.ndarray, dst: np.ndarray, names: Sequence[str]) -> str:
    """Order-free digest of a closure given as ``(src, dst, label name)``.

    Labels are compared by name, so the digest does not depend on how
    either side numbers them.
    """
    names = np.asarray(names, dtype=object)
    vocab = sorted(set(names.tolist()))
    rank = {name: i for i, name in enumerate(vocab)}
    lab = np.fromiter((rank[n] for n in names), dtype=np.int64, count=len(names))
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, lab, src))
    rows = np.stack([src[order], lab[order], dst[order]], axis=1)
    h = hashlib.sha256(json.dumps(vocab).encode())
    h.update(np.ascontiguousarray(rows).tobytes())
    return h.hexdigest()


def engine_digest(computation) -> str:
    """Digest of an engine closure (read back from its partitions)."""
    from repro.graph import packed

    graph = computation.to_memgraph()
    label_names = np.asarray(graph.label_names, dtype=object)
    return digest_rows(
        graph.src,
        packed.targets_of(graph.keys),
        label_names[packed.labels_of(graph.keys)],
    )


def _datalog(graph, grammar) -> Dict[str, object]:
    from repro.baselines.datalog import run_datalog
    from repro.engine.engine import align_graph_labels

    result = run_datalog(align_graph_labels(graph, grammar), grammar)
    if result.status != "ok":
        raise RuntimeError(f"Datalog oracle did not finish: {result.status}")
    src: List[int] = []
    dst: List[int] = []
    names: List[str] = []
    for rel, pairs in result.relations.items():
        for x, y in pairs:
            src.append(x)
            dst.append(y)
            names.append(rel)
    return {"tuples": result.tuples, "digest": digest_rows(src, dst, names)}


def _pointer_closure(sources: programs.Sources) -> Dict[str, object]:
    from repro.frontend import compile_program
    from repro.frontend.graphs import pointer_graph
    from repro.grammar.builtin import pointsto_grammar_extended

    return _datalog(pointer_graph(compile_program(sources)), pointsto_grammar_extended())


def _source_hash(sources: programs.Sources) -> str:
    return hashlib.sha256(json.dumps(sources).encode()).hexdigest()[:16]


def _cache_path(kind: str, seed: int, scale: float, index: int, sources) -> Path:
    return CACHE / f"{kind}-s{seed}-x{scale:g}-e{index}-{_source_hash(sources)}.json"


def _cached(path: Path, compute) -> Dict[str, object]:
    if path.exists():
        return json.loads(path.read_text())
    value = compute()
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(value))
    os.replace(tmp, path)
    return value


def _closure_inputs(seed: int, scale: float):
    sources = programs.linux_workload(seed, scale).sources
    return sources, _cache_path("closure", seed, scale, 0, sources)


def _serve_inputs(seed: int, scale: float, count: int):
    start = programs.postgresql_workload(seed, scale).sources
    out = []
    for index, sources in zip(range(count), programs.edit_stream(start, seed)):
        out.append((sources, _cache_path("serve", seed, scale, index, sources)))
    return out


def child_env() -> Dict[str, str]:
    """Environment for a child Python that imports the program and the benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_children(jobs: List[List[str]]) -> None:
    """One oracle child per job, two at a time (each holds ~360 MiB on the
    linux-like closure); raises if any fails."""

    def run(args: List[str]) -> None:
        subprocess.run(
            [sys.executable, "-m", "perfbench.oracle", *args],
            cwd=ROOT, env=child_env(), check=True, timeout=170,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        for done in [pool.submit(run, args) for args in jobs]:
            done.result()


def closure_references(seeds: Sequence[int], scale: float) -> List[Dict[str, object]]:
    """The oracle's digest and tuple count for each seed's linux-like closure."""
    paths = [_closure_inputs(seed, scale)[1] for seed in seeds]
    _run_children([
        ["closure", "--seed", str(seed), "--scale", str(scale)]
        for seed, path in zip(seeds, paths)
        if not path.exists()
    ])
    return [json.loads(path.read_text()) for path in paths]


def serve_references(seed: int, scale: float, count: int) -> List[Dict[str, object]]:
    """The oracle's results for the first ``count`` programs of the edit stream."""
    inputs = _serve_inputs(seed, scale, count)
    if not all(path.exists() for _, path in inputs):
        _run_children(
            [["serve", "--seed", str(seed), "--scale", str(scale), "--count", str(count)]]
        )
    return [json.loads(path.read_text()) for _, path in inputs]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("closure", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--count", type=int, default=0)
    args = parser.parse_args(argv)
    if args.kind == "closure":
        sources, path = _closure_inputs(args.seed, args.scale)
        _cached(path, lambda: _pointer_closure(sources))
    else:
        for sources, path in _serve_inputs(args.seed, args.scale, args.count):
            _cached(path, lambda: _pointer_closure(sources))
    return 0


if __name__ == "__main__":
    sys.exit(main())
