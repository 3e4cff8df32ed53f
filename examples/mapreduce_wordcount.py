#!/usr/bin/env python3
"""Distributed map-reduce over CompStors (the Hadoop/Spark motif).

The paper's introduction frames in-situ processing as pushing the
"move computation to data" paradigm of MapReduce/Spark to its limit.  This
example runs the canonical wordcount that way:

- **map**: a dynamically-loaded executable runs *inside every drive*,
  counting words in its locally-stored shard of the corpus and emitting a
  compact partial histogram (JSON over the minion response);
- **reduce**: the host merges the partial histograms.

Only kilobytes of histogram cross the PCIe bus instead of megabytes of
text — the entire point of the architecture.

Run:  python examples/mapreduce_wordcount.py
"""

import json
from collections import Counter

from repro.analysis.calibration import CYCLES_PER_BYTE
from repro.apps.base import charge
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.isos.loader import ExitStatus
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

CYCLES_PER_BYTE.setdefault("mapcount", {"xeon": 18.0, "arm-a53": 50.0})

TOP_K = 50


class MapCountApp:
    """``mapcount FILE...`` — emit a JSON histogram of the top words."""

    name = "mapcount"

    def run(self, ctx):
        counts: Counter = Counter()
        for path in ctx.args:
            carry = b""
            stream = ctx.stream_pages(path)
            while not stream.exhausted:
                chunk, take = yield from stream.next_page()
                yield from charge(ctx, self.name, take)
                if chunk is None:
                    continue
                words = (carry + chunk).split()
                carry = words.pop() if chunk and not chunk.endswith((b" ", b"\n")) else b""
                counts.update(w.decode("latin-1") for w in words)
            if carry:
                counts.update([carry.decode("latin-1")])
        partial = dict(counts.most_common(TOP_K))
        return ExitStatus(
            code=0,
            stdout=json.dumps(partial).encode(),
            detail={"unique_words": len(counts), "total_words": sum(counts.values())},
        )


def main() -> None:
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=3),
    ))
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=9, mean_file_bytes=96 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    placement = node.device_books(books)
    corpus_bytes = sum(b.plain_size for b in books)

    def job():
        # ship the map executable to every drive at runtime
        yield from node.client.load_executable_everywhere(MapCountApp())

        # map phase: one minion per device, scanning that device's shard
        assignments = [
            (device, Command(command_line="mapcount " + " ".join(b.name for b in part)))
            for device, part in placement.items()
        ]
        start = sim.now
        responses = yield from node.client.gather(assignments)
        map_seconds = sim.now - start

        # reduce phase: merge partial histograms on the host
        merged: Counter = Counter()
        wire_bytes = 0
        total_words = 0
        for response in responses:
            assert response.ok
            merged.update(Counter(json.loads(response.stdout)))
            wire_bytes += len(response.stdout)
            total_words += response.detail["total_words"]

        print(f"corpus: {len(books)} books, {corpus_bytes / 1e6:.1f} MB across "
              f"{len(node.compstors)} CompStors")
        print(f"map phase: {map_seconds * 1e3:.1f} ms simulated, "
              f"{total_words} words counted in-situ")
        print(f"data over PCIe: {wire_bytes / 1024:.1f} KiB of histograms "
              f"(vs {corpus_bytes / 1e6:.1f} MB of raw text — "
              f"{corpus_bytes / wire_bytes:.0f}x reduction)")
        print("\ntop 10 words:")
        for word, count in merged.most_common(10):
            print(f"   {word:12s} {count}")

    sim.run(sim.process(job()))


if __name__ == "__main__":
    main()
