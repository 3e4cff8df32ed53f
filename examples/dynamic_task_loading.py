#!/usr/bin/env python3
"""Dynamic task loading + telemetry-driven load balancing.

The two capabilities Table I credits uniquely to CompStor's in-storage OS:

1. a brand-new analytics executable (a top-k word-frequency scanner that no
   device shipped with) is pushed to every running drive via ISC_LOAD and
   used immediately — no firmware rebuild, no FPGA synthesis;
2. a burst of tasks is placed by querying each device's ARM-core telemetry
   and picking the least-loaded drive, versus blind round-robin.

Run:  python examples/dynamic_task_loading.py
"""

from collections import Counter

from repro.analysis.calibration import CYCLES_PER_BYTE
from repro.cluster import (
    LeastLoadedBalancer,
    MinionDispatcher,
    RoundRobinBalancer,
)
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.isos.loader import ExitStatus
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

# The new app must have a cycle calibration before devices will run it —
# in the real system this is the ARM cross-compile step.
CYCLES_PER_BYTE.setdefault("wordfreq", {"xeon": 20.0, "arm-a53": 55.0})


class WordFreqApp:
    """``wordfreq K FILE`` — top-K most frequent words."""

    name = "wordfreq"

    def run(self, ctx):
        from repro.apps.base import charge

        k = int(ctx.args[0])
        path = ctx.args[1]
        counts: Counter = Counter()
        stream = ctx.stream_pages(path)
        carry = b""
        while not stream.exhausted:
            chunk, take = yield from stream.next_page()
            yield from charge(ctx, self.name, take)
            if chunk is None:
                continue
            words = (carry + chunk).split()
            carry = words.pop() if chunk and not chunk.endswith((b" ", b"\n")) else b""
            counts.update(words)
        if carry:
            counts.update([carry])
        top = ", ".join(f"{w.decode()}:{n}" for w, n in counts.most_common(k))
        return ExitStatus(code=0, stdout=top.encode(), detail={"unique": len(counts)})


def main() -> None:
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=3),
    ))
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=6, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    placement = node.device_books(books)

    # one replicated file so load-balanced tasks are placeable anywhere
    def replicate_shared():
        for ssd in node.compstors:
            yield from ssd.fs.write_file("shared.txt", books[0].plain)

    sim.run(sim.process(replicate_shared()))

    def session():
        # -- 1. dynamic task loading -------------------------------------
        installed = yield from node.client.query(
            "compstor0", __import__("repro.proto", fromlist=["QueryKind"]).QueryKind.LIST_EXECUTABLES
        )
        assert "wordfreq" not in installed
        print(f"devices boot with {len(installed)} standard executables; "
              "pushing 'wordfreq' at runtime...")
        yield from node.client.load_executable_everywhere(WordFreqApp())

        responses = yield from node.client.gather([
            (device, Command(command_line=f"wordfreq 3 {part[0].name}"))
            for device, part in placement.items()
        ])
        for device, response in zip(placement, responses):
            print(f"   {device}: top words -> {response.stdout.decode()}")

        # -- 2. telemetry-driven load balancing ----------------------------
        print("\nplacing 9 replicated scans, round-robin vs least-loaded,")
        print("while compstor0 is busy with a long compression job:")
        hog = sim.process(
            node.client.run("compstor0", f"bzip2 {placement['compstor0'][0].name}")
        )
        yield sim.timeout(2e-3)

        for balancer in (RoundRobinBalancer(), LeastLoadedBalancer()):
            dispatcher = MinionDispatcher(node.client, balancer)
            start = sim.now
            responses = yield from dispatcher.submit_all(
                [Command(command_line="wordfreq 1 shared.txt") for _ in range(9)]
            )
            assert all(r.ok for r in responses)
            share = dispatcher.device_share()
            print(f"   {balancer.name:13s}: {sim.now - start:8.4f} s, "
                  f"placement {dict(sorted(share.items()))}")
        yield hog

    sim.run(sim.process(session()))


if __name__ == "__main__":
    main()
