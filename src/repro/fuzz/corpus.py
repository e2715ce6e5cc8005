"""Corpus persistence: seeds, minimized reproducers, and their replay.

Layout (rooted at ``corpus/`` by default)::

    corpus/
      seeds.json                   # campaign provenance: base seeds run
      reproducers/
        <id>/repro.c               # minimized diverging program
        <id>/meta.json             # how it diverged + how to replay it

``<id>`` is the first 12 hex digits of the SHA-256 of the minimized
source, so saving the same reproducer twice is idempotent and ids are
stable across machines.

The replayer re-checks every saved reproducer against today's engines.
A reproducer whose diverging engine is not registered in this process
(fault-injection engines exist only inside the test that creates them)
cannot diverge again; the regression suite maps that case to *xfail*,
keeping the entry visible without failing the build.  A reproducer
whose engines are all real must replay clean — its divergence was a
bug that has since been fixed, and replaying it green forever is the
point of keeping the corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .engines import is_builtin_engine, known_engines
from .generator import GENERATOR_VERSION

DEFAULT_CORPUS_DIR = "corpus"

#: meta.json schema version.
CORPUS_FORMAT = 1


@dataclass
class CorpusEntry:
    """One saved reproducer."""

    entry_id: str
    source: str
    meta: Dict

    @property
    def engines(self) -> List[str]:
        return list(self.meta.get("engines", []))

    @property
    def opt_levels(self) -> List[int]:
        return [int(o) for o in self.meta.get("opt_levels", [0, 2])]

    @property
    def signature(self):
        sig = self.meta.get("signature", {})
        base = (sig.get("kind", "behavior"), sig.get("engine", ""),
                int(sig.get("opt", 0)))
        direction = sig.get("direction")
        return base + (direction,) if direction else base

    @property
    def perf_baseline(self):
        """Embedded PERF_baseline.json slice, or None (non-perf entries)."""
        data = self.meta.get("perf")
        if not data:
            return None
        from .perf import PerfBaseline
        return PerfBaseline.from_dict(data)


@dataclass
class ReplayOutcome:
    """Result of replaying one corpus entry."""

    entry: CorpusEntry
    status: str                 # "clean" | "divergent" | "missing-engine"
    detail: str = ""
    divergences: List = field(default_factory=list)


def entry_id_for(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


class Corpus:
    """A directory of fuzz seeds and minimized reproducers."""

    def __init__(self, root: str = DEFAULT_CORPUS_DIR):
        self.root = os.path.abspath(root)

    # -- seed provenance ---------------------------------------------------

    def record_campaign(self, base_seed: int, budget: int,
                        engines: Sequence[str],
                        opt_levels: Sequence[int],
                        divergences_found: int) -> None:
        """Append one campaign record to ``seeds.json``."""
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, "seeds.json")
        records = []
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    records = json.load(fh)
            except (OSError, ValueError):
                records = []
        record = {"seed": base_seed, "budget": budget,
                  "engines": list(engines),
                  "opt_levels": [int(o) for o in opt_levels],
                  "divergences": divergences_found,
                  "generator": GENERATOR_VERSION}
        if record not in records:
            records.append(record)
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- reproducers -------------------------------------------------------

    def save_reproducer(self, source: str, meta: Dict) -> str:
        """Persist a minimized reproducer; returns its stable id."""
        entry_id = entry_id_for(source)
        directory = os.path.join(self.root, "reproducers", entry_id)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "repro.c"), "w") as fh:
            fh.write(source)
        full_meta = {"format": CORPUS_FORMAT,
                     "generator": GENERATOR_VERSION, **meta}
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(full_meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return entry_id

    def entries(self) -> List[CorpusEntry]:
        """Every saved reproducer, sorted by id (deterministic order)."""
        directory = os.path.join(self.root, "reproducers")
        if not os.path.isdir(directory):
            return []
        out: List[CorpusEntry] = []
        for entry_id in sorted(os.listdir(directory)):
            src_path = os.path.join(directory, entry_id, "repro.c")
            meta_path = os.path.join(directory, entry_id, "meta.json")
            if not os.path.exists(src_path):
                continue
            with open(src_path) as fh:
                source = fh.read()
            meta: Dict = {}
            if os.path.exists(meta_path):
                try:
                    with open(meta_path) as fh:
                        meta = json.load(fh)
                except (OSError, ValueError):
                    meta = {}
            out.append(CorpusEntry(entry_id=entry_id, source=source,
                                   meta=meta))
        return out

    # -- replay ------------------------------------------------------------

    def replay_entry(self, entry: CorpusEntry,
                     runner=None) -> ReplayOutcome:
        """Re-run one reproducer's oracle check with today's engines."""
        from .oracle import check_program

        available = set(known_engines())
        missing = [e for e in entry.engines
                   if e not in available and not is_builtin_engine(e)]
        if missing:
            return ReplayOutcome(
                entry=entry, status="missing-engine",
                detail=(f"engine(s) {', '.join(sorted(missing))} not "
                        "registered in this process (fault-injection "
                        "engines exist only in their test)"))
        # Perf reproducers carry the baseline slice they were judged
        # against, so replay re-applies the perf oracle with the exact
        # expectations that flagged them — independent of whatever
        # PERF_baseline.json says today.
        report = check_program(entry.source, engines=entry.engines,
                               opt_levels=entry.opt_levels,
                               runner=runner,
                               perf_baseline=entry.perf_baseline)
        if report.divergences:
            return ReplayOutcome(
                entry=entry, status="divergent",
                detail="; ".join(d.describe()
                                 for d in report.divergences),
                divergences=report.divergences)
        return ReplayOutcome(entry=entry, status="clean")

    def replay_all(self, runner=None) -> List[ReplayOutcome]:
        return [self.replay_entry(e, runner=runner)
                for e in self.entries()]
