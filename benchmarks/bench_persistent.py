"""The ``persistent_closure`` workload: chasing past the in-memory high-water mark.

Two claims are measured, one per part:

**Byte-identity** (the equivalence gate).  On a gate-sized corpus of
small closures — and, via canonical-serialization digests, on the big
workload itself — the sqlite backend's final instance must be
byte-identical (``sorted_atoms`` order included) to the memory backend's.
The backend is storage, not semantics.

**Beyond-RAM completion** (the capability gate).  The wide copy-chain
workload (``R_i(x,y,z) → R_{i+1}(x,y,z)``, ``width`` seed facts, ``depth``
rules) materializes ``width × (depth+1)`` atoms.  The memory backend holds
every atom as Python objects plus the bucket index — peak RSS grows with
the *total* closure — while the sqlite backend keeps atoms on disk and
only the current round's delta (plus the engine's trigger bookkeeping) in
RSS.  Each measured run happens in a *subprocess* with
``resource.setrlimit(RLIMIT_AS, cap)`` applied inside the child (the limit
is irreversible in-process, so the parent never caps itself).  The cap is
self-calibrated to the midpoint of the two backends' uncapped ``VmPeak``:
under it, the memory backend must die of ``MemoryError`` while the sqlite
backend completes the identical closure — the one behaviour a disk-backed
instance exists to provide.

Reported through ``benchmarks/harness.py`` as the report's
``persistent`` section and gated by ``check_regression.py``
(equivalence fatal; a pre-PR10 report without the section earns a note).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_persistent.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.chase.oblivious import oblivious_chase
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

#: Gate-sized corpus for the in-process equivalence sweep.
GATE_PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)
GATE_FAMILIES = ("guarded", "weakly-acyclic", "sticky")
GATE_SETS_PER_FAMILY = 3


def chain_tgds(depth: int):
    return parse_tgds([f"R{i}(x,y,z) -> R{i + 1}(x,y,z)" for i in range(depth)])


def chain_database(width: int) -> Database:
    return Database(
        Atom("R0", [Constant(f"aa{i}"), Constant(f"bb{i}"), Constant(f"cc{i}")])
        for i in range(width)
    )


def canonical_digest(instance) -> str:
    """SHA-256 of the canonical serialization — byte-identity across processes.

    Atoms sort by predicate first, so digesting one sorted predicate
    bucket at a time hashes exactly the ``sorted_atoms`` serialization
    while holding one bucket, not the whole closure, in memory — the
    capped children's peak is the chase's, not the digest's.
    """
    digest = hashlib.sha256()
    for predicate in sorted(instance.predicates()):
        for atom in sorted(instance.with_predicate(predicate), key=Atom.sort_key):
            digest.update(repr(atom).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def vm_peak_kb() -> int:
    """This process's peak virtual size (kB) from ``/proc/self/status``.

    Falls back to ``ru_maxrss`` (RSS, also kB on Linux) off-proc systems —
    coarser, but only the *relative* gap between the two backends matters.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child_workload(backend: str, width: int, depth: int, cap_bytes: int) -> dict:
    """The child-process entry: optionally cap RSS, chase, report JSON.

    Runs inside ``--child`` subprocesses only.  The ``RLIMIT_AS`` cap is
    applied *before* the chase so allocation failures surface as
    ``MemoryError`` (or sqlite's allocation errors) — reported as
    ``{"ok": false, "reason": "oom"}``, never a crash.
    """
    if cap_bytes:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    import time

    tgds = chain_tgds(depth)
    database = chain_database(width)
    start = time.perf_counter()
    try:
        result = oblivious_chase(
            database,
            tgds,
            max_atoms=10_000_000,
            max_rounds=depth + 10,
            backend=backend,
        )
        seconds = time.perf_counter() - start
        report = {
            "ok": bool(result.terminated),
            "reason": None if result.terminated else "cut",
            "atoms": len(result.instance),
            "seconds": round(seconds, 3),
            "digest": canonical_digest(result.instance),
        }
        close = getattr(result.instance, "close", None)
        if close is not None:
            close()
    except MemoryError:
        report = {"ok": False, "reason": "oom", "atoms": None, "seconds": None, "digest": None}
    except Exception as error:  # noqa: BLE001 - sqlite OOM surfaces variously
        if "memory" in str(error).lower() or "malloc" in str(error).lower():
            report = {"ok": False, "reason": "oom", "atoms": None, "seconds": None, "digest": None}
        else:
            report = {
                "ok": False,
                "reason": f"{type(error).__name__}: {error}",
                "atoms": None,
                "seconds": None,
                "digest": None,
            }
    report["backend"] = backend
    report["vm_peak_kb"] = vm_peak_kb()
    report["cap_bytes"] = cap_bytes or None
    return report


def _spawn(backend: str, width: int, depth: int, cap_bytes: int = 0) -> dict:
    """Run one workload child; the RSS cap dies with the child process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--backend",
        backend,
        "--width",
        str(width),
        "--depth",
        str(depth),
        "--cap-bytes",
        str(cap_bytes),
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=600
        )
    except subprocess.TimeoutExpired:
        # A capped memory child near the RLIMIT_AS ceiling can crawl instead
        # of dying: every failed allocation triggers a GC pass that frees just
        # enough to inch forward.  Not finishing within the timeout is still
        # "did not complete under the cap" — report it, don't crash the bench.
        return {
            "backend": backend,
            "ok": False,
            "reason": "timeout",
            "atoms": None,
            "seconds": None,
            "digest": None,
            "vm_peak_kb": None,
            "cap_bytes": cap_bytes or None,
        }
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if completed.returncode != 0 or not lines:
        # A hard death (e.g. the allocator aborting under the cap) still
        # counts as an out-of-memory exit for the capped memory arm.
        return {
            "backend": backend,
            "ok": False,
            "reason": f"child exited {completed.returncode}: "
            f"{(completed.stderr or '').strip()[-200:] or 'no output'}",
            "atoms": None,
            "seconds": None,
            "digest": None,
            "vm_peak_kb": None,
            "cap_bytes": cap_bytes or None,
        }
    return json.loads(lines[-1])


def gate_equivalence() -> dict:
    """In-process byte-identity sweep over the gate-sized generator corpus."""
    from repro.guarded.decision import canonical_body_database

    checked = 0
    identical = True
    for family in GATE_FAMILIES:
        for tgds in corpus(
            family, GATE_SETS_PER_FAMILY, base_seed=17, profile=GATE_PROFILE
        ):
            database = canonical_body_database(tgds[0])
            memory_run = oblivious_chase(database, tgds, max_atoms=3000, max_rounds=40)
            sqlite_run = oblivious_chase(
                database, tgds, max_atoms=3000, max_rounds=40, backend="sqlite"
            )
            checked += 1
            if (
                memory_run.instance.sorted_atoms()
                != sqlite_run.instance.sorted_atoms()
            ):
                identical = False
            close = getattr(sqlite_run.instance, "close", None)
            if close is not None:
                close()
    return {"corpus_sets": checked, "identical": identical}


def measure_persistent(width: int, depth: int) -> dict:
    """The report's ``persistent`` section (see module docstring)."""
    equivalence = gate_equivalence()

    uncapped = [_spawn(backend, width, depth) for backend in ("memory", "sqlite")]
    memory_run, sqlite_run = uncapped
    digests_identical = (
        memory_run["ok"]
        and sqlite_run["ok"]
        and memory_run["digest"] == sqlite_run["digest"]
    )

    cap_bytes = None
    capped = []
    memory_oom_under_cap = False
    sqlite_completes_under_cap = False
    if memory_run["ok"] and sqlite_run["ok"] and memory_run["vm_peak_kb"] and sqlite_run["vm_peak_kb"]:
        # Midpoint of the two peaks: comfortably above what sqlite needs,
        # comfortably below what memory needs.
        cap_bytes = (memory_run["vm_peak_kb"] + sqlite_run["vm_peak_kb"]) * 1024 // 2
        capped = [
            _spawn(backend, width, depth, cap_bytes=cap_bytes)
            for backend in ("memory", "sqlite")
        ]
        capped_memory, capped_sqlite = capped
        memory_oom_under_cap = (not capped_memory["ok"]) and (
            capped_memory["reason"] in ("oom", "timeout")
            or capped_memory["reason"].startswith("child exited")
        )
        sqlite_completes_under_cap = bool(capped_sqlite["ok"]) and (
            capped_sqlite["digest"] == sqlite_run["digest"]
        )

    return {
        "workload": "persistent_closure",
        "width": width,
        "depth": depth,
        "atoms": memory_run.get("atoms") or sqlite_run.get("atoms"),
        "gate_corpus_sets": equivalence["corpus_sets"],
        "equivalence": equivalence["identical"] and digests_identical,
        "corpus_identical": equivalence["identical"],
        "digests_identical": digests_identical,
        "uncapped": uncapped,
        "cap_bytes": cap_bytes,
        "capped": capped,
        "memory_oom_under_cap": memory_oom_under_cap,
        "sqlite_completes_under_cap": sqlite_completes_under_cap,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--backend", default="memory")
    parser.add_argument("--width", type=int, default=3000)
    parser.add_argument("--depth", type=int, default=60)
    parser.add_argument("--cap-bytes", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    args = parser.parse_args(argv)

    if args.child:
        print(
            json.dumps(
                run_child_workload(
                    args.backend, args.width, args.depth, args.cap_bytes
                )
            )
        )
        return 0

    width, depth = (1500, 40) if args.quick else (args.width, args.depth)
    section = measure_persistent(width, depth)
    print(json.dumps(section, indent=2))
    return 0 if section["equivalence"] and section["sqlite_completes_under_cap"] else 1


if __name__ == "__main__":
    sys.exit(main())
