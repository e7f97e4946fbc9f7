"""Durable, lease-based sweep fabric: the sweep runner's parallel executor.

``SweepRunner(workers=N)`` with N > 1 runs a coordinator on a private
queue in a temporary directory (removed after the run);
``SweepRunner(fabric=FabricConfig(...))`` / ``repro sweep --fabric DIR``
runs one on a named, durable queue that external ``repro worker --queue
DIR`` processes may join or leave at any time.  The queue is a
directory, with the run ledger's durability idiom (O_APPEND JSONL events
+ atomic ``os.replace`` writes)::

    queue.json      sweep definition (keys, fingerprint, settings) [atomic]
    specs.pkl       pickled key -> SimulationSpec map            [atomic]
    events.jsonl    append-only event log (claim/done/error/...) [O_APPEND]
    leases/K.json   live lease for point K (O_EXCL create = lease)
    workers/        per-worker log files

Workers (:func:`worker_main`) lease *batches* of points, each sized to
about :data:`BATCH_TARGET_S` of work from the per-point times seen so
far, heartbeat them while simulating, announce each point with a
``claim`` event as it starts and report it with a ``done`` event that
carries the pickled result; the coordinator stores results in the
runner's :class:`~repro.exec.cache.ResultCache`.  Local workers are
forked from the coordinator, which has already imported everything and
loaded the C kernel; they wake it through a pipe after each batch and
exit once it is gone.  While other threads run in the coordinator (the
HTTP service) a fork could deadlock, so local workers are forked from
multiprocessing's fork server instead (:func:`_start_worker`).

The coordinator (:class:`FabricCoordinator`) seeds the queue, reclaims
expired leases, respawns dead local workers, folds results into the
ordinary :class:`~repro.exec.runner.SweepReport`, and applies the one
failure policy.  Each failed attempt is charged to its point as
``error`` (the worker raised; its traceback travels in the event),
``crash`` (the holder died or its lease expired mid-point) or
``timeout`` (it ran past ``point_timeout``: the holder is fenced out,
its other leases are requeued, and a local holder is killed).  The
coordinator takes a failed attempt's lease over and frees it once the
retry backoff (``retry_backoff_s``, doubling per charged attempt) is
over.  A point fails once its charged attempts exceed ``max_retries``,
with the kind of its last attempt, and a ``quarantine`` event records
it.  Leases whose point had not started (the batch-mates of a dead or
timed-out worker) and leases an earlier coordinator of an adopted queue
left behind are requeued uncharged.

Execution is at-least-once, recorded exactly once: a presumed-dead
worker may still finish, which is harmless -- results are
content-addressed, the first ``done`` event wins, and later duplicates
are only counted.  :func:`audit_queue` replays the event log and proves
the invariants: every seeded point is done or quarantined, every done
event carries a loadable result, no lease outlives the sweep.

The fabric's chaos modes (``REPRO_SWEEP_CHAOS`` = ``kill9``,
``stall-heartbeat``, ``torn-write`` or ``slow``, on top of the
simulation guard's ``raise``/``exit``/``hang``/``exit-once``) and their
arguments are listed in docs/robustness.md.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import os
import pickle
import select
import signal
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.runner import CHAOS_ENV, _simulate_guarded
from repro.telemetry import TelemetryContext
from repro.telemetry.live import shard_of

QUEUE_META = "queue.json"
SPECS_FILE = "specs.pkl"
EVENTS_FILE = "events.jsonl"
LEASES_DIR = "leases"
WORKERS_DIR = "workers"

SHARDS = 8              # content-derived point buckets for live views
POLL_S = 0.05           # coordinator scan / idle-worker period
DRAIN_TIMEOUT_S = 30.0  # grace for in-flight points on drain
BATCH_TARGET_S = 0.1    # work covered by one lease batch
TICK_S = 0.01           # heartbeat and stall resolution

#: Fabric metric names pre-registered on every instrumented coordinator
#: run, so a churn-free sweep still renders them (as zeros).
FABRIC_COUNTER_HELP = {
    "fabric_lease_claims_total": "Point attempts started under a lease.",
    "fabric_lease_expired_total": "Leases reclaimed after their deadline, "
                                  "their holder's death or a timeout.",
    "fabric_requeued_total": "Points made claimable again after a lease "
                             "expiry.",
    "fabric_done_duplicates_total": "Duplicate completions (at-least-once "
                                    "execution), deduplicated.",
    "fabric_worker_errors_total": "Point attempts that raised inside a "
                                  "fabric worker.",
    "fabric_worker_spawns_total": "Local worker processes launched.",
    "fabric_worker_deaths_total": "Local worker processes that died "
                                  "without draining.",
    "fabric_quarantined_total": "Points failed after exhausting their "
                                "retries.",
}

#: Fabric gauges, pre-registered likewise so snapshots keep one shape
#: whether or not a sweep churns.
FABRIC_GAUGE_HELP = {
    "fabric_workers_alive": "Live local fabric worker processes.",
    "fabric_leases_active": "Leases currently held by workers.",
}


def _now() -> float:
    """The fabric's clock.

    Lease deadlines, expiry, heartbeats, stalls and point timeouts all
    read it, so a test can run leases on a faster clock by patching this
    one function (forked workers inherit the patch).
    """
    return time.time()


class QueueError(RuntimeError):
    """The queue directory is absent, foreign, or belongs to another sweep."""


@dataclass(frozen=True)
class FabricConfig:
    """Knobs for one fabric-mode sweep (``SweepRunner(fabric=...)``)."""

    queue_dir: str
    workers: int = 2            # local worker processes (0: external only)
    lease_ttl_s: float = 10.0   # heartbeat-extended lease lifetime

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("fabric workers must be >= 0")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")

    def for_batch(self, fingerprint: str) -> "FabricConfig":
        """The same knobs bound to a per-batch queue subdirectory (a
        queue belongs to one sweep; the service runs many batches)."""
        return dataclasses.replace(
            self, queue_dir=os.path.join(self.queue_dir, f"batch-{fingerprint[:16]}")
        )


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def chaos_coin(key: str, attempt: int) -> float:
    """Deterministic uniform coin for one (point, attempt) pair."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) / float(0xFFFFFFFF)


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed ``REPRO_SWEEP_CHAOS`` recipe (fabric-level modes only)."""

    mode: str
    args: tuple[str, ...] = ()

    @classmethod
    def from_env(cls) -> "ChaosPlan | None":
        recipe = os.environ.get(CHAOS_ENV, "").strip()
        if not recipe:
            return None
        parts = recipe.split(":")
        return cls(parts[0], tuple(parts[1:]))

    def num(self, index: int, default: float) -> float:
        try:
            return float(self.args[index])
        except (IndexError, ValueError):
            return default

    def fires(self, mode: str, key: str, attempt: int) -> bool:
        """Whether ``mode`` strikes this (point, attempt)."""
        return self.mode == mode and chaos_coin(key, attempt) < self.num(0, 1.0)


# ----------------------------------------------------------------------
# the lease table: every filesystem primitive the fabric is built on
# ----------------------------------------------------------------------
def _write_atomic(path: Path, blob: bytes, fsync: bool = True) -> None:
    """Write a file so a crash at any instant leaves the old or new one."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json_atomic(path: Path, payload, fsync: bool = True) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True).encode("utf-8"),
                  fsync)


def _result_of(event: dict):
    """The result a ``done`` event carries; None when absent or damaged."""
    try:
        return pickle.loads(base64.b64decode(event["result"]))
    except Exception:  # hostile or truncated bytes can raise nearly anything
        return None


def _read_json(path: Path):
    """Parse a JSON file; ``None`` when absent or torn."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class LeaseTable:
    """The durable state of one queue directory.

    Stateless between calls except for the loaded queue metadata: any
    number of :class:`LeaseTable` instances (one per worker process, one
    in the coordinator) operate on the same directory concurrently.
    Events are appended with a single ``write(2)`` on an ``O_APPEND``
    descriptor (whole lines, never interleaved bytes); leases and
    snapshots are atomic ``os.replace`` writes.  ``wake_fd`` (forked
    workers) is the coordinator's wake pipe.
    """

    def __init__(self, directory: str | Path, wake_fd: int | None = None):
        self.directory = Path(directory)
        self.meta: dict | None = None
        self.wake_fd = wake_fd

    # paths ------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / QUEUE_META

    @property
    def events_path(self) -> Path:
        return self.directory / EVENTS_FILE

    @property
    def leases_dir(self) -> Path:
        return self.directory / LEASES_DIR

    def lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.json"

    # queue lifecycle ---------------------------------------------------
    def seed(self, pending: list[tuple[str, object]], *, fingerprint: str,
             results_dir: str | None, settings: dict) -> bool:
        """Create the queue, or adopt an existing one for the same sweep.

        Returns ``True`` when an existing queue was adopted (a resume
        after a dead or drained coordinator); its settings become
        ``settings``.  A queue directory holding a *different* sweep
        raises :class:`QueueError` instead of silently mixing two point
        sets.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(exist_ok=True)
        (self.directory / WORKERS_DIR).mkdir(exist_ok=True)
        existing = _read_json(self.meta_path)
        if existing is not None:
            if existing.get("fingerprint") != fingerprint:
                raise QueueError(
                    f"queue {self.directory} already holds a different sweep "
                    f"(fingerprint {existing.get('fingerprint')!r}); use a "
                    f"fresh --fabric directory"
                )
            self.meta = dict(existing, settings=settings)
            self._extend_specs(pending)
            _write_json_atomic(self.meta_path, self.meta)
            return True
        _write_atomic(self.directory / SPECS_FILE, pickle.dumps(dict(pending)))
        self.meta = {
            "version": 1,
            "fingerprint": fingerprint,
            "keys": [key for key, _ in pending],
            "total": len(pending),
            "results_dir": results_dir and os.path.abspath(results_dir),
            "settings": settings,
            "created": time.time(),
        }
        _write_json_atomic(self.meta_path, self.meta)
        self.append({"ev": "seed", "total": len(pending)})
        return False

    def _extend_specs(self, pending: list[tuple[str, object]]) -> None:
        """On adoption: make sure every currently-pending spec is present."""
        specs = self.specs()
        missing = [(k, s) for k, s in pending if k not in specs]
        if missing:
            specs.update(missing)
            _write_atomic(self.directory / SPECS_FILE, pickle.dumps(specs))
            keys = list(self.meta.get("keys", ()))
            keys.extend(k for k, _ in missing if k not in keys)
            self.meta = dict(self.meta, keys=keys, total=len(keys))

    def load(self) -> dict:
        """Read the queue metadata (raises :class:`QueueError` if absent)."""
        meta = _read_json(self.meta_path)
        if meta is None or "keys" not in meta:
            raise QueueError(f"no sweep queue at {self.directory} "
                             f"(missing or unreadable {QUEUE_META})")
        self.meta = meta
        return meta

    def specs(self) -> dict:
        """The pickled key -> spec map seeded by the coordinator."""
        try:
            with open(self.directory / SPECS_FILE, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as err:
            raise QueueError(f"unreadable {SPECS_FILE} in {self.directory}: "
                             f"{err}") from err

    @property
    def settings(self) -> dict:
        return (self.meta or {}).get("settings", {})

    @property
    def ttl(self) -> float:
        return float(self.settings.get("lease_ttl_s", 10.0))

    def shard(self, key: str) -> int:
        """The content-derived shard id of one point (for live views)."""
        return shard_of(key, int(self.settings.get("shards") or 0))

    # event log ---------------------------------------------------------
    def append(self, event: dict) -> None:
        """Append one event as a whole line (O_APPEND, single write)."""
        payload = dict(event)
        payload.setdefault("ts", round(time.time(), 4))
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        fd = os.open(self.events_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def wake(self) -> None:
        """Poke the coordinator (forked workers), so it folds new events
        now instead of at its next scan.  Waking it for every event would
        preempt the worker as often: workers poke after each batch and
        each error."""
        if self.wake_fd is not None:
            try:
                os.write(self.wake_fd, b"\0")
            except OSError:
                pass  # pipe full (a wake-up is pending anyway) or closed

    def read_events(self, offset: int = 0) -> tuple[list[dict], int]:
        """Complete events after byte ``offset``, plus the new offset.

        Tolerates a torn tail (a writer caught mid-append): only lines
        terminated by a newline are parsed; the offset never advances
        past an incomplete line.
        """
        try:
            with open(self.events_path, "rb") as handle:
                handle.seek(offset)
                blob = handle.read()
        except OSError:
            return [], offset
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset
        events = []
        for line in blob[:end + 1].splitlines():
            if not line.strip():
                continue
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                continue  # foreign or damaged line: tolerate
        return events, offset + end + 1

    # leases -------------------------------------------------------------
    def lease_batch(self, keys: list[str], worker: str,
                    size: int) -> tuple[str, list[str]]:
        """Lease up to ``size`` of ``keys`` under one nonce and deadline.

        Each lease file of the batch is a hard link to one inode written
        once: linking is as exclusive as an ``O_EXCL`` create and several
        times cheaper.  Returns the batch's nonce and the keys leased.
        """
        nonce = uuid.uuid4().hex[:12]
        template = self.leases_dir / f"{nonce}.tmp"  # not a *.json lease
        template.write_text(json.dumps({"worker": worker, "nonce": nonce,
                                        "deadline": _now() + self.ttl}))
        leased = []
        try:
            for key in keys:
                if len(leased) == size:
                    break
                try:
                    os.link(template, self.lease_path(key))
                except FileExistsError:
                    continue  # held by someone else
                leased.append(key)
        finally:
            os.unlink(template)
        return nonce, leased

    def announce(self, lease: dict) -> None:
        """Append the ``claim`` event: the leased attempt starts now."""
        self.append({"ev": "claim", "key": lease["key"],
                     "worker": lease["worker"], "attempt": lease["attempt"],
                     "nonce": lease["nonce"], "shard": self.shard(lease["key"])})

    def read_lease(self, key: str) -> dict | None:
        return _read_json(self.lease_path(key))

    def owns(self, key: str, worker: str, nonce: str) -> dict | None:
        """The lease on ``key`` while it is still this holder's."""
        current = self.read_lease(key)
        if (current and current.get("worker") == worker
                and current.get("nonce") == nonce):
            return current
        return None

    def heartbeat(self, key: str, worker: str, nonce: str) -> bool:
        """Extend our lease; ``False`` when fenced out (lease reclaimed
        or re-leased to another worker).

        The lease is read and rewritten in place through one descriptor,
        so a renewal racing a reclaim or a replacement writes to the file
        it checked, now unlinked, and never brings the lease back.
        """
        try:
            with open(self.lease_path(key), "r+", encoding="utf-8") as handle:
                current = json.load(handle)
                if current.get("nonce") != nonce or current["worker"] != worker:
                    return False
                current["deadline"] = _now() + self.ttl
                handle.seek(0)
                handle.write(json.dumps(current, sort_keys=True))
                handle.truncate()
        except (OSError, ValueError, KeyError):
            return False
        return True

    def release(self, key: str, worker: str, nonce: str) -> None:
        """Drop our lease (a no-op when it is no longer ours)."""
        if self.owns(key, worker, nonce):
            try:
                os.unlink(self.lease_path(key))
            except OSError:
                pass

    def _leases(self) -> list:
        """``(dir entry, lease or None when unreadable)`` for every lease."""
        try:
            entries = list(os.scandir(self.leases_dir))
        except OSError:
            return []
        return [(entry, _read_json(Path(entry.path))) for entry in entries
                if entry.name.endswith(".json")]

    def _reclaim(self, entry, lease: dict, hold=None, **extra) -> dict:
        lease = dict(lease, key=entry.name[:-len(".json")])
        self.append({"ev": "expired", "key": lease["key"],
                     "worker": lease.get("worker", "unknown"),
                     "attempt": lease.get("attempt", 0),
                     "nonce": lease.get("nonce", ""), **extra})
        successor = hold(lease) if hold is not None else None
        try:
            if successor is None:
                os.unlink(entry.path)
            else:  # replaced in place: the point is never claimable between
                _write_json_atomic(Path(entry.path), successor, fsync=False)
        except OSError:
            pass
        return lease

    def reclaim_expired(self, now: float | None = None,
                        hold=None) -> list[dict]:
        """Expire every lease whose deadline has passed (coordinator only).

        An unreadable lease file (a holder killed mid-write) is expired
        by its mtime.  Each reclamation appends an ``expired`` event and
        unlinks the lease, making the point claimable again -- unless
        ``hold(lease)`` returns a lease to put in its place (the
        coordinator keeps a lost attempt's point until it has charged it).
        """
        now = _now() if now is None else now
        reclaimed = []
        for entry, lease in self._leases():
            if lease is None:
                try:
                    if entry.stat().st_mtime + self.ttl > time.time():
                        continue  # probably mid-write: give it a grace ttl
                except OSError:
                    continue
                lease = {"worker": "unknown", "nonce": "torn"}
            elif float(lease.get("deadline", 0.0)) > now:
                continue
            reclaimed.append(self._reclaim(entry, lease, hold))
        return reclaimed

    def reclaim_worker(self, worker: str, hold=None) -> list[dict]:
        """Immediately expire every lease held by a worker known to be
        dead (the coordinator reaped its process) or fenced out, without
        waiting for the deadline; ``hold`` as in :meth:`reclaim_expired`."""
        return [self._reclaim(entry, lease, hold, fast=True)
                for entry, lease in self._leases()
                if lease and lease.get("worker") == worker]

    def active_leases(self) -> int:
        try:
            return sum(1 for entry in os.scandir(self.leases_dir)
                       if entry.name.endswith(".json"))
        except OSError:
            return 0


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def _arm_kill9(chaos: ChaosPlan) -> None:
    """Chaos: schedule this worker's own SIGKILL (constant churn)."""
    import random

    delay = chaos.num(0, 0.5) + chaos.num(1, 0.5) * random.random()
    timer = threading.Timer(
        delay, lambda: os.kill(os.getpid(), signal.SIGKILL))
    timer.daemon = True
    timer.start()


class _Heartbeat:
    """Background renewal of every lease a worker holds.

    Renews each held lease once per ``interval_s`` on the fabric clock; a
    lease that is no longer ours drops out of ``held``.  Renewal and
    release share one lock, so a renewal never resurrects a released
    lease.  ``paused`` suspends renewals (stall-heartbeat chaos).
    """

    def __init__(self, table: LeaseTable, interval_s: float):
        self.table = table
        self.interval_s = interval_s
        self.held: dict[str, dict] = {}
        self.paused = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        due = _now() + self.interval_s
        while not self._stop.wait(TICK_S):
            if self.paused or _now() < due:
                continue
            with self._lock:
                for key, lease in list(self.held.items()):
                    if not self.table.heartbeat(key, lease["worker"],
                                                lease["nonce"]):
                        del self.held[key]
            due = _now() + self.interval_s

    def hold(self, leases: list[dict]) -> None:
        with self._lock:
            self.held.update((lease["key"], lease) for lease in leases)

    def drop(self, key: str) -> None:
        """Stop renewing ``key``, leaving its lease file in place."""
        with self._lock:
            self.held.pop(key, None)

    def release(self, lease: dict) -> None:
        """Drop a lease we still hold (idempotent)."""
        with self._lock:
            if self.held.pop(lease["key"], None) is not None:
                self.table.release(lease["key"], lease["worker"],
                                   lease["nonce"])

    def stop(self) -> None:
        self._stop.set()


class _LogView:
    """A worker's running view of the event log."""

    def __init__(self):
        self.done: set[str] = set()
        self.failed: set[str] = set()
        self.claims: dict[str, int] = {}
        self.live: set[str] = set()
        self.halted = False
        self.elapsed_s = 0.0
        self.timed = 0

    def fold(self, events: list[dict]) -> None:
        for event in events:
            kind = event.get("ev")
            key = event.get("key")
            if kind == "done":
                self.done.add(key)
                self.elapsed_s += float(event.get("elapsed") or 0.0)
                self.timed += 1
            elif kind == "claim":
                self.claims[key] = self.claims.get(key, 0) + 1
            elif kind == "quarantine":
                self.failed.add(key)
            elif kind == "worker-start":
                self.live.add(event.get("worker"))
            elif kind == "worker-exit":
                self.live.discard(event.get("worker"))
            elif kind in ("drain", "shutdown"):
                self.halted = True
            elif kind == "adopt":  # a new coordinator resumes the queue
                self.halted = False
                self.failed.clear()

    def batch_size(self, outstanding: int) -> int:
        """Points per lease: about BATCH_TARGET_S of work (one point until
        a per-point time is known), and at most a half share of the
        outstanding points (guided self-scheduling keeps the tail short)."""
        size = 1
        if self.timed:
            size = math.ceil(BATCH_TARGET_S * self.timed
                             / max(self.elapsed_s, 1e-6))
        share = math.ceil(outstanding / (2 * max(1, len(self.live))))
        return max(1, min(size, share))


def _torn_write(results_dir: str | None, key: str) -> None:
    """Chaos: emulate a pre-atomic writer dying mid-write, then die."""
    if results_dir is None:
        os.kill(os.getpid(), signal.SIGKILL)
    path = os.path.join(results_dir, f"{key}.pkl")
    with open(path, "wb") as handle:
        handle.write(pickle.dumps({"torn": True})[:7])  # truncated pickle
        handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def worker_main(queue_dir: str, worker_id: str | None = None,
                poll_s: float = POLL_S, wait_s: float = 10.0,
                log=None, generation: int = 0, *,
                wake_fd: int | None = None,
                parent_pid: int | None = None) -> int:
    """The fabric worker loop (``repro worker --queue DIR``).

    Joins the queue (waiting up to ``wait_s`` for a coordinator to seed
    it), then repeatedly leases a batch of unleased, unfinished points
    and runs them one by one under a heartbeat-extended lease, each
    reported by a ``done`` event that carries its result.  Exits 0 once
    the queue is drained or shut down, 2 when no queue appears.
    SIGINT/SIGTERM drain gracefully: the in-flight point is finished and
    recorded, the rest of the batch released.  A local worker passes the
    coordinator's ``wake_fd`` and the ``parent_pid`` that started it,
    and exits once that parent is gone.
    """
    emit = (log or print)
    stop = threading.Event()
    restore = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            restore[signum] = signal.signal(signum, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (in-process tests)
    try:
        table = LeaseTable(queue_dir, wake_fd=wake_fd)
        deadline = time.monotonic() + wait_s
        while True:
            try:
                meta, specs = table.load(), table.specs()
                break
            except QueueError as err:
                if time.monotonic() >= deadline:
                    emit(f"worker: {err}")
                    return 2
                time.sleep(min(0.1, poll_s))
        worker = worker_id or f"w{os.getpid()}"
        completed, reason = _work(table, meta, specs, worker, generation,
                                  stop, poll_s, parent_pid)
    finally:
        for signum, handler in restore.items():
            signal.signal(signum, handler)
    emit(f"worker {worker} exiting ({reason}): {completed} point(s) done")
    return 0


def _work(table: LeaseTable, meta: dict, specs: dict, worker: str,
          generation: int, stop: threading.Event, poll_s: float,
          parent_pid: int | None) -> tuple[int, str]:
    """Lease and run batches until nothing is left; (points done, reason)."""
    chaos = ChaosPlan.from_env()
    if chaos is not None and chaos.mode == "kill9":
        _arm_kill9(chaos)
    settings = table.settings
    heartbeat = _Heartbeat(table, float(settings.get("heartbeat_s")
                                        or table.ttl / 3.0))
    view = _LogView()
    sample_interval = settings.get("telemetry")

    def orphaned() -> bool:  # a forked worker's coordinator is gone
        return parent_pid is not None and os.getppid() != parent_pid

    table.append({"ev": "worker-start", "worker": worker, "pid": os.getpid(),
                  "generation": int(generation)})
    keys = list(meta["keys"])
    if keys:  # scan from a worker-specific offset to spread lease attempts
        start = int(hashlib.sha256(worker.encode()).hexdigest()[:8], 16)
        start %= len(keys)
        keys = keys[start:] + keys[:start]
    offset = 0
    completed = 0
    reason = None
    try:
        while reason is None:
            events, offset = table.read_events(offset)
            view.fold(events)
            outstanding = [key for key in keys if key not in view.done
                           and key not in view.failed]
            reason = ("signal" if stop.is_set()
                      else "orphaned" if orphaned()
                      else "halted" if view.halted
                      else "drained" if not outstanding else None)
            if reason is not None:
                break
            nonce, leased = table.lease_batch(
                outstanding, worker, view.batch_size(len(outstanding)))
            batch = [{"key": key, "worker": worker, "nonce": nonce,
                      "attempt": view.claims.get(key, 0) + 1}
                     for key in leased]
            if not batch:
                stop.wait(poll_s)  # everything is leased: wait for churn
                continue
            heartbeat.hold(batch)
            try:
                for lease in batch:
                    if stop.is_set() or orphaned():
                        break
                    if lease["key"] in heartbeat.held:  # not fenced out
                        completed += _run_point(
                            table, meta.get("results_dir"), specs[lease["key"]],
                            lease, chaos, heartbeat, sample_interval)
            finally:
                for lease in batch:
                    heartbeat.release(lease)
                table.wake()
    finally:
        heartbeat.stop()
    table.append({"ev": "worker-exit", "worker": worker,
                  "points": completed, "reason": reason})
    return completed, reason


def _run_point(table: LeaseTable, results_dir: str | None, spec, lease: dict,
               chaos: ChaosPlan | None, heartbeat: _Heartbeat,
               sample_interval: int | None) -> int:
    """Execute one leased point end to end; returns 1 on a ``done``."""
    key, worker, attempt = lease["key"], lease["worker"], lease["attempt"]
    nonce = lease["nonce"]
    stamp = {"key": key, "worker": worker, "attempt": attempt,
             "nonce": nonce, "shard": table.shard(key)}
    table.announce(lease)

    if chaos is not None and chaos.fires("stall-heartbeat", key, attempt):
        # no renewals: the lease expires mid-flight and the worker must
        # find itself fenced out instead of double-reporting
        heartbeat.paused = True
        try:
            until = _now() + chaos.num(1, 2.5 * table.ttl)
            while _now() < until and table.owns(key, worker, nonce):
                time.sleep(TICK_S)
            if not table.owns(key, worker, nonce):
                table.append(dict(stamp, ev="abandon", reason="fenced"))
                return 0
        finally:
            heartbeat.paused = False
        # lease survived (nobody reclaimed yet): carry on normally

    if chaos is not None and chaos.fires("slow", key, attempt):
        time.sleep(chaos.num(1, 0.75))
    if chaos is not None and chaos.fires("torn-write", key, attempt):
        _torn_write(results_dir, key)  # does not return
    context = None
    if sample_interval is not None:
        context = TelemetryContext(sample_interval=int(sample_interval),
                                   id_prefix=f"{worker}.{key[:12]}.a{attempt}.")
    status = _simulate_guarded(spec, context)
    payload = status[-1]
    if payload:
        stamp["tel"] = payload  # the attempt's spans and metrics
    # the lease is the coordinator's from here on: it unlinks a done
    # point's and holds a failed one's through the retry backoff
    heartbeat.drop(key)
    if status[0] == "ok":
        _, result, elapsed, _payload = status
        table.append(dict(stamp, ev="done", elapsed=round(elapsed, 6),
                          result=base64.b64encode(pickle.dumps(result))
                          .decode("ascii")))
        return 1
    _, message, traceback_text, _elapsed, _payload = status
    table.append(dict(stamp, ev="error", error=message, tb=traceback_text))
    table.wake()
    return 0


# ----------------------------------------------------------------------
# local worker processes
# ----------------------------------------------------------------------
def _local_worker(queue_dir: str, worker_id: str, generation: int,
                  log_path: str, wake_end, environ: dict | None) -> None:
    """A local worker process: log to ``log_path``, poke ``wake_end``,
    and exit once the process that started it is gone."""
    if environ is not None:  # a fork server's child starts from its own
        os.environ.clear()
        os.environ.update(environ)
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    sys.exit(worker_main(
        queue_dir, worker_id=worker_id, generation=generation,
        log=lambda line: os.write(1, (line + "\n").encode("utf-8")),
        wake_fd=wake_end.fileno(), parent_pid=os.getppid()))


def fork_server():
    """multiprocessing's fork-server context, preloaded with the fabric
    and running (the HTTP service starts it when it starts, so its first
    batch does not wait for the server's interpreter)."""
    import multiprocessing
    from multiprocessing import forkserver

    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    forkserver.ensure_running()
    return context


def _start_worker(queue_dir: str, worker_id: str, generation: int,
                  log_path: Path, wake: tuple[int, int]):
    """Start a local worker as a :class:`multiprocessing.Process`.

    A single-threaded coordinator forks it, so the child inherits every
    import and the loaded C kernel.  A fork of a process with other
    threads (the HTTP service) could deadlock on a lock one of them held,
    so there the worker comes from :func:`fork_server` instead.  Like any
    fork-server child it first imports the caller's ``__main__`` script,
    which must therefore guard its entry point.
    """
    import multiprocessing
    from multiprocessing.connection import Connection

    from repro.noc.backends import native

    native.available()  # build the C kernel once, before any child needs it
    forked = threading.active_count() == 1
    context = multiprocessing.get_context("fork") if forked else fork_server()
    wake_end = Connection(os.dup(wake[1]), readable=False)
    try:
        process = context.Process(
            target=_local_worker, name=worker_id, daemon=True,
            args=(str(queue_dir), worker_id, generation, str(log_path),
                  wake_end, None if forked else dict(os.environ)))
        process.start()
    finally:
        wake_end.close()
    return process


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class FabricStats:
    """Churn accounting for one fabric-mode sweep."""

    workers_spawned: int = 0
    worker_deaths: int = 0
    claims: int = 0
    expired: int = 0
    requeued: int = 0
    duplicates: int = 0
    errors: int = 0
    quarantined: int = 0
    per_worker: dict = field(default_factory=dict)  # worker -> points done

    def summary(self) -> str:
        died = f", {self.worker_deaths} died" if self.worker_deaths else ""
        extras = [f"{count} {what}" for count, what in (
            (self.duplicates, "duplicate completion(s) deduplicated"),
            (self.quarantined, "point(s) quarantined")) if count]
        return "; ".join([
            f"fabric: {self.workers_spawned} local worker(s) spawned{died}",
            f"leases: {self.claims} claimed / {self.expired} expired / "
            f"{self.requeued} requeued"] + ([", ".join(extras)] if extras
                                            else []))


class FabricCoordinator:
    """Seed, supervise and harvest one queue directory.

    Driven by :meth:`SweepRunner.run` for every parallel sweep, with the
    runner's ``max_retries``, ``point_timeout`` and ``retry_backoff_s``
    (the failure policy in the module docstring).
    """

    def __init__(self, config: FabricConfig, telemetry=None,
                 max_retries: int = 0, point_timeout: float | None = None,
                 retry_backoff_s: float = 0.0):
        self.config = config
        self.telemetry = telemetry
        self.max_retries = max_retries
        self.point_timeout = point_timeout
        self.retry_backoff_s = retry_backoff_s
        self.stats = FabricStats()

    # -- metrics helpers -------------------------------------------------
    def _bump(self, stat: str, counter: str) -> None:
        """Count one event on a FabricStats field and its metric."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(counter).inc()

    def _gauge(self, name: str, value, help_text: str = "", **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(name, help_text, **labels).set(value)

    # -- worker process management --------------------------------------
    def _launch(self, slot: int, generation: int, wake: tuple[int, int]):
        queue = self.config.queue_dir
        worker_id = f"w{slot}g{generation}"
        log_path = Path(queue) / WORKERS_DIR / f"{worker_id}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        proc = _start_worker(queue, worker_id, generation, log_path, wake)
        self._bump("workers_spawned", "fabric_worker_spawns_total")
        return {"proc": proc, "id": worker_id, "slot": slot,
                "generation": generation}

    # -- main loop -------------------------------------------------------
    def execute(self, pending, cache, complete, retry, fail, stop,
                fingerprint: str | None = None, started=None) -> FabricStats:
        """Run every ``(key, spec)`` in ``pending`` through the fabric.

        ``complete(key, result, elapsed, payload)``, ``retry(key, kind,
        payload)`` and ``fail(key, kind, error, tb, attempts, payload,
        history=...)`` are the runner's accounting closures (``payload``
        is the attempt's telemetry, or None); ``stop`` is a
        :class:`threading.Event` requesting a graceful drain (finish
        in-flight points, then return with the remainder unrun).
        ``fingerprint`` must identify the *whole* sweep (the runner
        passes its checkpoint-manifest fingerprint), not just the
        still-pending subset -- that is what lets a resumed sweep, whose
        pending set has shrunk, adopt the same queue directory.
        ``started(key)``, if given, hears of each attempt's claim.
        """
        config = self.config
        table = LeaseTable(config.queue_dir)
        from repro.noc.spec import stable_key

        keys = [key for key, _ in pending]
        telemetry = self.telemetry
        adopted = table.seed(
            pending,
            fingerprint=fingerprint or stable_key(tuple(sorted(keys))),
            results_dir=cache.directory,
            settings={
                "lease_ttl_s": config.lease_ttl_s,
                "heartbeat_s": config.lease_ttl_s / 3.0,
                "shards": SHARDS,
                "telemetry": (telemetry.sample_interval
                              if telemetry is not None else None),
            },
        )
        if telemetry is not None:
            telemetry.metrics.preregister(FABRIC_COUNTER_HELP,
                                          gauges=FABRIC_GAUGE_HELP)

        pending_keys = set(keys)
        completed: set[str] = set()
        failed: set[str] = set()
        history: dict[str, list] = {key: [] for key in keys}
        charged = dict.fromkeys(keys, 0)
        running: dict[str, dict] = {}  # key -> the started attempt
        # a failed attempt's lease passes to the coordinator, which frees
        # it once the retry backoff is over (at once for a failed point)
        holds: dict[str, float] = {}  # key -> when to free its lease
        started_workers: set[str] = set()
        stillborn = 0  # local workers that died before their worker-start
        hold_nonce = "hold-" + uuid.uuid4().hex[:8]
        stats = self.stats

        def settle(key: str, event: dict) -> dict | None:
            """End the running attempt ``event`` reports on, if current."""
            attempt = running.get(key)
            if attempt is None or attempt["nonce"] != event.get("nonce"):
                return None  # a fenced-out or earlier incarnation's attempt
            return running.pop(key)

        def backoff(attempts: int) -> float:
            return self.retry_backoff_s * 2 ** (attempts - 1)

        def hold_lease(key: str) -> dict:
            """The coordinator's lease on a failed point (outlasts its
            coming backoff, so only a successor coordinator expires it)."""
            return {"worker": "coordinator", "nonce": hold_nonce,
                    "deadline": _now() + table.ttl + backoff(charged[key] + 1)}

        def take(key: str, attempt: dict) -> None:
            """Replace a failed attempt's lease with the coordinator's."""
            if table.owns(key, attempt["worker"], attempt["nonce"]):
                _write_json_atomic(table.lease_path(key), hold_lease(key),
                                   fsync=False)

        def lost(lease: dict) -> dict | None:
            """``hold`` for reclaims: keep a started attempt's point."""
            attempt = running.get(lease["key"])
            if attempt is not None and attempt["nonce"] == lease.get("nonce"):
                return hold_lease(lease["key"])
            return None

        def charge(key: str, kind: str, error: str, tb, payload=None) -> None:
            charged[key] += 1
            if charged[key] <= self.max_retries:
                retry(key, kind, payload)
                holds[key] = _now() + backoff(charged[key])
                return
            table.append({"ev": "quarantine", "key": key, "kind": kind,
                          "attempts": charged[key]})
            holds[key] = _now()  # freed only now the quarantine is logged
            failed.add(key)
            self._bump("quarantined", "fabric_quarantined_total")
            fail(key, kind, error, tb, charged[key], payload,
                 history=history[key])

        def revoke(key: str, attempt: dict, reason: str) -> None:
            """Fence a holder that is still running out of its lease."""
            take(key, attempt)
            holds.setdefault(key, _now())
            table.append({"ev": "expired", "key": key, "reason": reason,
                          "worker": attempt["worker"],
                          "attempt": attempt["attempt"],
                          "nonce": attempt["nonce"]})

        def ingest(event: dict, replay: bool = False) -> None:
            """Fold one event; ``replay`` (an adopted queue's past) only
            harvests results and history, charging nothing."""
            kind = event.get("ev")
            key = event.get("key")
            worker = event.get("worker", "?")
            if key is not None and key not in pending_keys:
                return  # an earlier incarnation's point, already served
            entry = {"event": kind, "worker": worker, "ts": event.get("ts")}
            if kind == "claim":
                self._bump("claims", "fabric_lease_claims_total")
                history[key].append(dict(entry, attempt=event.get("attempt", 0)))
                attempt = {"worker": worker, "nonce": event.get("nonce"),
                           "attempt": event.get("attempt", 0),
                           "deadline": (_now() + self.point_timeout
                                        if self.point_timeout else None)}
                if key in failed:  # leased just before its quarantine landed
                    revoke(key, attempt, "failed")
                elif not replay and key not in completed:
                    running[key] = attempt
                    if started is not None:
                        started(key)
            elif kind == "done":
                running.pop(key, None)
                try:  # whoever holds it now, a done point needs no lease
                    os.unlink(table.lease_path(key))
                except OSError:
                    pass
                if key in completed:
                    self._bump("duplicates", "fabric_done_duplicates_total")
                    return
                if key in failed:
                    return
                result = _result_of(event)
                if result is None:  # a damaged event: leave it claimable
                    history[key].append(dict(entry, event="done-unreadable"))
                    return
                completed.add(key)
                stats.per_worker[worker] = stats.per_worker.get(worker, 0) + 1
                history[key].append(entry)
                complete(key, result, float(event.get("elapsed") or 0.0),
                         None if replay else event.get("tel"))
            elif kind == "error":
                self._bump("errors", "fabric_worker_errors_total")
                history[key].append(dict(entry, error=event.get("error"),
                                         tb=event.get("tb")))
                attempt = None if replay else settle(key, event)
                if attempt is None:  # stale: free the lease its worker left
                    table.release(key, worker, event.get("nonce", ""))
                else:
                    take(key, attempt)
                    charge(key, "error", event.get("error"), event.get("tb"),
                           event.get("tel"))
            elif kind == "expired":
                self._bump("expired", "fabric_lease_expired_total")
                if event.get("reason") != "timeout":  # recorded when fired
                    history[key].append(entry)
                if key not in completed and key not in failed:
                    self._bump("requeued", "fabric_requeued_total")
                if not replay and settle(key, event) is not None:
                    charge(key, "crash", f"{worker} died or stalled while "
                           f"running the point (lease lost)", None)
            elif kind == "abandon":
                history[key].append(entry)
            elif kind == "worker-start":
                started_workers.add(worker)

        # an adopted queue's past: harvest completions that landed after
        # the previous coordinator died; its leases are requeued uncharged
        events, offset = table.read_events(0)
        for event in events:
            ingest(event, replay=True)
        if adopted:
            table.append({"ev": "adopt"})
            table.reclaim_expired()

        wake = os.pipe()
        for fd in wake:
            os.set_blocking(fd, False)
        workers = [self._launch(slot, 0, wake) for slot in range(config.workers)]
        draining = False
        drain_deadline = 0.0
        next_scan = 0.0

        try:
            while True:
                events, offset = table.read_events(offset)
                for event in events:
                    ingest(event)
                work_left = bool(pending_keys - completed - failed)

                # reap dead local workers: reclaim their leases, replace them
                alive = []
                for info in workers:
                    code = info["proc"].exitcode
                    if code is None:
                        alive.append(info)
                    elif code != 0:
                        self._bump("worker_deaths", "fabric_worker_deaths_total")
                        table.reclaim_worker(info["id"], lost)
                        stillborn += info["id"] not in started_workers
                        if stillborn > 2 * config.workers and not started_workers:
                            raise RuntimeError(
                                "local fabric workers die before they start; "
                                "a script that runs parallel sweeps from a "
                                "thread needs `if __name__ == '__main__':`")
                        if work_left and not draining and not stop.is_set():
                            alive.append(self._launch(
                                info["slot"], info["generation"] + 1, wake))
                workers = alive

                now = _now()
                for key in [key for key, until in holds.items()
                            if until <= now]:
                    del holds[key]
                    table.release(key, "coordinator", hold_nonce)
                if now >= next_scan:
                    table.reclaim_expired(now, lost)
                    self._gauge("fabric_workers_alive", len(workers))
                    self._gauge("fabric_leases_active", table.active_leases())
                    next_scan = now + POLL_S

                # point timeouts: take the lease (which fences the holder
                # out), charge the attempt, requeue the holder's other
                # leases uncharged, and kill it if it is a local worker
                for key in [key for key, attempt in running.items()
                            if attempt["deadline"] is not None
                            and attempt["deadline"] <= now]:
                    attempt = running.pop(key)
                    worker = attempt["worker"]
                    history[key].append({"event": "timeout", "worker": worker,
                                         "ts": round(time.time(), 4)})
                    revoke(key, attempt, "timeout")
                    charge(key, "timeout", f"exceeded point_timeout="
                           f"{self.point_timeout}s on {worker}", None)
                    table.reclaim_worker(worker)
                    for info in workers:
                        if info["id"] == worker:
                            info["proc"].kill()

                if not work_left:
                    table.append({"ev": "shutdown"})
                    break
                if stop.is_set():
                    if not draining:
                        draining = True
                        table.append({"ev": "drain"})
                        drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
                        for info in workers:
                            info["proc"].terminate()
                    if not workers and table.active_leases() == 0:
                        break
                    if time.monotonic() >= drain_deadline:
                        break

                wait_s = min([POLL_S] + [until - now for until in holds.values()])
                if select.select([wake[0]], [], [], max(0.0, wait_s))[0]:
                    try:
                        while os.read(wake[0], 4096):
                            pass
                    except BlockingIOError:
                        pass
        finally:
            for info in workers:
                info["proc"].terminate()
            deadline = time.monotonic() + 5.0
            for info in workers:
                proc = info["proc"]
                proc.join(max(0.1, deadline - time.monotonic()))
                if proc.exitcode is None:
                    proc.kill()
                    proc.join(5.0)
                if proc.exitcode != 0:
                    table.reclaim_worker(info["id"])
            # final harvest once local workers are gone: late completions,
            # and the leases of points they finished after the sweep did
            events, offset = table.read_events(offset)
            for event in events:
                ingest(event)
            for key in holds:
                table.release(key, "coordinator", hold_nonce)
            for fd in wake:
                os.close(fd)
            for worker, points in stats.per_worker.items():
                self._gauge("fabric_worker_points", points,
                            "Points completed, per fabric worker.",
                            worker=worker)
        return stats


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------
@dataclass
class FabricAudit:
    """Replay of a queue's event log against its results on disk."""

    total: int
    done: int
    quarantined: int
    duplicates: int
    expired: int
    active_leases: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        """The machine-readable verdict (``repro fabric audit --json``)."""
        return {
            "ok": self.ok,
            "total": self.total,
            "done": self.done,
            "quarantined": self.quarantined,
            "duplicates": self.duplicates,
            "expired": self.expired,
            "active_leases": self.active_leases,
            "problems": list(self.problems),
        }

    def summary(self) -> str:
        lines = [
            f"fabric audit: {self.total} point(s), {self.done} done, "
            f"{self.quarantined} quarantined",
            f"  churn: {self.expired} lease expiries, "
            f"{self.duplicates} duplicate completion(s) (deduplicated)",
        ]
        if self.problems:
            lines.append(f"  VIOLATIONS ({len(self.problems)}):")
            lines.extend(f"    - {problem}" for problem in self.problems)
        else:
            lines.append("  invariants hold: every point done or "
                         "quarantined exactly once, no live leases, "
                         "every result loadable")
        return "\n".join(lines)


def audit_queue(queue_dir: str | Path,
                expect_complete: bool = True) -> FabricAudit:
    """Prove the fabric's invariants for one queue directory.

    Replays ``events.jsonl`` and checks, per seeded point: it is done or
    quarantined (never lost), it is counted at most once (duplicates are
    tolerated but tallied), its ``done`` event carries a loadable result,
    and no lease survived the sweep.  A queue adopted by
    a later coordinator is judged on its latest run: quarantines before
    the ``adopt`` event were retried.  Raises :class:`QueueError` when
    the directory is not a queue.
    """
    table = LeaseTable(queue_dir)
    meta = table.load()
    keys = list(meta["keys"])
    events, _ = table.read_events(0)
    seeds = 0
    done_counts: dict[str, int] = {}
    loadable: set[str] = set()
    quarantined: set[str] = set()
    expired = 0
    for event in events:
        kind = event.get("ev")
        if kind == "seed":
            seeds += 1
        elif kind == "done":
            done_counts[event["key"]] = done_counts.get(event["key"], 0) + 1
            if event["key"] not in loadable and _result_of(event) is not None:
                loadable.add(event["key"])
        elif kind == "quarantine":
            quarantined.add(event["key"])
        elif kind == "adopt":
            quarantined.clear()
        elif kind == "expired":
            expired += 1
    problems: list[str] = []
    if seeds != 1:
        problems.append(f"queue seeded {seeds} times (expected exactly once)")
    for key in keys:
        is_done = key in done_counts
        if not is_done and key not in quarantined and expect_complete:
            problems.append(f"point {key[:12]} lost: neither done nor "
                            f"quarantined")
        if is_done and key not in loadable:
            problems.append(f"point {key[:12]} done but no done event "
                            f"carries a loadable result")
    foreign = set(done_counts) - set(keys)
    if foreign:
        problems.append(f"{len(foreign)} completion(s) for keys never seeded")
    active = table.active_leases()
    if active and expect_complete:
        problems.append(f"{active} lease(s) still active after completion")
    return FabricAudit(
        total=len(keys),
        done=sum(1 for key in keys if key in done_counts),
        quarantined=len(quarantined & set(keys)),
        duplicates=sum(count - 1 for count in done_counts.values()
                       if count > 1),
        expired=expired,
        active_leases=active,
        problems=problems,
    )


__all__ = [
    "ChaosPlan",
    "FABRIC_COUNTER_HELP",
    "FABRIC_GAUGE_HELP",
    "FabricAudit",
    "FabricConfig",
    "FabricCoordinator",
    "FabricStats",
    "LeaseTable",
    "QueueError",
    "audit_queue",
    "chaos_coin",
    "worker_main",
]
