"""Worker side of the batch engine.

A worker process never receives a compiled function object — function
objects do not pickle, and shipping code objects across process
boundaries would tie the pool to one interpreter state.  Instead the
pool ships each kernel's *spec* (see
:meth:`repro.compiler.kernel.CompiledKernel.to_spec`) **once per
worker**: the first chunk of a kernel carries the spec, every later
chunk carries only its digest, and the worker resolves the digest
against its per-process spec cache.  The worker re-``exec``\\ s the
source once, memoizes the rebuilt artifact, and rebinds it to each
incoming dataset's shared-memory views (:mod:`repro.exec.shm` — no
tensor bytes are unpickled).

When a persistent kernel store is configured (``FL_KERNEL_STORE`` in
the environment workers inherit, or an explicit
:func:`repro.store.configure_store` under the fork start method), the
worker warm-starts from disk before rebuilding from the shipped spec:
a store hit loads the persisted entry, a miss rebuilds from the spec
and writes the entry behind — so the *next* fleet of workers, in any
future process, starts warm.

:func:`worker_main` is the long-lived loop :class:`repro.exec.pool.WorkerPool`
spawns; :func:`run_chunk` is the per-chunk engine, kept free of
process state so the hygiene tests can drive it in-process.
Everything here must stay importable at module top level so worker
processes can start under any start method (fork, spawn, forkserver).
"""

import os
import pickle
import time
from collections import OrderedDict

import numpy as np

#: Per-process memo of rebuilt artifacts, keyed by the spec's identity.
#: One worker re-``exec``\\ s each distinct kernel at most once, no
#: matter how many datasets of that kernel it is handed.  Bounded so a
#: long fuzz campaign against a persistent pool cannot grow a worker
#: without limit.
_ARTIFACTS = OrderedDict()
_ARTIFACT_MEMO_CAP = 256

#: Per-process spec cache, keyed by the digest the pool ships with
#: every chunk.  Filled the first time a kernel reaches this worker;
#: later chunks of the same kernel carry the digest only.
_SPECS = {}


def _spec_key(spec):
    """A hashable identity for one serialized artifact."""
    return (spec["name"], spec["source"], repr(spec["plan"]),
            spec["instrument"], spec["opt_level"],
            spec["constant_loop_rewrite"],
            spec.get("backend", "python"))


def artifact_from_spec(spec):
    """The rebuilt artifact for ``spec``, memoized per process.

    Returns ``(artifact, cached, store_hit, remote_hit)``: ``cached``
    says the re-``exec`` was skipped entirely (the per-worker memo
    hit); ``store_hit`` says the rebuild came off the persistent disk
    store rather than the shipped spec; ``remote_hit`` says it came
    off the fleet kernel service (consulted after a disk miss, when a
    service URL is configured — the worker inherits ``FL_SERVICE_URL``
    like every ``FL_*`` knob).  A miss writes the spec behind into the
    local store so future worker fleets warm-start; the *parent* owns
    the remote push, so a thousand workers never stampede the service
    with the same entry.
    """
    from repro.compiler.kernel import CompiledKernel
    from repro.store import active_store, meta_for_spec

    key = _spec_key(spec)
    artifact = _ARTIFACTS.get(key)
    if artifact is not None:
        _ARTIFACTS.move_to_end(key)
        return artifact, True, False, False
    store = active_store()
    meta = meta_for_spec(spec)
    store_hit = False
    remote_hit = False
    if store is not None:
        artifact = store.load_artifact(meta)
        store_hit = artifact is not None
    if artifact is None and spec.get("c_source"):
        # The worker already holds the spec (it shipped with the
        # chunk), so the remote tier is only worth a round-trip when
        # it can deliver what the spec cannot: the prebuilt ``.so``
        # sidecar, sparing this worker a local C-toolchain compile.
        from repro.service.client import active_client

        client = active_client()
        if client is not None:
            fetched = client.fetch(meta)
            if fetched is not None:
                from repro.compiler.kernel import _artifact_from_remote

                artifact = _artifact_from_remote(
                    fetched[0], fetched[1], store, meta)
                remote_hit = artifact is not None
    if artifact is None:
        artifact = CompiledKernel.from_spec(spec)
        if store is not None:
            # Write behind the freshly compiled .so too (if any), so
            # future worker fleets warm-start without a C compiler.
            store.save_spec(meta, spec, so_path=artifact.so_path)
    _ARTIFACTS[key] = artifact
    while len(_ARTIFACTS) > _ARTIFACT_MEMO_CAP:
        _ARTIFACTS.popitem(last=False)
    return artifact, False, store_hit, remote_hit


def snapshot_tensor(tensor):
    """A detached numpy copy of one output tensor's current value.

    Densifies through ``to_numpy`` when the tensor supports it (real
    tensors and output builders), falling back to the scalar ``value``
    protocol.  Snapshots — never live buffers — are what
    :class:`repro.exec.batch.BatchResult` hands back, so results
    compare bit-identically across executors.
    """
    to_numpy = getattr(tensor, "to_numpy", None)
    if to_numpy is not None:
        return np.array(to_numpy(), copy=True)
    return np.asarray(tensor.value)


def _pickle_exception(exc):
    """The exception as pipe-safe bytes, degrading to a RuntimeError
    carrying the original type name when the instance won't pickle."""
    try:
        return pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:
        fallback = RuntimeError(
            "%s: %s" % (type(exc).__name__, exc))
        return pickle.dumps(fallback, pickle.HIGHEST_PROTOCOL)


def run_chunk(chunk, cache, mark=None):
    """Run one chunk of datasets against shared-memory payloads.

    ``chunk`` carries the kernel digest (plus the spec itself on the
    first chunk a worker sees), the staging segment name, and one
    transport payload per dataset (:func:`repro.exec.shm.describe_args`).
    ``mark`` publishes the in-flight dataset index (the pool's crash
    attribution); ``cache`` is the worker's
    :class:`repro.exec.shm.SegmentCache`.

    Returns per-dataset results (ops, seconds, rebuild/store flags,
    post-run builder state for ``obj_outputs``) plus at most one error
    record; execution stops at the first failing dataset.  Transient
    segment attachments are released on normal completion and caught
    errors — but deliberately NOT while a ``SystemExit``/signal is
    tearing the process down, so the in-flight index stays published
    in the progress array for the pool's crash attribution.
    """
    from repro import chaos as _chaos
    from repro.exec import shm as _shm

    digest = chunk["digest"]
    if chunk.get("spec") is not None:
        _SPECS[digest] = chunk["spec"]
    spec = _SPECS.get(digest)
    worker = "pid-%d" % os.getpid()
    results = []
    error = None
    args = None
    index = None
    try:
        if spec is None:
            raise RuntimeError(
                "worker %s has no spec for digest %s (pool protocol "
                "error: specs ship with a kernel's first chunk)"
                % (worker, digest))
        for payload in chunk["datasets"]:
            index = payload["index"]
            if mark is not None:
                mark(index)
            try:
                if _chaos.active():
                    _chaos.inject("worker_crash", index=index)
                    _chaos.inject("worker_stall", index=index)
                    _chaos.inject("slow_chunk", index=index)
                start = time.perf_counter()
                artifact, cached, store_hit, remote_hit = \
                    artifact_from_spec(spec)
                args = _shm.build_args(payload, chunk.get("staging"),
                                       cache)
                result = artifact.fn(*args)
                seconds = time.perf_counter() - start
                results.append({
                    "index": index,
                    "ops": (int(result) if artifact.instrument
                            else None),
                    "worker": worker,
                    "seconds": seconds,
                    "spec_rebuild": not cached,
                    "store_hit": store_hit,
                    "remote_hit": remote_hit,
                    "obj_updates": {
                        j: dict(payload["objs"][j].__dict__)
                        for j in payload["obj_outputs"]},
                })
            finally:
                args = None
    except Exception as exc:
        error = {"index": index, "exc": _pickle_exception(exc)}
    # Not a finally: a SystemExit propagating through here must leave
    # the in-flight mark standing so the parent can attribute the
    # death to the right dataset.
    if mark is not None:
        mark(-1)
    cache.release_transient()
    if error is not None and error["index"] is None:
        first = chunk["datasets"][0]["index"] if chunk["datasets"] else 0
        error["index"] = first
    return {"worker": worker, "results": results, "error": error}


def worker_main(conn, progress_name, slot, nslots):
    """The long-lived loop of one :class:`repro.exec.pool.WorkerPool`
    worker: attach the pool's progress array, then serve chunk
    messages off the duplex pipe until shutdown or EOF.

    Messages travel as explicit pickle bytes (``send_bytes``) so the
    parent serializes exactly once and can meter the pickled payload
    size — the instrumentation that proves tensor data stays out of
    the pipe.
    """
    from repro.exec import shm as _shm

    cache = _shm.SegmentCache()
    progress = None
    if progress_name is not None:
        seg = cache.attach(progress_name, pinned=True)
        progress = seg.view(0, np.int64, (nslots, 2))

    def mark(value):
        # Column 0 is the in-flight dataset index (crash attribution);
        # column 1 is a heartbeat in monotonic microseconds (the
        # watchdog treats a stale heartbeat as a wedged worker).
        # Monotonic, never wall clock: CLOCK_MONOTONIC is system-wide
        # on Linux so the parent's time.monotonic() reads the same
        # clock, and an NTP step or clock slew can neither frame a
        # healthy worker as stalled nor blind the watchdog.
        if progress is not None:
            progress[slot, 0] = value
            progress[slot, 1] = int(time.monotonic() * 1e6)

    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            message = pickle.loads(data)
            if message.get("op") == "shutdown":
                break
            chaos_env = message.pop("chaos", None)
            if chaos_env is not None:
                from repro import chaos as _chaos

                _chaos.apply_env(chaos_env)
            reply = run_chunk(message, cache, mark)
            try:
                conn.send_bytes(
                    pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            except (BrokenPipeError, OSError):
                break
    finally:
        cache.close()
        try:
            conn.close()
        except OSError:
            pass
