"""Span tracing of samecluster's public entry points, installed from outside.

Each traced function is replaced, at every place a caller looks it up, by a
wrapper that records one span: (name, start, end, parent span, work count,
accepted count, ledger delta, bench phase). Callers inside the package hold
their own references (`from .oracle import check_cluster`, the harness's
`_RUNNERS` table, ...), so installation searches every samecluster module
namespace, and every dict at module level, for the original function
object and patches each hit. The per-query `OracleSession.same_cluster` is
never wrapped; query counts come from ledger deltas across a span.

Spans are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

import numpy as np


def _arg(i, key):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs.get(key)
    return get


def _session_of_self(args, kwargs):
    return args[0].session


def _size_arg(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["size"])


def _len_arg1(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["xs"])


def _fill_n(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _rej_counts(args, kwargs, result):
    """(draws, newly accepted) of a rej_samp call or its QuotaUnreachable."""
    if isinstance(result, BaseException):
        draws = getattr(result, "draws", 0)
        acc = getattr(result, "accepted", None) or {}
    else:
        acc, draws, _ = result
    pre = kwargs.get("preaccepted") or {}
    got = sum(len(v) for v in acc.values()) - sum(len(v) for v in pre.values())
    return int(draws), int(got)


def _record_queries(args, kwargs, result):
    return None if isinstance(result, BaseException) else int(result.queries)


# (span name = module.attribute path, session getter, work counter)
# A work counter returns the draws/items count, or (draws, accepted) for
# rejection sampling. run_one_trial owns its session, so its queries come
# from the returned record instead of a ledger delta.
SPECS = (
    ("sampling.add_center", None, None),
    ("sampling.d2_sample_batch", None, _size_arg),
    ("sampling.rej_samp", _arg(1, "session"), _rej_counts),
    ("oracle.classify_batch", _arg(0, "session"), _len_arg1),
    ("oracle.peek_classify", None, _len_arg1),
    ("oracle.commit_classify", _arg(0, "session"), None),
    ("oracle.check_cluster", _arg(0, "session"), None),
    ("recovery.run_uniform", _arg(1, "session"), None),
    ("recovery.run_basic_simplified", _arg(1, "session"), None),
    ("recovery.run_improved_simplified", _arg(1, "session"), None),
    ("recovery.run_basic", _arg(1, "session"), None),
    ("recovery.run_improved", _arg(1, "session"), None),
    ("recovery.RunState.draw_classified_fill", _session_of_self, _fill_n),
    ("noisy.run_noisy", _arg(1, "session"), None),
    ("noisy.find_clusters", _arg(1, "session"), None),
    ("geometry.centroid_error", None, None),
    ("synthgen.generate", None, None),
    ("datasets.load", None, None),
    ("harness.run_one_trial", None, None),
)

SPAN_NAMES = tuple(s[0] for s in SPECS)
PHASES = ("setup", "pass", "repeat", "parity")


class Tracer:
    """Records spans while installed; leaving `installed` restores every patched site.

    Spans accumulate across installations, each tagged with its phase.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.accepted = array("q")
        self.queries = array("q")
        self.phase_of = array("b")
        self.phase = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.sites: dict[str, int] = {}

    @contextlib.contextmanager
    def installed(self, phase: str):
        self.phase = PHASES.index(phase)
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- installation ------------------------------------------------------

    def _install(self):
        import samecluster  # noqa: F401  (loads every submodule)
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "samecluster" or n.startswith("samecluster."))]
        for nid, (name, sess, work) in enumerate(SPECS):
            mod, *cls, attr = name.split(".")
            owner = sys.modules["samecluster." + mod]
            if cls:
                owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(nid, orig, sess, work), False)
                self.sites[name] = 1
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig, sess, work)
            hits = 0
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper, False)
                        hits += 1
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._patch(val, k2, wrapper, True)
                                hits += 1
            self.sites[name] = hits

    def _patch(self, owner, key, new, is_dict: bool):
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, new)

    def _uninstall(self):
        for owner, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def _wrap(self, nid: int, fn, session_of, work_of):
        stack = self._stack
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sess = session_of(args, kwargs) if session_of is not None else None
            q0 = sess.ledger if sess is not None else 0
            # Slots are taken on entry, so spans are stored in start order
            # and a child's parent index is already valid.
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(stack[-1] if stack else -1)
            t.phase_of.append(t.phase)
            for col in (t.start, t.end):
                col.append(0.0)
            for col in (t.work, t.accepted, t.queries):
                col.append(0)
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                result = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                t.start[idx] = t0
                t.end[idx] = t1
                if work_of is not None:
                    got = work_of(args, kwargs, result)
                    t.work[idx], t.accepted[idx] = (
                        got if isinstance(got, tuple) else (got, 0))
                if sess is not None:
                    t.queries[idx] = sess.ledger - q0
                elif nid == _RUN_ONE_TRIAL:
                    t.queries[idx] = _record_queries(args, kwargs, result) or 0

        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "work": np.frombuffer(self.work, dtype=np.int64),
            "accepted": np.frombuffer(self.accepted, dtype=np.int64),
            "queries": np.frombuffer(self.queries, dtype=np.int64),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8),
            "dur": dur,
            "self": dur - child,
        }

    def summary(self, phases=("setup", "pass")) -> dict[str, dict[str, float]]:
        """Per span name: calls, s, self_s, work, accepted, queries."""
        a = self.arrays()
        keep = np.isin(a["phase"], [PHASES.index(p) for p in phases])
        out = {}
        for nid, name in enumerate(self.names):
            m = keep & (a["name"] == nid)
            out[name] = {
                "calls": int(m.sum()),
                "s": float(a["dur"][m].sum()),
                "self_s": float(a["self"][m].sum()),
                "work": int(a["work"][m].sum()),
                "accepted": int(a["accepted"][m].sum()),
                "queries": int(a["queries"][m].sum()),
            }
        return out

    def write(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), phases=np.array(PHASES),
                 **{k: a[k] for k in ("name", "start", "end", "parent", "work",
                                      "accepted", "queries", "phase")})


_RUN_ONE_TRIAL = SPAN_NAMES.index("harness.run_one_trial")
