"""Brute-force answers the benchmark checks every program output against.

Nothing here imports the program: the oracle is plain NumPy over the raw
factor rows, so a defect in the program's preprocessing, pruning or
serving cannot hide in its own reference.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Scores the program reports are products formed in another order (and,
#: for the base tier, in an orthogonally rotated basis) than NumPy's, so
#: they agree to rounding only.  Two scores closer than this many units
#: of ``|q| * max|p|`` count as a float tie.
REL_TOL = 1e-9

#: Rows of queries (or users) scored per GEMM while brute-forcing; bounds
#: the oracle's scratch memory to ``CHUNK * n_items`` doubles.
CHUNK = 256


def tolerance(q_norm: float, max_item_norm: float) -> float:
    """Absolute score tolerance for one query over one catalog."""
    return REL_TOL * max(q_norm * max_item_norm, 1e-300)


def brute_topk(queries: np.ndarray, items: np.ndarray, k: int,
               alive: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k ids and scores of every query row, best first.

    ``alive`` masks rows of ``items`` out of the catalog (removed items,
    unused capacity).  Returns ``(ids, scores)``, each ``(m, k)``.
    """
    m = queries.shape[0]
    ids = np.empty((m, k), dtype=np.int64)
    scores = np.empty((m, k), dtype=np.float64)
    for lo in range(0, m, CHUNK):
        block = queries[lo:lo + CHUNK] @ items.T
        if alive is not None:
            block[:, ~alive] = -np.inf
        part = np.argpartition(-block, k - 1, axis=1)[:, :k]
        part_scores = np.take_along_axis(block, part, axis=1)
        order = np.argsort(-part_scores, axis=1, kind="stable")
        ids[lo:lo + CHUNK] = np.take_along_axis(part, order, axis=1)
        scores[lo:lo + CHUNK] = np.take_along_axis(part_scores, order,
                                                   axis=1)
    return ids, scores


def check_topk(result_ids: Sequence[int], result_scores: Sequence[float],
               query: np.ndarray, items: np.ndarray,
               top_ids: np.ndarray, top_scores: np.ndarray, tol: float,
               alive: Optional[np.ndarray] = None) -> Optional[str]:
    """Compare one reported top-k with the brute-force one.

    ``top_ids``/``top_scores`` are the oracle's answer (best first) and
    its length is the k the program was asked for.  Ids must agree up to
    float ties at the k-th score: every reported id must score within
    ``tol`` of the k-th best or above it, every oracle id scoring more
    than ``tol`` above the k-th best must be reported, and each reported
    score must equal the id's true score within ``tol``.  Returns
    ``None`` when the answer is right, else a one-line reason.
    """
    ids = np.asarray(result_ids, dtype=np.int64)
    reported = np.asarray(result_scores, dtype=np.float64)
    k = len(top_ids)
    if len(ids) != k or len(reported) != k:
        return f"returned {len(ids)} ids and {len(reported)} scores, want {k}"
    if len(set(ids.tolist())) != k:
        return "duplicate ids"
    if ids.min() < 0 or ids.max() >= items.shape[0]:
        return "id outside the catalog"
    if alive is not None and not alive[ids].all():
        return f"removed or unknown id {int(ids[~alive[ids]][0])}"
    true = items[ids] @ query
    bad = np.abs(true - reported) > tol
    if bad.any():
        i = int(np.argmax(bad))
        return (f"wrong score for id {int(ids[i])}: reported "
                f"{reported[i]!r}, true {true[i]!r}")
    if np.any(np.diff(reported) > tol):
        return "scores not in descending order"
    kth = float(top_scores[-1])
    low = true < kth - tol
    if low.any():
        return (f"wrong id {int(ids[np.argmax(low)])}: scores "
                f"{true[np.argmax(low)]!r} below the k-th best {kth!r}")
    must = set(top_ids[top_scores > kth + tol].tolist())
    missing = must - set(ids.tolist())
    if missing:
        return f"missing id {min(missing)} of the exact top-k"
    return None


def check_audience(audience: Iterable[int], item: int, users: np.ndarray,
                   items: np.ndarray, alive: np.ndarray,
                   k: int) -> Optional[str]:
    """Compare one reverse-MIPS audience with brute-force membership.

    A user belongs to the audience of ``item`` when ``item`` is in the
    user's exact forward top-k over the ``alive`` catalog.  A user whose
    decision turns on a float tie at its k-th score may go either way;
    every other user must be decided as the oracle decides.  Returns
    ``None`` when the audience is right, else a one-line reason.
    """
    if not alive[item]:
        return f"probe {item} is not in the catalog"
    reported = set(int(u) for u in audience)
    if reported and (min(reported) < 0 or max(reported) >= users.shape[0]):
        return "audience names a user outside the corpus"
    live = items[alive]
    max_norm = float(np.linalg.norm(live, axis=1).max())
    user_norms = np.linalg.norm(users, axis=1)
    for lo in range(0, users.shape[0], CHUNK):
        block = users[lo:lo + CHUNK] @ live.T
        own = (users[lo:lo + CHUNK] @ items[item])[:, None]
        tol = (REL_TOL * np.maximum(user_norms[lo:lo + CHUNK] * max_norm,
                                    1e-300))[:, None]
        above = np.count_nonzero(block > own + tol, axis=1)
        # ``at_least`` counts the probe itself, so ``at_least <= k`` means
        # the probe is in the top-k however the ties break.
        at_least = np.count_nonzero(block >= own - tol, axis=1)
        for user in np.flatnonzero(at_least <= k) + lo:
            if int(user) not in reported:
                return f"user {user} missing from the audience of {item}"
        for user in np.flatnonzero(above >= k) + lo:
            if int(user) in reported:
                return f"user {user} wrongly in the audience of {item}"
    return None


class CatalogMirror:
    """The benchmark's own copy of a live catalog, kept through writes.

    Rows are stored by the id the program assigned them; ``alive`` marks
    the rows currently in the catalog.  Every mutation starts a new
    catalog version and keeps that version's mask, so an answer taken at
    any version can be checked after the run.
    """

    def __init__(self, items: np.ndarray, capacity: int):
        n, d = items.shape
        self.rows = np.zeros((max(capacity, n), d))
        self.rows[:n] = items
        self.alive = np.zeros(self.rows.shape[0], dtype=bool)
        self.alive[:n] = True
        self._used = self.alive.copy()
        self._masks: List[np.ndarray] = [self.alive.copy()]

    @property
    def version(self) -> int:
        """Index of the current catalog version (0 before any write)."""
        return len(self._masks) - 1

    def mask(self, version: int) -> np.ndarray:
        """The ``alive`` mask as it stood at ``version``."""
        return self._masks[version]

    def live_ids(self) -> np.ndarray:
        """Ids currently in the catalog, ascending."""
        return np.flatnonzero(self.alive)

    def add(self, ids: Sequence[int], rows: np.ndarray) -> Optional[str]:
        """Record that the program stored ``rows`` under ``ids``.

        Returns a reason when the ids the program assigned cannot be
        right: the wrong count, repeated, or an id used before.
        """
        ids = [int(i) for i in ids]
        if len(ids) != len(rows) or len(set(ids)) != len(ids):
            return f"add returned {len(ids)} ids for {len(rows)} rows"
        for i in ids:
            if not 0 <= i < self.rows.shape[0] or self._used[i]:
                return f"add returned id {i}, already used or out of range"
        self.rows[ids] = rows
        self._used[ids] = True
        self.alive[ids] = True
        self._masks.append(self.alive.copy())
        return None

    def remove(self, ids: Sequence[int], removed: int) -> Optional[str]:
        """Record the removal of live ``ids``; ``removed`` is the
        program's count of rows it removed."""
        ids = [int(i) for i in ids]
        want = int(self.alive[ids].sum())
        self.alive[ids] = False
        self._masks.append(self.alive.copy())
        if removed != want:
            return f"remove reported {removed} rows removed, want {want}"
        return None
