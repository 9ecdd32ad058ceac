"""CSV and JSON artifacts: points, edge lists, filters, signals,
experiment curves and round logs.

All writes are atomic (temp file in the target directory, then rename), so
a crashed run never leaves a half-written artifact, and a file gets the
mode a plain open(path, "w") would give it. Floats are written with repr,
which round-trips exactly through float(). The round log's text is the
same repr text; it comes from orjson's shortest round-trip formatting
(Ryu) in the zones where that notation equals repr's, and from repr
elsewhere.
"""

from __future__ import annotations

import json
import math
import os
from itertools import groupby
from operator import itemgetter

import numpy as np
import scipy.sparse as sparse

from .filters import GraphFilter, Signal
from .graphs import Graph

__all__ = [
    "IngestError",
    "atomic_write_text",
    "read_points_csv",
    "write_points_csv",
    "write_edges_csv",
    "read_edges_csv",
    "read_filter_csv",
    "read_signal_csv",
    "write_curves_csv",
    "write_roundlog_csv",
    "write_summary_json",
]


class IngestError(ValueError):
    """Malformed input file; the message carries the offending line number."""


def _fmt(x) -> str:
    return repr(float(x))


def _finite(text: str) -> float:
    """float(text), rejecting nan and inf; callers add path:line."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value


def _vertex_id(text: str, n: int) -> int:
    """int(text), rejecting ids outside 0..n-1; callers add path:line."""
    i = int(text)
    if not 0 <= i < n:
        raise ValueError(f"vertex id {i} outside 0..{n - 1}")
    return i


def _records(path: str, lines, start: int, width: int, parse):
    """(lineno, parse(*fields)) for each nonblank line of lines, the first
    numbered start, one at a time as the caller asks, so that the caller's
    own checks of a line run before the next line is read. A line without
    `width` comma-separated fields, or whose stripped fields parse rejects
    with ValueError, raises IngestError at its path:line."""
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != width:
            raise IngestError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        try:
            record = parse(*parts)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        yield lineno, record


# write buffer of the temp file: a streamed round log reaches the kernel in
# writes of this size, not one per round
_WRITE_BUFFER = 256 * 1024


def atomic_write_text(path: str, text) -> None:
    """Write a string, or an iterable of string chunks, atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # mode 0o666 less the umask, as open(path, "w") creates a file;
    # tempfile.mkstemp would give 0o600
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", buffering=_WRITE_BUFFER) as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# points: header id,x,y[,value], ids contiguous from 0
# ---------------------------------------------------------------------------


def read_points_csv(path: str):
    """Read a points file and return (coordinates, values-or-None)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise IngestError(f"{path}:1: empty points file")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:3] != ["id", "x", "y"] or header not in (
        ["id", "x", "y"], ["id", "x", "y", "value"]
    ):
        raise IngestError(
            f"{path}:1: expected header 'id,x,y' or 'id,x,y,value', got {lines[0]!r}"
        )
    has_value = len(header) == 4
    rows = [(*row, lineno) for lineno, row in _records(
        path, lines[1:], 2, len(header),
        lambda i, x, y, *v: (int(i), _finite(x), _finite(y), *map(_finite, v)))]
    if not rows:
        raise IngestError(f"{path}:2: no data rows")
    seen = set()
    for ident, *_, lineno in rows:
        if ident in seen or not 0 <= ident < len(rows):
            raise IngestError(f"{path}:{lineno}: vertex id {ident} repeated or out of "
                              f"sequence; ids must be exactly 0..{len(rows) - 1} with no gaps")
        seen.add(ident)
    rows.sort(key=lambda r: r[0])
    coords = np.array([[r[1], r[2]] for r in rows])
    values = np.array([r[3] for r in rows]) if has_value else None
    return coords, values


def write_points_csv(path: str, coords, values=None) -> None:
    coords = np.asarray(coords, dtype=np.float64)
    out = ["id,x,y,value" if values is not None else "id,x,y"]
    for i in range(coords.shape[0]):
        row = f"{i},{_fmt(coords[i, 0])},{_fmt(coords[i, 1])}"
        if values is not None:
            row += f",{_fmt(values[i])}"
        out.append(row)
    atomic_write_text(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# edge lists: header i,j with i < j
# ---------------------------------------------------------------------------


def write_edges_csv(path: str, g: Graph) -> None:
    out = ["i,j"]
    out.extend(f"{i},{j}" for i, j in g.edges())
    atomic_write_text(path, "\n".join(out) + "\n")


def read_edges_csv(path: str):
    """Return (n, edges), n inferred as max id + 1."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "i,j":
        raise IngestError(f"{path}:1: expected header 'i,j'")
    edges = []
    for lineno, (i, j) in _records(path, lines[1:], 2, 2, lambda i, j: (int(i), int(j))):
        if not 0 <= i < j:
            raise IngestError(f"{path}:{lineno}: edges must satisfy 0 <= i < j")
        edges.append((i, j))
    if not edges:
        raise IngestError(f"{path}:2: no edges")
    return max(j for _, j in edges) + 1, edges


# ---------------------------------------------------------------------------
# filters: one-line metadata header, then i,j,value triplets
# ---------------------------------------------------------------------------


def read_filter_csv(path: str, graph: Graph) -> GraphFilter:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# n="):
        raise IngestError(f"{path}:1: expected metadata header '# n=... width=...'")
    try:
        meta = dict(tok.split("=") for tok in lines[0][2:].split())
        n = int(meta["n"])
        width = int(meta["width"])
    except (ValueError, KeyError) as exc:
        raise IngestError(f"{path}:1: bad metadata header: {exc}") from None
    if n != graph.n:
        raise IngestError(f"{path}: filter is for n={n}, graph has n={graph.n}")
    if lines[1].strip() != "i,j,value":
        raise IngestError(f"{path}:2: expected header 'i,j,value'")
    entries = {}
    for lineno, (i, j, v) in _records(path, lines[2:], 3, 3, lambda i, j, v: (
            _vertex_id(i, n), _vertex_id(j, n), _finite(v))):
        if (i, j) in entries:
            raise IngestError(f"{path}:{lineno}: duplicate entry ({i}, {j})")
        entries[i, j] = v
    ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    h = GraphFilter(graph, sparse.coo_matrix((list(entries.values()), ij.T), shape=(n, n)))
    if h.width != width:
        raise IngestError(
            f"{path}: recorded width {width} does not match entries "
            f"(actual {h.width})"
        )
    return h


# ---------------------------------------------------------------------------
# signals and diagonals: id,value
# ---------------------------------------------------------------------------


def read_signal_csv(path: str, graph: Graph) -> Signal:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "id,value":
        raise IngestError(f"{path}:1: expected header 'id,value'")
    values = np.zeros(graph.n)
    seen = set()
    for lineno, (i, value) in _records(path, lines[1:], 2, 2,
                                       lambda i, v: (_vertex_id(i, graph.n), _finite(v))):
        if i in seen:
            raise IngestError(f"{path}:{lineno}: duplicate vertex id {i}")
        seen.add(i)
        values[i] = value
    if len(seen) != graph.n:
        raise IngestError(f"{path}: expected {graph.n} rows, got {len(seen)}")
    return Signal(graph, values)


# ---------------------------------------------------------------------------
# experiment artifacts
# ---------------------------------------------------------------------------


def write_curves_csv(path: str, curves: dict) -> None:
    """curves maps method -> per-iteration mean metric array."""
    out = ["method,m,mean_metric"]
    for method in curves:
        for m, v in enumerate(curves[method]):
            out.append(f"{method},{m},{_fmt(v)}")
    atomic_write_text(path, "\n".join(out) + "\n")


# orjson writes repr's text for |x| below _REPR_BELOW (zero and two-digit
# negative exponents) and in [_REPR_FROM, _REPR_UNTIL) (positional
# notation); outside them it writes 1.5e-6, 0.0000418, 1e16 and null
# where repr writes 1.5e-06, 4.18e-05, 1e+16 and nan or inf
_REPR_BELOW, _REPR_FROM, _REPR_UNTIL = 1e-9, 1e-4, 1e16
# values formatted per orjson.dumps call: 16 rounds of an n=64 network.
# One call per round costs more in numpy overhead; larger batches are no
# faster and hold more strings at once
_DUMPS_VALUES = 1024


def _float_texts(values) -> list:
    """[repr(float(x)) for x in values], formatted by one orjson.dumps
    call, with repr kept for the values outside orjson's repr zones."""
    # imported here, so that a run which writes no round log does not load it
    import orjson
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    a = np.abs(values)
    other = np.flatnonzero(~((a < _REPR_BELOW) | ((a >= _REPR_FROM) & (a < _REPR_UNTIL))))
    for i, x in zip(other.tolist(), values[other].tolist()):
        texts[i] = repr(x)
    return texts


def _sender_runs(senders: np.ndarray, receivers: np.ndarray):
    """([s per run], [["s,t," per message] per run]) for each contiguous run
    of equal sender. Every run but the last ends in an empty field, so its
    join ends with the separator that starts the next run's first row."""
    runs = [(s, [f"{s},{t}," for _, t in run]) for s, run in
            groupby(zip(senders.tolist(), receivers.tolist()), key=itemgetter(0))]
    for _, fields in runs[:-1]:
        fields.append("")
    return [s for s, _ in runs], [fields for _, fields in runs]


def write_roundlog_csv(path: str, logs) -> None:
    """One row per logged message of each network's `sdn.MessageLog`,
    streamed one batch of rounds at a time.

    A network's rounds share its (senders, receivers) pattern, so its
    sender runs are built once. Its rounds are sliced into batches of at
    least _DUMPS_VALUES sent values, each formatted by one _float_texts
    call. Message k of a round carries sent[senders[k]], so a run of
    messages from one sender shares its value: the run is one str.join of
    its prebuilt "s,t," fields with the separator "kind,value\nepoch,round,",
    which ends each row and starts the next. Each round is one chunk; the
    file's write buffer batches them."""
    def chunks():
        yield "epoch,round,from,to,kind,value\n"
        for log in logs:
            run_senders, run_fields = _sender_runs(log.senders, log.receivers)
            if not run_senders or not log.sent:
                continue
            n = log.sent[0].size
            step = -(-_DUMPS_VALUES // n)
            for first in range(0, len(log.sent), step):
                texts = _float_texts(np.concatenate(log.sent[first:first + step]))
                for i, kind in enumerate(log.kinds[first:first + step]):
                    head, sent = f"{log.epoch},{first + i},", texts[i * n:(i + 1) * n]
                    seps = [f"{kind},{sent[s]}\n{head}" for s in run_senders]
                    yield "".join([head, *map(str.join, seps, run_fields),
                                   seps[-1][:-len(head)]])
    atomic_write_text(path, chunks())


def write_summary_json(path: str, summary: dict) -> None:
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
