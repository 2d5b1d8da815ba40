"""Line-oriented text format for programs, executions, views and records.

Grammar (UTF-8, `#` starts a comment, blank lines ignored):

    process <pid>: <op> <op> ...      op ::= w(<var>)#<id> | r(<var>)#<id>
    view <pid>: <id> <id> ...         one per process, total order listing
    reads: <rid><-<wid> ...           explicit writes-to; may be empty
    record <pid>: <id>-><id> ...      record files only

Listing order defines program order.  A missing `reads:` line with views
present means the writes-to relation is derived from the views; a read
absent from the map read the initial value.  Serialisation is canonical,
so parse(serialize(x)) round-trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from causalrnr.errors import ParseError, SemanticError
from causalrnr.model import (
    Execution,
    Operation,
    Program,
    View,
    ViewSet,
    derive_writes_to,
)
from causalrnr.records import Record

_OP_TOKEN = re.compile(r"^([rw])\(([A-Za-z0-9_.]+)\)#([A-Za-z0-9_.]+)$")
_ID_TOKEN = re.compile(r"^[A-Za-z0-9_.]+$")
_READ_TOKEN = re.compile(r"^([A-Za-z0-9_.]+)<-([A-Za-z0-9_.]+)$")
_EDGE_TOKEN = re.compile(r"^([A-Za-z0-9_.]+)->([A-Za-z0-9_.]+)$")


@dataclass(frozen=True)
class ParsedExecution:
    program: Program
    execution: Execution
    views: ViewSet | None


_COMMENT = re.compile(r"(?:^|\s)#.*$")


def _tokenize(text: str):
    """Yield (line_no, col, token) triples, with comments stripped.

    A comment starts at a `#` at line start or after whitespace; the `#`
    inside operation tokens like `w(x)#id` does not open one.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw)
        col = 1
        for token in line.split():
            col = raw.index(token, col - 1) + 1
            yield line_no, col, token
            col += len(token)
        yield line_no, len(raw) + 1, "\n"


def _lines(text: str):
    current: list[tuple[int, int, str]] = []
    for line_no, col, token in _tokenize(text):
        if token == "\n":
            if current:
                yield current
                current = []
        else:
            current.append((line_no, col, token))


def parse_execution(text: str) -> ParsedExecution:
    listing: dict[int, list[Operation]] = {}
    view_lists: dict[int, list[str]] = {}
    reads: dict[str, str] | None = None
    for tokens in _lines(text):
        line_no, col, head = tokens[0]
        if head == "process":
            pid = _parse_pid(tokens, "process")
            if pid in listing:
                raise SemanticError(f"duplicate process {pid}")
            ops = []
            for ln, c, tok in tokens[2:]:
                m = _OP_TOKEN.match(tok)
                if not m:
                    raise ParseError(f"malformed operation token {tok!r}", ln, c)
                kind, var, op_id = m.groups()
                ops.append(Operation(kind, pid, var, op_id))
            listing[pid] = ops
        elif head == "view":
            pid = _parse_pid(tokens, "view")
            if pid in view_lists:
                raise SemanticError(f"duplicate view for process {pid}")
            ids = []
            for ln, c, tok in tokens[2:]:
                if not _ID_TOKEN.match(tok):
                    raise ParseError(f"malformed view token {tok!r}", ln, c)
                ids.append(tok)
            view_lists[pid] = ids
        elif head == "reads:":
            if reads is not None:
                raise SemanticError("duplicate reads line")
            reads = {}
            for ln, c, tok in tokens[1:]:
                m = _READ_TOKEN.match(tok)
                if not m:
                    raise ParseError(f"malformed reads token {tok!r}", ln, c)
                rid, wid = m.groups()
                if rid in reads:
                    raise SemanticError(f"duplicate writes-to entry for {rid}")
                reads[rid] = wid
        elif head == "record":
            raise ParseError("record lines belong in record files", line_no, col)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, col)
    if not listing:
        raise SemanticError("no process lines found")
    try:
        program = Program.of(listing)
    except ValueError as exc:
        raise SemanticError(str(exc)) from exc

    views = None
    if view_lists:
        if set(view_lists) != set(program.processes):
            raise SemanticError("views must cover exactly the declared processes")
        built = []
        for pid in sorted(view_lists):
            seq = view_lists[pid]
            expected = set(program.universe_of(pid))
            if set(seq) != expected or len(seq) != len(expected):
                raise SemanticError(
                    f"view of process {pid} must list its own operations plus "
                    f"all writes exactly once"
                )
            built.append(View(pid, tuple(seq)))
        views = ViewSet.of(built)

    if reads is None:
        if views is not None:
            execution = derive_writes_to(views, program)
        else:
            execution = Execution(program, {})
    else:
        try:
            execution = Execution(program, reads)
        except ValueError as exc:
            raise SemanticError(str(exc)) from exc
    return ParsedExecution(program, execution, views)


def _parse_pid(tokens, what: str) -> int:
    if len(tokens) < 2:
        ln, c, _ = tokens[0]
        raise ParseError(f"{what} line needs a process id", ln, c)
    ln, c, tok = tokens[1]
    if not tok.endswith(":") or not tok[:-1].isdigit():
        raise ParseError(f"expected '<pid>:' after {what!r}, got {tok!r}", ln, c)
    return int(tok[:-1])


def serialize_execution(
    program: Program,
    execution: Execution | None = None,
    views: ViewSet | None = None,
    header: list[str] | None = None,
) -> str:
    out = []
    for line in header or []:
        out.append(f"# {line}" if line else "#")
    for pid in sorted(program.processes):
        ops = " ".join(
            f"{op.kind}({op.variable})#{op.id}"
            for op in program.listing[program.processes.index(pid)]
        )
        out.append(f"process {pid}:{' ' + ops if ops else ''}")
    if views is not None:
        for view in views.views:
            seq = " ".join(view.sequence)
            out.append(f"view {view.process}:{' ' + seq if seq else ''}")
    if execution is not None:
        entries = " ".join(
            f"{r}<-{w}" for r, w in sorted(execution.writes_to.items())
        )
        out.append(f"reads:{' ' + entries if entries else ''}")
    return "\n".join(out) + "\n"


def parse_record(text: str, program: Program) -> Record:
    edges: dict[int, set] = {p: set() for p in program.processes}
    seen = set()
    for tokens in _lines(text):
        line_no, col, head = tokens[0]
        if head != "record":
            raise ParseError(f"expected 'record', got {head!r}", line_no, col)
        pid = _parse_pid(tokens, "record")
        if pid not in edges:
            raise SemanticError(f"record names unknown process {pid}")
        if pid in seen:
            raise SemanticError(f"duplicate record line for process {pid}")
        seen.add(pid)
        for ln, c, tok in tokens[2:]:
            m = _EDGE_TOKEN.match(tok)
            if not m:
                raise ParseError(f"malformed record edge {tok!r}", ln, c)
            a, b = m.groups()
            universe = set(program.universe_of(pid))
            if a not in universe or b not in universe:
                raise SemanticError(
                    f"record edge {a}->{b} escapes process {pid}'s universe"
                )
            edges[pid].add((a, b))
    return Record.of(edges)


def serialize_record(record: Record, program: Program) -> str:
    out = []
    for pid in sorted(program.processes):
        entries = " ".join(f"{a}->{b}" for a, b in sorted(record.edges(pid)))
        out.append(f"record {pid}:{' ' + entries if entries else ''}")
    return "\n".join(out) + "\n"
