"""Command-line interface: differentiate, solve, experiment, sweep.

Exit codes: 0 success, 2 malformed input (flags, CSV, problem file, an
interval wider than the float64 range), an output path that cannot be
written, a closed stdout or too little memory, 3 non-uniform sample grid, 4
alpha below grid spacing (differentiate --strict only; else a warning
line), 5 singular stabilized system. ``main`` alone maps a library error to
its code; a command returns a code only for what it checks itself.
differentiate checks its flags before it reads the CSV, so a bad flag exits
2 whatever the file holds. All file output is written atomically (temp file
in the target directory, then rename) and floats are printed as
``repr(float(x))`` prints them, the shortest decimal that round-trips, so
re-reading a produced CSV recovers the exact binary values. CSV floats get
those bytes from the vectorized formatter in ``_floatfmt``, a block of rows
at a time, not from one ``repr`` call per value.

CSV input takes one of two readers. The plain reader takes lines of digits,
'.', 'e', 'E', '+' and '-' joined by ',' and each ended by '\\n', and files
that differ from that form only by '\\r\\n' line ends, blank lines, or spaces
and tabs around fields. numpy's text parser reads them, with the
long-double one (C ``strtold``) where that is the x87 80-bit format and the
float64 one elsewhere, and each value comes out exactly as ``float()``
reads it. The line loop, one ``float()`` call per field, takes the lines
from the first block that is not plain and names the line of a bad value.
numpy is handed bytes, never a file name, so it neither decompresses by
suffix nor fetches a URL-like path.

A command starts at most one thread of its own, and only for work that
waits without the GIL: the plain reader's worker converts every other
block with ``np.fromstring``, and ``experiment``'s writer creates, writes
and renames the run files. The output bytes are the same as on one thread.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import _floatfmt
from .differentiate import Baseline, regularized_derivative
from .errors import AlphaTooSmall, PerturbregError, SingularSystem
from .experiments import convergence_study
from .fredholm import solve_fredholm_regularized
from .grid import GridFunction
from .operators import Stabilizer
from .problems import Problem, load_problem, parse_rule
from .solve import (
    RegConfig,
    SolveReport,
    _c_alpha_estimate,
    coordinate_alpha,
    solve_perturbed,
    stabilization_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GRID = 3
EXIT_ALPHA_SMALL = 4
EXIT_SINGULAR = 5

DEFAULT_SEED = 42
SEED_ENV_VAR = "PERTURBREG_SEED"

# Rows formatted per write when differentiate streams its CSV.
CSV_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


class _OutputError(PerturbregError):
    """An output path could not be written."""


def _cannot_write(path, exc: OSError) -> _OutputError:
    return _OutputError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _atomic_fd(path):
    """A descriptor open for writing; the file appears at ``path``, whole,
    when the block ends, and the caller closes the descriptor before that.

    A new temp file ``<path>.<8 random hex digits>`` beside the destination,
    then rename: readers never see a half-written file, and two identical
    runs leave identical bytes. The temp file is created with mode 0666, so
    the kernel applies the umask as it does for ``open(path, "w")``; the
    process umask is never read or set. O_EXCL refuses a file already there,
    and O_BINARY (Windows only) leaves newline translation to the text layer.
    On an error the temp file is removed and ``path`` is left as it was; an
    OSError on the way (no such directory, a file in the way, a full disk)
    becomes ``cannot write <path>``.
    """
    tmp_name = f"{path}.{os.urandom(4).hex()}"
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                     0o666)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    try:
        yield fd
        os.replace(tmp_name, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from exc
        raise


@contextlib.contextmanager
def _atomic_open(path):
    """A text file for writing at ``path``; it appears, whole, when the block ends."""
    with _atomic_fd(path) as fd, os.fdopen(fd, "w") as fh:
        yield fh


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _write_batch(batch) -> None:
    """Write each (path, bytes) pair of ``batch`` in turn as ``_atomic_open``
    writes a file, in plain os calls: no text layer holds the GIL while the
    kernel creates, writes and renames, so a thread of its own can wait on
    them."""
    for path, data in batch:
        with _atomic_fd(path) as fd:
            try:
                written = 0
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)


def _write_files(batches, threaded: bool) -> None:
    """Write each of ``batches``, lists of (path, bytes) pairs, in turn by
    ``_write_batch``; the first failure ends the writing.

    When ``threaded``, a thread of its own writes each batch while the next
    ones are made, one at most waiting for it, and the failure is raised
    here.
    """
    if not threaded:
        for batch in batches:
            _write_batch(batch)
        return
    writer = _Worker(_write_batch, "run-files")
    try:
        waiting = 0  # batches put and not yet got
        for batch in batches:
            if waiting == 2:
                writer.get()
                waiting -= 1
            writer.put(batch)
            waiting += 1
        for _ in range(waiting):
            writer.get()
    finally:
        writer.close()


class _Handoff:
    """Items passed from one thread to another in turn: queue.SimpleQueue,
    without the four modules that importing queue loads on a cold start."""

    def __init__(self):
        self._items = collections.deque()
        self._ready = threading.Semaphore(0)

    def put(self, item) -> None:
        self._items.append(item)
        self._ready.release()

    def get(self):
        self._ready.acquire()
        return self._items.popleft()


class _Worker:
    """A thread of its own that applies ``work`` to each item put, in turn.

    ``get`` returns the result for the oldest item not yet got, or raises
    what ``work`` raised; the items put after that one are dropped
    unworked, and the caller gets no more. ``close`` ends the thread once
    it is done with what it holds.
    """

    _STOP = object()

    def __init__(self, work, name: str):
        self._jobs, self._results = _Handoff(), _Handoff()
        self._thread = threading.Thread(target=self._run, args=(work,), name=name)
        self._thread.start()

    def _run(self, work) -> None:
        failed = False
        for item in iter(self._jobs.get, self._STOP):
            if failed:
                continue
            try:
                result = work(item)
            except Exception as exc:  # raised again in get()
                result, failed = exc, True
            self._results.put(result)

    def put(self, item) -> None:
        self._jobs.put(item)

    def get(self):
        result = self._results.get()
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        self._jobs.put(self._STOP)
        self._thread.join()


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or an atomically written file at ``out``, for writing in pieces."""
    if out is None:
        yield sys.stdout
    else:
        with _atomic_open(out) as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _csv_text(header: list[str] | None, columns: list) -> str:
    # Each value prints as ``fmt`` prints it. A column that is a list of str
    # or a bytes (``S``) array holds its strings already: a grid printed once
    # for many files, or integers. With header None only the rows are
    # printed, as a block of a longer CSV. The rows are laid out as one
    # NUL-padded byte matrix, each cell followed by ',' or '\n', and dropping
    # the NULs leaves the text.
    rows = min(map(len, columns), default=0)
    if not rows:
        return ("" if header is None else ",".join(header)) + "\n"
    text = _csv_matrix(columns, rows).tobytes().translate(None, b"\0").decode("ascii")
    return text if header is None else ",".join(header) + "\n" + text


def _is_printed(col) -> bool:
    """Whether a CSV column holds its strings: a list of str or an ``S`` array."""
    return isinstance(col, list) or (isinstance(col, np.ndarray) and col.dtype.kind == "S")


def _csv_matrix(columns: list, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``columns`` as NUL-padded cells and separators."""
    numeric = [np.asarray(col, dtype=float)[:rows] for col in columns if not _is_printed(col)]
    formatted = _floatfmt.cells(numeric)
    cells = []  # (rows, width) strings, or (WIDTH, rows) slots of floats and those used
    for col in columns:
        if _is_printed(col):
            cells.append((np.ascontiguousarray(col[:rows], dtype="S")
                          .view(np.uint8).reshape(rows, -1), None))
        else:
            slots = formatted[:, :rows]
            formatted = formatted[:, rows:]
            cells.append((slots, slots.any(axis=1)))  # a slot no value fills is left out
    widths = [cell.shape[1] if used is None else int(used.sum()) for cell, used in cells]
    m = np.zeros((rows, sum(widths) + len(widths)), np.uint8)
    end = 0
    for (cell, used), width in zip(cells, widths):
        m[:, end:end + width] = cell if used is None else cell[used].T
        end += width + 1
        m[:, end - 1] = ord(",")
    m[:, -1] = ord("\n")
    return m


def _cut_rows(data: bytes, rows: int) -> list[bytes]:
    """The CSV ``data`` cut into pieces of ``rows`` lines."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    ends = (ends[rows - 1::rows] + 1).tolist()
    return [data[start:end] for start, end in zip([0, *ends], ends)]


def _write_csv(fh, header: list[str], columns: list) -> None:
    """Write what ``_csv_text(header, columns)`` returns, CSV_BLOCK_ROWS rows at a time.

    Only one block's strings are alive at once, so the memory a write takes
    does not grow with the row count.
    """
    for start in range(0, max(len(columns[0]), 1), CSV_BLOCK_ROWS):
        fh.write(_csv_text(header if start == 0 else None,
                           [col[start:start + CSV_BLOCK_ROWS] for col in columns]))


class _CsvError(Exception):
    pass


# The bytes of a field _read_plain parses, and the bytes it reads at a time.
_PLAIN_FIELD_BYTES = b"0123456789.eE+-"
_IS_FIELD_BYTE = np.zeros(256, bool)
_IS_FIELD_BYTE[list(_PLAIN_FIELD_BYTES)] = True
_PLAIN_BLOCK_BYTES = 1 << 16
_FLOAT64_TINY = 2.2250738585072014e-308  # the least normal float64


def read_csv_columns(path) -> tuple[list[str], np.ndarray]:
    """Read a headed numeric CSV as (header, rows); raises _CsvError on junk.

    Blank lines are skipped; error messages number the lines of the file,
    blank ones included. Lines end at newlines only: reading in text mode
    makes \\r and \\r\\n into \\n, and the other breaks str.splitlines
    knows (form feed, U+2028, ...) stay inside a field, where float() strips
    them.
    """
    try:
        with open(path) as fh:
            return _read_csv(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CsvError(f"cannot read {path}: {exc}") from exc


def _next_filled_line(fh) -> tuple[int, str]:
    """(lines read, stripped text) of the next nonblank line; text '' at the end."""
    count = 0
    while True:
        line = fh.readline()
        count += 1
        if not line or line.strip():
            return count, line.strip()


def _read_csv(fh, path) -> tuple[list[str], np.ndarray]:
    skip, header_line = _next_filled_line(fh)
    if not _next_filled_line(fh)[1]:
        raise _CsvError("need a header line and at least one data row")
    header = [field.strip() for field in header_line.split(",")]
    # The line loop takes the lines from the first block _read_plain does not
    # take (a lone '\r', a space inside a field, an empty field, '1_0',
    # non-ASCII digits, whitespace other than ' \t') to the end, and names the
    # line of a bad or non-finite value. A bad value anywhere wins over a
    # non-finite one, so a plain block that holds one sends the whole file
    # through the line loop.
    data, plain_lines = _read_plain(path, skip, len(header))
    finite = np.isfinite(data).all()
    if plain_lines is None and finite:
        return header, data
    if not finite:
        data, plain_lines = data[:0], 0
    before = skip + plain_lines
    fh.seek(0)
    rest = fh.read().split("\n", before)[-1].split("\n")
    return header, np.concatenate([data, _parse_rows(list(map(str.strip, rest)), len(header),
                                                     before + 1)])


@functools.cache
def _long_double_is_x87() -> bool:
    """Whether np.longdouble is the x87 80-bit format: a 64-bit significand in 16 bytes."""
    return np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


def _read_plain(path, skip: int, width: int) -> tuple[np.ndarray, int | None]:
    """The rows of the plain blocks after the ``skip`` lines that end at the
    header, up to the first block that is not plain, and the lines they
    span; None for the lines when every block is plain.

    Plain: as it is or _unspaced, each line of the block holds ``width``
    fields of _PLAIN_FIELD_BYTES joined by ','. No block counts when the
    skipped lines hold a lone '\\r', as text mode would count other lines.
    The file is read in blocks of whole lines into one array grown in place.
    """
    data = np.empty((0, width))
    with open(path, "rb") as raw, warnings.catch_warnings():
        # A field not read to its end: numpy 2 raises, numpy 1.x warns. The
        # filter is process-wide, so it is set here, around the whole life
        # of the worker thread that converts blocks.
        warnings.simplefilter("error", DeprecationWarning)
        if any(b"\r" in raw.readline().replace(b"\r\n", b"") for _ in range(skip)):
            return data, 0
        start = raw.tell()
        size = raw.seek(0, os.SEEK_END)
        raw.seek(start)
        filled = consumed = 0
        every_block = True
        with contextlib.closing(_plain_blocks(_whole_lines(raw), width)) as blocks:
            for block, values in blocks:
                if values is None:
                    every_block = False
                    break
                consumed += len(block)
                rows = filled + len(values)
                if rows > len(data):
                    # room for the whole file at the bytes per row read so far
                    projected = rows * (size - start) // consumed
                    data.resize((max(rows, projected * 65 // 64 + 1), width), refcheck=False)
                data[filled:rows] = values
                filled = rows
        if not every_block:
            raw.seek(start)
            plain_lines = raw.read(consumed).count(b"\n")
    data.resize((filled, width), refcheck=False)
    return data, None if every_block else plain_lines


def _whole_lines(raw):
    """The rest of the binary file ``raw`` in blocks of whole lines, each ended by '\\n'."""
    tail = b""
    while chunk := raw.read(_PLAIN_BLOCK_BYTES):
        block = tail + chunk
        cut = block.rfind(b"\n") + 1
        if cut:
            yield block[:cut]
        tail = block[cut:]
    if tail:
        yield tail + b"\n"


def _unspaced(block: bytes, width: int) -> bytes | None:
    """``block`` without '\\r' before '\\n', blank lines, spaces and tabs; None if a field splits.

    float() strips spaces and tabs at a field's ends only. One inside a
    field splits its run of field bytes, so the runs must number ``width``
    a line; an empty field, which could make up for it, numpy rejects.
    """
    runs = None
    if b" " in block or b"\t" in block:
        field = _IS_FIELD_BYTE[np.frombuffer(block, np.uint8)]
        runs = np.count_nonzero(field[:-1] > field[1:])  # the block ends with '\n'
        block = block.translate(None, b" \t")
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    while b"\n\n" in block:
        block = block.replace(b"\n\n", b"\n")
    block = block.lstrip(b"\n")
    return block if runs in (None, block.count(b"\n") * width) else None


def _plain_blocks(blocks, width: int):
    """Each of ``blocks`` in turn with its rows as float() reads them; None
    for the rows of a block that is not plain.

    Where np.longdouble is the x87 format, one worker thread converts the
    second block of each pair while this thread converts the first: strtold
    runs without the GIL, the grammar checks this thread makes first do
    not. All but the conversion stays on this thread, in block order. A
    file's last block, often short, is thus a second block or left alone.
    numpy's float64 reader takes the GIL back for every value, so there the
    blocks are converted in turn on this thread.
    """
    # strtold (x87) beats numpy's float64 reader, which elsewhere gives
    # float()'s bits: it converts with the routine float() uses.
    x87 = _long_double_is_x87()
    dtype = np.longdouble if x87 else float
    blocks = iter(blocks)
    worker = None
    try:
        for first in blocks:
            second = next(blocks, None) if x87 else None
            mine = _checked(first, width)
            if second is not None:
                if worker is None:
                    # It runs only np.fromstring: the warnings filter that
                    # makes numpy 1.x's warning an error is process-wide and
                    # the caller sets it, np.errstate holds per thread, and
                    # perfbench's tracer keeps one span stack for the process.
                    worker = _Worker(functools.partial(_convert, dtype=dtype), "csv-convert")
                theirs = _checked(second, width)
                worker.put(theirs[0])
            yield first, _block_rows(first, width, mine, _convert(mine[0], dtype), dtype)
            if second is not None:
                yield second, _block_rows(second, width, theirs, worker.get(), dtype)
    finally:
        if worker is not None:
            worker.close()


def _plain_fields(block: bytes, width: int) -> tuple[bytes, int] | None:
    """The fields of the whole lines ``block`` joined by ',', and its rows;
    None unless each line holds ``width`` fields of _PLAIN_FIELD_BYTES
    joined by ','."""
    separators = block.translate(None, _PLAIN_FIELD_BYTES)
    rows = len(separators) // width
    if separators != (b"," * (width - 1) + b"\n") * rows:
        return None
    return block.replace(b"\n", b","), rows


def _checked(block: bytes, width: int) -> tuple[bytes | None, int, bool]:
    """(fields, rows, as_is): ``_plain_fields`` of ``block`` as it is, else of
    its _unspaced form, and whether they came from the block as it is;
    fields None when neither is plain."""
    plain = _plain_fields(block, width)
    if plain is not None:
        return *plain, True
    unspaced = _unspaced(block, width)
    plain = None if unspaced is None else _plain_fields(unspaced, width)
    return (None, 0, False) if plain is None else (*plain, False)


def _convert(fields: bytes | None, dtype) -> np.ndarray | None:
    """np.fromstring's values of ``fields``; None without fields or when
    numpy cannot read them to their end."""
    if fields is None:
        return None
    try:
        return np.fromstring(fields, dtype=dtype, sep=",")
    except (ValueError, DeprecationWarning):
        return None


def _block_rows(block: bytes, width: int, checked, parsed: np.ndarray | None, dtype
                ) -> np.ndarray | None:
    """The rows of ``block`` from ``parsed``, the conversion of its
    ``_checked`` fields; None unless plain.

    Fields of the block as it is that do not give its rows are tried again
    from its _unspaced form, as a one-column block with a blank line passes
    the grammar and numpy then meets an empty field.
    """
    fields, rows, as_is = checked
    values = _float64_rows(parsed, fields, rows, width)
    if values is None and as_is and (unspaced := _unspaced(block, width)) is not None \
            and (plain := _plain_fields(unspaced, width)) is not None:
        values = _float64_rows(_convert(plain[0], dtype), *plain, width)
    return values


def _float64_rows(parsed: np.ndarray | None, fields: bytes | None, rows: int, width: int
                  ) -> np.ndarray | None:
    """``rows`` rows of ``width`` floats as float() reads ``fields`` from
    their conversion ``parsed``; None unless it holds that many values."""
    if parsed is None or parsed.size != rows * width:
        return None
    if parsed.dtype == np.float64:
        return parsed.reshape(rows, width)
    with np.errstate(over="ignore"):
        values = parsed.astype(float)
    # strtold rounds the decimal correctly to 64 bits, and every float64
    # midpoint is a 64-bit value, so rounding that on to float64 gives what
    # float() gives unless the long double lies on a midpoint (its low 11
    # significand bits read 0x400) or float64 rounds it on the coarser grid
    # at and below its least normal value. Those fields, zeros aside, are
    # read again.
    again = np.flatnonzero(((parsed.view(np.uint64)[::2] & 0x7FF) == 0x400)
                           | (np.abs(values) <= _FLOAT64_TINY))
    again = again[parsed[again] != 0]
    if again.size:
        ends = np.flatnonzero(np.frombuffer(fields, np.uint8) == ord(","))
        for i in again.tolist():
            values[i] = float(fields[ends[i - 1] + 1 if i else 0:ends[i]])
    return values.reshape(rows, width)


def _parse_rows(lines: list[str], width: int, first: int) -> np.ndarray:
    """The rows of the stripped data ``lines``, the first of which is line
    ``first`` of the file, converted one by one with float()."""
    numbered = [(num, line) for num, line in enumerate(lines, start=first) if line]
    rows = []
    for num, line in numbered:
        fields = line.split(",")
        if len(fields) != width:
            raise _CsvError(f"line {num}: expected {width} fields, got {len(fields)}")
        try:
            rows.append([float(field) for field in fields])
        except ValueError as exc:
            raise _CsvError(f"line {num}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(len(rows), width)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise _CsvError(f"line {numbered[int(np.argmin(finite))][0]}: non-finite value")
    return data


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_differentiate(args) -> int:
    # The flags need nothing from the file: check them before reading it.
    if not 0.0 <= args.delta < math.inf:
        return _fail(f"--delta must be a finite number >= 0, got {args.delta}", EXIT_USAGE)
    for flag, value in (("--alpha", args.alpha), ("--window", args.window)):
        if value is not None and not 0.0 < value < math.inf:
            return _fail(f"{flag} must be {'finite' if value > 0.0 else 'positive'}, "
                         f"got {value}", EXIT_USAGE)
    alpha = args.alpha if args.alpha is not None \
        else coordinate_alpha(args.delta, parse_rule(args.rule or "sqrt"))

    baseline = None
    if args.baseline != "auto":
        try:
            c_str, d_str = args.baseline.split(",")
            baseline = Baseline(c=float(c_str), d=float(d_str))
        except ValueError:
            return _fail(f"--baseline must be 'auto' or 'c,d', got {args.baseline!r}",
                         EXIT_USAGE)
        if not (math.isfinite(baseline.c) and math.isfinite(baseline.d)):
            return _fail(f"--baseline anchors must be finite, got {args.baseline!r}",
                         EXIT_USAGE)

    header, data = read_csv_columns(args.input)
    if header != ["t", "y"]:
        return _fail(f"expected header 't,y', got {','.join(header)!r}", EXIT_USAGE)
    if data.shape[0] < 2:
        return _fail("need at least two samples", EXIT_USAGE)
    t, y = data[:, 0], data[:, 1]
    span = float(t[-1]) - float(t[0])  # a Python float: inf, not a warning, on overflow
    if not math.isfinite(span):
        return _fail(f"t spans [{fmt(t[0])}, {fmt(t[-1])}], wider than the float64 range",
                     EXIT_USAGE)
    h = span / (t.size - 1)
    spacing = np.diff(t)
    if h <= 0.0 or np.any(spacing <= 0.0) or np.max(np.abs(spacing - h)) > 1e-9 * h:
        return _fail("t must be strictly increasing with uniform spacing", EXIT_GRID)

    # Distinct floats within 1e-9 of one step leave GridFunction's step
    # check nothing to reject short of about 2**52 samples.
    samples = GridFunction(t[0], t[-1], y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AlphaTooSmall)
        result = regularized_derivative(samples, alpha, baseline=baseline, window=args.window)
    alpha_warnings = [w for w in caught if isinstance(w.message, AlphaTooSmall)]
    for w in alpha_warnings:
        print(f"warning: {w.message}", file=sys.stderr)
    if alpha_warnings and args.strict:
        return _fail("alpha below grid spacing rejected by --strict", EXIT_ALPHA_SMALL)

    print(f"alpha={fmt(alpha)} q_proxy={fmt(2.0 * args.delta / alpha)} "
          f"boundary_layer_width={fmt(result.boundary_layer_width)}", file=sys.stderr)
    with _output(args.out) as fh:
        _write_csv(fh, ["t", "dy", "x_alpha"],
                   [t, result.derivative.values, result.x_alpha.values])
    return EXIT_OK


def _solve_problem(problem: Problem):
    """Run the solve a problem file describes; returns (alpha_used, report)."""
    if problem.basis is None:
        alpha = problem.alpha if problem.alpha is not None \
            else coordinate_alpha(problem.delta, problem.rule)
        config = RegConfig(delta=problem.delta, alpha=alpha, q_max=problem.q_max)
        report = solve_perturbed(problem.operator, Stabilizer.scalar_alpha(), alpha,
                                 problem.rhs, config, x_star=problem.exact_solution,
                                 A_exact=problem.exact_operator)
        return alpha, report
    report = solve_fredholm_regularized(problem.operator, problem.basis, problem.rhs,
                                        delta=problem.delta, q_max=problem.q_max,
                                        x_star=problem.exact_solution)
    return None, report


def _json_value(value):
    """A report field as JSON: null, a bool, a float or a list of floats."""
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if np.ndim(value):
        return [float(v) for v in value]
    return float(value)


def _report_payload(alpha, delta: float, report: SolveReport) -> dict:
    payload = {"alpha": alpha, "delta": delta}
    payload.update((f.name, getattr(report, f.name)) for f in dataclasses.fields(SolveReport))
    return {key: _json_value(value) for key, value in payload.items()}


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    alpha, report = _solve_problem(problem)
    if report.q_exceeded:
        print(f"warning: q_est={fmt(report.q_est)} is at or above "
              f"q_max={fmt(problem.q_max)}; solution returned anyway", file=sys.stderr)
    _emit(json.dumps(_report_payload(alpha, problem.delta, report), indent=2) + "\n",
          args.out)
    return EXIT_OK


def _parse_deltas(text: str) -> list[float]:
    deltas = [float(field) for field in text.split(",") if field.strip()]
    if not deltas or not all(0.0 < d < math.inf for d in deltas):
        raise ValueError("every delta must be a positive finite number")
    return deltas


def _cmd_experiment(args) -> int:
    try:
        deltas = _parse_deltas(args.deltas)
    except ValueError as exc:
        return _fail(f"--deltas: {exc}", EXIT_USAGE)
    if args.seeds < 1:
        return _fail(f"--seeds must be >= 1, got {args.seeds}", EXIT_USAGE)
    if args.n < 2:
        return _fail(f"--n must be >= 2, got {args.n}", EXIT_USAGE)
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            seed = int(raw)
        except ValueError:
            return _fail(f"{SEED_ENV_VAR} must be an integer", EXIT_USAGE)
    if seed < 0:
        return _fail(f"--seed (or ${SEED_ENV_VAR}) must be >= 0, got {seed}", EXIT_USAGE)

    outdir = Path(args.out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AlphaTooSmall)
        rows = convergence_study(args.example, deltas,
                                 [seed + i for i in range(args.seeds)], n=args.n)
    # AlphaTooSmall comes once per run; say each distinct message once.
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)

    # Every run and the plot share the example's grid: print it once, as
    # bytes. Each text has a fixed formatting cost, so the runs' rows are
    # printed about CSV_BLOCK_ROWS at a time, several runs to one text cut
    # into their files.
    grid = np.array(list(map(repr, rows[0].reports[0].derivative.t.tolist())), dtype="S")
    runs = [(row.delta, rep) for row in rows for rep in row.reports]
    run_paths = [outdir / f"example{args.example}_delta{fmt(delta)}_seed{rep.seed}.csv"
                 for delta, rep in runs]
    table_path = outdir / f"example{args.example}_table.csv"
    plot_path = outdir / f"example{args.example}_plot.csv"
    # A directory where a file goes fails its rename; find it before any
    # file is written, so a failed call leaves no run file behind. The
    # directory is made after the study and these checks, so a call that
    # fails in them leaves no directory either.
    for path in [*run_paths, table_path, plot_path]:
        if os.path.isdir(path) and not os.path.islink(path):
            raise _cannot_write(path, OSError(errno.EISDIR, os.strerror(errno.EISDIR)))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    per_text = max(1, CSV_BLOCK_ROWS // len(grid))

    def run_files():
        # The bytes a text file writes: '\n' becomes os.linesep, and ASCII
        # reads the same in every locale encoding.
        head = ("t,dy" + os.linesep).encode("ascii")
        for start in range(0, len(runs), per_text):
            batch = runs[start:start + per_text]
            text = _csv_text(None, [np.tile(grid, len(batch)),
                                    np.concatenate([rep.derivative.values for _, rep in batch])])
            parts = _cut_rows(text.replace("\n", os.linesep).encode("ascii"), len(grid))
            yield [(path, head + part)
                   for path, part in zip(run_paths[start:start + per_text], parts)]

    # With more than one text, the files of one are written while the next
    # is formatted. Everything after the run files waits for them.
    _write_files(run_files(), threaded=len(runs) > per_text)

    header = ["delta", "alpha", "seed_count",
              "median_max_error_full", "median_max_error_interior"]
    columns = [np.array([getattr(row, name) for row in rows]) for name in header]
    columns[2] = list(map(str, columns[2].tolist()))  # seed counts print as integers
    table_text = _csv_text(header, columns)
    _atomic_write(table_path, table_text)
    sys.stdout.write(table_text)

    # the first run of the first noisiest delta
    plot_report = max(rows, key=lambda row: row.delta).reports[0]
    err = np.abs(plot_report.derivative.values - plot_report.exact_derivative.values)
    _atomic_write(plot_path,
                  _csv_text(["t", "exact", "computed", "error"],
                            [grid,
                             plot_report.exact_derivative.values,
                             plot_report.derivative.values,
                             err]))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = load_problem(args.problem)
    if problem.exact_solution is None:
        return _fail("sweep needs 'exact_solution' in the problem file", EXIT_USAGE)
    try:
        alphas = [float(field) for field in args.alphas.split(",") if field.strip()]
    except ValueError as exc:
        return _fail(f"--alphas: {exc}", EXIT_USAGE)
    if not alphas or not all(0.0 < a < math.inf for a in alphas):
        return _fail("--alphas needs a nonempty list of positive finite numbers", EXIT_USAGE)

    # The sweep plans a parameter choice, so it rates the operator it is
    # given: the exact one when the file carries it, the observed otherwise.
    op = problem.exact_operator if problem.exact_operator is not None else problem.operator
    stab = Stabilizer.scalar_alpha() if problem.basis is None else problem.basis.stabilizer

    gaps = [gap for _, gap in stabilization_sweep(op, stab, alphas, problem.exact_solution)]
    if stab.is_scalar:
        c_est = [_c_alpha_estimate(op, stab, alpha)[0] for alpha in alphas]
    else:  # a finite-rank stabilizer does not depend on alpha: one inverse serves every row
        c_est = [_c_alpha_estimate(op, stab, alphas[0])[0]] * len(alphas)
    _emit(_csv_text(["alpha", "S", "c_alpha_est", "q_est"],
                    [np.asarray(alphas), np.asarray(gaps), np.asarray(c_est),
                     np.asarray([problem.delta * c for c in c_est])]), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbreg",
        description="Stabilized solves and stable differentiation for noisy "
                    "first-kind operator equations.")
    # Not required: argparse would then report a missing command before an
    # unknown flag, and `perturbreg --bogus` would never name --bogus.
    sub = parser.add_subparsers(dest="command")

    d = sub.add_parser("differentiate",
                       help="differentiate a t,y CSV of noisy uniform samples")
    d.add_argument("input", help="CSV file with header t,y")
    d.add_argument("--delta", type=float, default=0.0,
                   help="noise level (default 0)")
    alpha_group = d.add_mutually_exclusive_group()
    alpha_group.add_argument("--alpha", type=float, help="explicit smoothing parameter")
    alpha_group.add_argument("--rule", help="coordination rule: sqrt or power:p "
                                            "(default sqrt, needs --delta > 0)")
    d.add_argument("--baseline", default="auto",
                   help="'auto' or explicit 'c,d' left-endpoint anchors")
    d.add_argument("--window", type=float,
                   help="fit window width for the automatic baseline")
    d.add_argument("--out", help="output CSV path (default stdout)")
    d.add_argument("--strict", action="store_true",
                   help="fail (exit 4) when alpha is below the grid spacing")
    d.set_defaults(func=_cmd_differentiate)

    s = sub.add_parser("solve", help="run the stabilized solve a problem file describes")
    s.add_argument("problem", help="JSON problem file")
    s.add_argument("--out", help="output JSON path (default stdout)")
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("experiment", help="noisy differentiation benchmark runs")
    e.add_argument("--example", type=int, choices=(1, 2), required=True)
    e.add_argument("--deltas", default="0.1,0.01,0.001",
                   help="comma-separated noise levels (default 0.1,0.01,0.001)")
    e.add_argument("--seeds", type=int, default=21,
                   help="number of consecutive seeds per noise level (default 21)")
    e.add_argument("--seed", type=int,
                   help=f"base seed (default 42, or ${SEED_ENV_VAR})")
    e.add_argument("--n", type=int, default=512, help="grid size (default 512)")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=_cmd_experiment)

    w = sub.add_parser("sweep", help="stabilization gap and margin across alphas")
    w.add_argument("problem", help="JSON problem file with exact_solution")
    w.add_argument("--alphas", required=True, help="comma-separated alphas")
    w.add_argument("--out", help="output CSV path (default stdout)")
    w.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Whatever reads stdout has closed it. Point the descriptor at devnull,
        # so that the interpreter's last flush of the buffer fails no more.
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _fail(f"cannot write stdout: {exc.strerror}", EXIT_USAGE)
    except SingularSystem as exc:
        return _fail(str(exc), EXIT_SINGULAR)
    except _CsvError as exc:
        return _fail(f"malformed CSV: {exc}", EXIT_USAGE)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except MemoryError as exc:  # numpy says how much it could not allocate
        return _fail(str(exc) or "out of memory", EXIT_USAGE)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
