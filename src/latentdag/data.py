"""Categorical dataset handling: ingestion, projection, contingency counting.

Everything downstream (scores, independence tests, the structure learners,
the benchmark's sampler) reads the data as tallies of :func:`row_codes`, so
the layout conventions fixed here propagate to the whole package:

* a dataset is stored once, one int64 row per variable, and
  :attr:`Dataset.values` is the ``(rows, variables)`` view of that array;
* state labels of a variable are indexed in sorted (lexicographic) order;
* parent configurations are indexed lexicographically over the parents sorted
  by variable id, i.e. the first (smallest-id) parent is the most significant
  digit and the last parent varies fastest.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VariableMeta",
    "Dataset",
    "load_dataset",
    "project",
    "row_codes",
    "count",
    "BatchTally",
]


@dataclass(frozen=True)
class VariableMeta:
    """Name and ordered category labels (the domain) of one variable."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if len(self.states) == 0:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)


class Dataset:
    """Immutable table of state indices, one column per variable.

    Parameters
    ----------
    variables:
        Per-column metadata. Column order defines the variable ids used by
        every other module (0-based).
    values:
        Integer (or bool) array of shape ``(n_rows, n_variables)``; entry
        ``[r, i]`` is the state index of variable ``i`` in row ``r``.

    The values are stored once, as a read-only C-contiguous int64 array of
    shape ``(n_variables, n_rows)``; ``values`` is its transposed view, and
    ``values.T`` the columns themselves. A producer that fills those columns
    and passes their ``.T`` is not copied.
    """

    def __init__(self, variables: Sequence[VariableMeta], values: np.ndarray):
        values = np.asarray(values)
        if values.dtype.kind not in "biu":
            raise ValueError(f"values must be integer state indices, not dtype {values.dtype}")
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (rows x variables)")
        if values.shape[1] != len(variables):
            raise ValueError(
                f"{len(variables)} variables but {values.shape[1]} value columns"
            )
        names = [v.name for v in variables]
        repeated = _repeated(names)
        if repeated is not None:
            raise ValueError(f"duplicate variable name {repeated!r}")
        cards = np.array([v.cardinality for v in variables], dtype=np.int64)
        cols = np.ascontiguousarray(values.T, dtype=np.int64)
        if cols.size:
            if cols.min() < 0:
                raise ValueError("negative state index")
            over = cols.max(axis=1) >= cards
            if over.any():
                raise ValueError(
                    f"state index out of range for variable {names[int(np.argmax(over))]!r}"
                )
        cols.setflags(write=False)
        self.variables: tuple[VariableMeta, ...] = tuple(variables)
        self.values: np.ndarray = cols.T
        self._cards: tuple[int, ...] = tuple(v.cardinality for v in variables)
        self._index: dict[str, int] = {n: i for i, n in enumerate(names)}

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self._cards

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def column(self, var: int | str) -> np.ndarray:
        return self.values[:, self._resolve(var)]

    def _resolve(self, var: int | str) -> int:
        if isinstance(var, str):
            return self.id_of(var)
        return _check_id("variable id", var, self.n_variables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({self.n_variables} variables, {self.n_rows} rows)"


def _repeated(items: Sequence):
    """The first item of ``items`` (names or ids) that an earlier one
    repeats, if any."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _check_integer(name: str, value) -> None:
    """Reject a ``value`` that is not an integer, naming it. A bool is an int
    subclass, but True parents or repetitions is a slip, so it fails too."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_id(what: str, x, n: int) -> int:
    """``x`` as an ``int``, when it is an integer id in ``0..n-1``.

    Every variable and node id of the package passes here. A non-integer or
    a bool fails as :func:`_check_integer` fails; an id out of range raises
    ``KeyError``. A plain ``int`` costs one type test and one range test.
    """
    if type(x) is not int:
        _check_integer(what, x)
        x = int(x)
    if not 0 <= x < n:
        raise KeyError(f"{what} {x} out of range")
    return x


# Cap on the cells of one ingest block: the loader holds the parsed rows of
# one block at a time, so the text it keeps does not grow with the file.
_INGEST_CELLS = 1 << 13


def load_dataset(path, delimiter: str = ",") -> Dataset:
    """Read a delimited text file (header row required) into a :class:`Dataset`.

    Domains are inferred as the sorted set of distinct labels per column.
    Files without data rows, empty cells and single-state columns are
    rejected: scoring needs complete data and two or more states per variable.
    An error names the file's physical line on which the faulty record ends,
    so a quoted cell that spans lines shifts no later number.

    Rows are coded in blocks of at most ``_INGEST_CELLS`` cells as the reader
    yields them, each label by the order of its first appearance in its
    column; one pass at the end relabels the codes in sorted-label order.
    Beyond the returned dataset, memory holds one block of parsed rows and
    the blocks' codes, one byte each while a column has at most 256 labels.
    """
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as exc:
        raise ValueError(f"bad delimiter {delimiter!r}: {exc}") from None
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stick to the first column's name
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file (missing header)") from None
            if any(not h.strip() for h in header):
                raise ValueError(f"{path}: blank column name in header")
            repeated = _repeated(header)
            if repeated is not None:
                raise ValueError(f"{path}: duplicate column name {repeated!r}")
            width = len(header)
            block_rows = max(1, _INGEST_CELLS // width)
            # per column, label -> code in first-seen order, grown across blocks
            codes: list[dict[str, int]] = [{} for _ in header]
            blocks: list[np.ndarray] = []
            block: list[list[str]] = []
            for row in reader:
                if not row:
                    continue  # ignore completely blank lines
                if len(row) != width:
                    raise ValueError(
                        f"{path}:{reader.line_num}: ragged row ({len(row)} cells, "
                        f"expected {width})"
                    )
                if "" in row:
                    raise ValueError(f"{path}:{reader.line_num}: missing value")
                block.append(row)
                if len(block) == block_rows:
                    blocks.append(_code_block(block, codes))
                    block.clear()
            if block:  # the last, partial block
                blocks.append(_code_block(block, codes))
                block.clear()
    except UnicodeDecodeError:
        # the decoder reports offsets within its read chunk: decode the
        # whole file again to place the bad byte
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                             f"at offset {exc.start})") from None
        raise

    if not blocks:
        raise ValueError(f"{path}: no data rows after the header")
    variables, ranks = [], []
    for name, seen in zip(header, codes):
        if len(seen) < 2:
            raise ValueError(
                f"{path}: column {name!r} has a single state; "
                "variables must take at least two values"
            )
        labels = sorted(seen)
        variables.append(VariableMeta(name, tuple(labels)))
        # code -> index of its label in sorted order
        position = {label: j for j, label in enumerate(labels)}
        ranks.append(np.fromiter(map(position.__getitem__, seen), np.int64, count=len(seen)))
    cols = np.concatenate(blocks, axis=1, dtype=np.int64)
    del blocks  # before take buffers a column
    for col, rank in zip(cols, ranks):
        np.take(rank, col, out=col)
    return Dataset(variables, cols.T)


def _code_block(block: list[list[str]], codes: list[dict[str, int]]) -> np.ndarray:
    """The ``(variables, rows)`` codes of one block of rows, in the narrowest
    unsigned type that holds them; labels new to a column take the next
    codes, in the order they first appear."""
    columns = list(zip(*block))
    for cells, lookup in zip(columns, codes):
        for label in dict.fromkeys(cells):
            lookup.setdefault(label, len(lookup))
    out = np.empty((len(codes), len(block)),
                   dtype=np.min_scalar_type(max(map(len, codes)) - 1))
    for i, (cells, lookup) in enumerate(zip(columns, codes)):
        out[i] = np.fromiter(map(lookup.__getitem__, cells), out.dtype, count=len(cells))
    return out


def project(d: Dataset, keep: Iterable[int | str]) -> Dataset:
    """Restrict the dataset to the given variables, keeping every row.

    ``keep`` may mix ids and names; the result preserves the original
    relative column order regardless of the order given.
    """
    ids = sorted({d._resolve(v) for v in keep})
    if not ids:
        raise ValueError("cannot project onto an empty variable set")
    # the kept columns, copied once into a new (variables, rows) array
    return Dataset([d.variables[i] for i in ids], d.values.T[ids].T)


def _check_codes(n_codes: int, what: str, *args) -> None:
    """Reject ``n_codes`` codes, 0 to ``n_codes - 1``, when the largest would
    not fit in an int64 (nor a bincount's length in a C long), with a
    ``ValueError`` that says they are ``what.format(*args)``, formatted only
    then."""
    if n_codes >= 1 << 63:
        raise ValueError(f"{what.format(*args)} number {n_codes}, "
                         "more than int64 codes can (2**63 - 1)")


def row_codes(cols: np.ndarray, cards: Sequence[int], variables: Iterable[int]) -> np.ndarray:
    """Mixed-radix int64 code of each row over ``variables``, the first most
    significant: the lexicographic configuration index, last variable
    fastest. ``cols[x]`` holds variable x's states, which lie below
    ``cards[x]``; with no variables every code is 0. Variables with more
    joint configurations than int64 codes can number raise ``ValueError``."""
    variables = list(variables)
    _check_codes(math.prod(cards[x] for x in variables),
                 "the joint configurations of variables {}", variables)
    code = np.zeros(cols.shape[1], dtype=np.int64)
    for x in variables:
        code *= cards[x]
        code += cols[x]
    return code


def count(d: Dataset, child: int | str, parents: Iterable[int | str] = ()) -> np.ndarray:
    """Tally child states against every parent configuration.

    Returns the int64 table ``counts[x, z]``: the number of rows where the
    child takes state ``x`` and the parents, normalised to ascending variable
    id, take their ``z``-th lexicographic configuration. The table covers the
    full Cartesian product of parent domains even when some configurations
    are unobserved (those columns count zero — the scoring module relies on
    this when it sizes the penalty term).
    """
    ci = d._resolve(child)
    pids = sorted({d._resolve(p) for p in parents})
    if ci in pids:
        raise ValueError(f"child {d.variables[ci].name!r} cannot be its own parent")
    cards = d.cardinalities
    n_cells = math.prod(cards[v] for v in (ci, *pids))
    tallies = np.bincount(row_codes(d.values.T, cards, (ci, *pids)), minlength=n_cells)
    return tallies.reshape(cards[ci], -1)


# Cap on the elements of one batch's row codes and of its joint tally, so a
# batch's temporaries stay small for long data and for wide domains alike.
_BATCH_ELEMENTS = 1 << 20


class BatchTally:
    """Joint tallies of one base variable set with each of several extra
    variables, side by side in one bincount.

    The states of all variables share one row of slots, in id order:
    variable y owns the ``cards[y]`` slots from ``slots[y]``, the summed
    domain sizes of the variables before it. ``shifted`` holds each column
    moved to its slots, a copy of the dataset's int64 columns (8 bytes per
    cell: 0.8 MB for 20 variables over 5,000 rows), so that one add of the
    scaled base code to a batch's shifted columns writes every row code of
    the batch. Holds workspace buffers sized once, so a caller that tallies
    many batches (the exact learner's score table, each separator step,
    each hill-climb target) allocates them once.
    """

    def __init__(self, d: Dataset):
        self.cards = d.cardinalities
        self.cols = d.values.T
        self.slots = [0, *itertools.accumulate(self.cards)]
        self.shifted = self.cols + np.array(self.slots[:-1], dtype=np.int64)[:, None]
        self.batch_rows = max(1, min(d.n_variables, _BATCH_ELEMENTS // d.n_rows))
        self.codes = np.empty((self.batch_rows, d.n_rows), dtype=np.int64)
        self.scaled = np.empty(d.n_rows, dtype=np.int64)

    def code(self, variables: Iterable[int]) -> np.ndarray:
        """:func:`row_codes` of ``variables`` over the dataset."""
        return row_codes(self.cols, self.cards, variables)

    def joints(self, code: np.ndarray, n_cfg: int, ys: Sequence[int]):
        """Yield ``(chunk, joint, at)`` batches that cover the ascending ids
        ``ys``.

        ``code`` takes values below ``n_cfg``. ``joint`` is an
        ``(n_cfg, span)`` grid that counts the rows by (``code``, slot) over
        the slots from ``chunk[0]``'s first to ``chunk[-1]``'s last, and
        ``joint[:, at[j]:at[j] + cards[y]]`` is the (``code``, state of y)
        table of ``y = chunk[j]``. No table is padded to another's domain;
        only the slots of ids between those of the chunk that it does not
        hold count zero. A chunk's row codes and joint hold at most
        ``_BATCH_ELEMENTS`` elements, unless a single table is larger. A
        chunk whose joint spans more cells than int64 codes can number
        raises ``ValueError`` before any code is written.
        """
        slots, cards = self.slots, self.cards
        room = max(1, _BATCH_ELEMENTS // n_cfg)  # slots per chunk
        lo = 0
        while lo < len(ys):
            first = slots[ys[lo]]
            hi = min(len(ys), lo + self.batch_rows)
            while hi - lo > 1 and slots[ys[hi - 1] + 1] - first > room:
                hi -= 1
            chunk = ys[lo:hi]
            lo = hi
            m, span = len(chunk), slots[chunk[-1] + 1] - first
            _check_codes(n_cfg * span, "the cells of {} base configurations by the "
                         "states of variables {}", n_cfg, list(chunk))
            codes = self.codes[:m]
            np.multiply(code, span, out=self.scaled)
            self.scaled -= first
            # each run of consecutive ids adds a slice of the shifted columns;
            # ascending ids that span m slots are one run
            runs = ([range(m)] if chunk[-1] - chunk[0] == m - 1 else
                    [list(run) for _, run in itertools.groupby(range(m), lambda j: chunk[j] - j)])
            for run in runs:
                np.add(self.shifted[chunk[run[0]]:chunk[run[-1]] + 1], self.scaled,
                       out=codes[run[0]:run[-1] + 1])
            joint = np.bincount(codes.ravel(), minlength=n_cfg * span)
            yield chunk, joint.reshape(n_cfg, span), [slots[y] - first for y in chunk]
