"""Categorical dataset handling: ingestion, projection, contingency counting.

Everything downstream (scores, independence tests, the structure learners)
consumes data exclusively through :class:`Dataset` and :func:`count`, so the
layout conventions fixed here propagate to the whole package:

* state labels of a variable are indexed in sorted (lexicographic) order;
* parent configurations are indexed lexicographically over the parents sorted
  by variable id, i.e. the first (smallest-id) parent is the most significant
  digit and the last parent varies fastest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VariableMeta",
    "Dataset",
    "ContingencyTable",
    "load_dataset",
    "project",
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
        Integer array of shape ``(n_rows, n_variables)``; entry ``[r, i]`` is
        the state index of variable ``i`` in row ``r``.
    """

    def __init__(self, variables: Sequence[VariableMeta], values: np.ndarray):
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (rows x variables)")
        if values.shape[1] != len(variables):
            raise ValueError(
                f"{len(variables)} variables but {values.shape[1]} value columns"
            )
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        cards = np.array([v.cardinality for v in variables], dtype=np.int64)
        if values.size:
            if values.min() < 0:
                raise ValueError("negative state index")
            if (values.max(axis=0) >= cards).any():
                bad = int(np.argmax(values.max(axis=0) >= cards))
                raise ValueError(
                    f"state index out of range for variable {names[bad]!r}"
                )
        self.variables: tuple[VariableMeta, ...] = tuple(variables)
        self.values: np.ndarray = np.ascontiguousarray(values, dtype=np.int32)
        self.values.setflags(write=False)
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
        if not 0 <= var < self.n_variables:
            raise KeyError(f"variable id {var} out of range")
        return int(var)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({self.n_variables} variables, {self.n_rows} rows)"


@dataclass
class ContingencyTable:
    """Joint counts of a child against the full parent-configuration grid.

    ``counts[x, z]`` is the number of rows where the child takes state ``x``
    and the (sorted) parents jointly take the ``z``-th lexicographic
    configuration. Configurations never seen in the data are present with
    count zero — the grid always covers the full Cartesian product.
    """

    child: int
    parents: tuple[int, ...]
    counts: np.ndarray  # shape (child cardinality, n parent configurations)
    n_rows: int
    parent_cards: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if int(self.counts.sum()) != self.n_rows:
            raise ValueError(
                f"counts sum to {int(self.counts.sum())}, expected n_rows="
                f"{self.n_rows}"
            )

    @property
    def marginals(self) -> np.ndarray:
        """Per-configuration totals ``N_z`` (sums over the child axis)."""
        return self.counts.sum(axis=0)


def load_dataset(path, delimiter: str = ",") -> Dataset:
    """Read a delimited text file (header row required) into a :class:`Dataset`.

    Domains are inferred as the sorted set of distinct labels per column.
    Files without data rows, empty cells and single-state columns are
    rejected: scoring needs complete data and two or more states per variable.
    """
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as exc:
        raise ValueError(f"bad delimiter {delimiter!r}: {exc}") from None
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file (missing header)") from None
            if any(not h.strip() for h in header):
                raise ValueError(f"{path}: blank column name in header")
            rows: list[list[str]] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue  # ignore completely blank lines
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{lineno}: ragged row ({len(row)} cells, "
                        f"expected {len(header)})"
                    )
                if "" in row:
                    raise ValueError(f"{path}:{lineno}: missing value")
                rows.append(row)
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

    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    columns = list(zip(*rows))
    variables = []
    encoded = np.empty((len(rows), len(header)), dtype=np.int32)
    for i, name in enumerate(header):
        labels = sorted(set(columns[i]))
        if len(labels) < 2:
            raise ValueError(
                f"{path}: column {name!r} has a single state; "
                "variables must take at least two values"
            )
        variables.append(VariableMeta(name, tuple(labels)))
        lookup = {lab: j for j, lab in enumerate(labels)}
        encoded[:, i] = np.fromiter(map(lookup.__getitem__, columns[i]), np.int32,
                                    count=len(rows))
    return Dataset(variables, encoded)


def project(d: Dataset, keep: Iterable[int | str]) -> Dataset:
    """Restrict the dataset to the given variables, keeping every row.

    ``keep`` may mix ids and names; the result preserves the original
    relative column order regardless of the order given.
    """
    ids = sorted({d._resolve(v) for v in keep})
    if not ids:
        raise ValueError("cannot project onto an empty variable set")
    return Dataset([d.variables[i] for i in ids], d.values[:, ids])


def count(d: Dataset, child: int | str, parents: Iterable[int | str] = ()) -> ContingencyTable:
    """Tally child states against every parent configuration.

    The parent list is normalised to ascending variable id; the returned
    table covers the full Cartesian product of parent domains even when some
    configurations are unobserved (those columns count zero — the scoring
    module relies on this when it sizes the penalty term).
    """
    ci = d._resolve(child)
    pids = sorted({d._resolve(p) for p in parents})
    if ci in pids:
        raise ValueError(f"child {d.variables[ci].name!r} cannot be its own parent")
    cards = d.cardinalities
    child_card = cards[ci]
    parent_cards = tuple(cards[p] for p in pids)

    n_cfg = math.prod(parent_cards)

    if pids:
        cfg = np.ravel_multi_index(
            tuple(d.values[:, p] for p in pids), parent_cards
        )
    else:
        cfg = np.zeros(d.n_rows, dtype=np.int64)
    flat = d.values[:, ci].astype(np.int64) * n_cfg + cfg
    tallies = np.bincount(flat, minlength=child_card * n_cfg)
    counts = tallies.reshape(child_card, n_cfg)
    return ContingencyTable(
        child=ci,
        parents=tuple(pids),
        counts=counts,
        n_rows=d.n_rows,
        parent_cards=parent_cards,
    )


# Cap on the elements of one batch's row codes and of its joint tally, so a
# batch's temporaries stay small for long data and for wide domains alike.
_BATCH_ELEMENTS = 1 << 20


class BatchTally:
    """Joint tallies of one base variable set with each of several extra
    variables, side by side in one bincount.

    Holds the columns as int64 rows and workspace buffers sized once, so a
    caller that tallies many batches (the exact learner's score table, each
    separator step, each hill-climb target) allocates them once.
    """

    def __init__(self, d: Dataset):
        self.cards = d.cardinalities
        self.cols = np.ascontiguousarray(d.values.T, dtype=np.int64)
        self.batch_rows = max(1, min(d.n_variables, _BATCH_ELEMENTS // d.n_rows))
        self.codes = np.empty((self.batch_rows, d.n_rows), dtype=np.int64)
        self.scaled = np.empty(d.n_rows, dtype=np.int64)

    def code(self, variables: Iterable[int]) -> np.ndarray:
        """Mixed-radix row code of ``variables``, the first most significant."""
        code = np.zeros(self.cols.shape[1], dtype=np.int64)
        for x in variables:
            code *= self.cards[x]
            code += self.cols[x]
        return code

    def joints(self, code: np.ndarray, n_cfg: int, ys: Sequence[int]):
        """Yield ``(chunk, joint)`` batches that cover the ascending ids ``ys``.

        ``code`` takes values below ``n_cfg``. ``joint[j]`` is the
        ``(n_cfg, width)`` grid counting the rows by (``code``, state of
        ``chunk[j]``), where ``width`` is the widest domain in the chunk; the
        padding cells beyond a variable's own domain count zero. A chunk's
        row codes and joints hold at most ``_BATCH_ELEMENTS`` elements,
        unless a single joint is larger.
        """
        cards = self.cards
        step = max(1, min(self.batch_rows,
                          _BATCH_ELEMENTS // (n_cfg * max(cards[y] for y in ys))))
        for lo in range(0, len(ys), step):
            chunk = ys[lo:lo + step]
            m = len(chunk)
            # child j's joint sits at offset j * n_cfg * width
            width = max(cards[y] for y in chunk)
            codes = self.codes[:m]
            np.multiply(code, width, out=self.scaled)
            # ascending distinct ids that span m slots are a slice: no copy
            rows = (self.cols[chunk[0]:chunk[-1] + 1] if chunk[-1] - chunk[0] == m - 1
                    else self.cols[chunk])
            np.add(rows, self.scaled, out=codes)
            codes += np.arange(0, m * n_cfg * width, n_cfg * width)[:, None]
            joint = np.bincount(codes.ravel(), minlength=m * n_cfg * width)
            yield chunk, joint.reshape(m, n_cfg, width)
