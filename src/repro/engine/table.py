"""Columnar tables for the query engine.

A :class:`Table` stores one numpy array per column, the layout a GPU
database keeps resident in device memory.  String columns are
dictionary-encoded at ingestion (int32 codes plus a value dictionary),
which is both what MapD does and what makes string predicates evaluable as
integer comparisons on the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidParameterError


@dataclass
class Table:
    """An immutable-by-convention columnar table.

    GROUP BY columns are factorized once per table (:meth:`factorized`)
    and the result is kept on the table, so a column mutated in place
    after its first GROUP BY is not seen; register a new table instead.
    """

    name: str
    columns: dict[str, np.ndarray]
    dictionaries: dict[str, list[str]] = field(default_factory=dict)
    _factorized: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.columns:
            raise InvalidParameterError("a table needs at least one column")
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) != 1:
            raise InvalidParameterError(
                f"columns of table {self.name!r} have unequal lengths: {lengths}"
            )

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def num_rows(self) -> int:
        return len(self)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        """Raw column data (dictionary codes for string columns)."""
        try:
            return self.columns[name]
        except KeyError:
            known = ", ".join(self.column_names)
            raise InvalidParameterError(
                f"table {self.name!r} has no column {name!r}; columns: {known}"
            ) from None

    def factorized(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct values of a column and each row's dense
        code into them (``np.unique(column, return_inverse=True)``, so
        NaN keys collapse into one group), computed once per table."""
        if name not in self._factorized:
            keys, codes = np.unique(self.column(name), return_inverse=True)
            self._factorized[name] = (keys, codes.reshape(-1))
        return self._factorized[name]

    def is_string_column(self, name: str) -> bool:
        return name in self.dictionaries

    def encode_string(self, column: str, value: str) -> int:
        """Dictionary code of ``value`` in ``column`` (-1 if absent)."""
        if column not in self.dictionaries:
            raise InvalidParameterError(f"column {column!r} is not a string column")
        try:
            return self.dictionaries[column].index(value)
        except ValueError:
            return -1

    def decode_strings(self, column: str, codes: np.ndarray) -> list[str]:
        """Materialize string values from dictionary codes."""
        dictionary = self.dictionaries[column]
        return [dictionary[int(code)] if code >= 0 else "" for code in codes]

    def column_bytes(self, name: str) -> int:
        """Bytes one full scan of the column reads."""
        return self.column(name).nbytes

    def row_bytes(self, names: list[str] | None = None) -> int:
        """Bytes per row across the named (default: all) columns."""
        names = names or self.column_names
        return sum(self.column(name).dtype.itemsize for name in names)


def make_table(name: str, data: dict[str, object]) -> Table:
    """Build a table, dictionary-encoding any string columns.

    Accepts numpy arrays or Python sequences; sequences of ``str`` become
    dictionary-encoded int32 code columns.
    """
    columns: dict[str, np.ndarray] = {}
    dictionaries: dict[str, list[str]] = {}
    for column_name, values in data.items():
        array = np.asarray(values)
        if array.dtype.kind in ("U", "O"):
            uniques, codes = np.unique(array.astype(str), return_inverse=True)
            columns[column_name] = codes.astype(np.int32)
            dictionaries[column_name] = [str(value) for value in uniques]
        else:
            columns[column_name] = array
    return Table(name=name, columns=columns, dictionaries=dictionaries)
