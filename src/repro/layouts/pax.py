"""PAX block layout.

PAX (Partition Attributes Across, Ailamaki et al. 2001) keeps all records of a block inside the
block but stores them column-wise: one "minipage" per attribute.  HAIL converts every block to
PAX on the client during upload (Section 3.1) because a clustered index over one attribute then
needs to touch only that attribute's minipage, and projections read only the requested columns.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Optional, Sequence

from repro.layouts import serialization
from repro.layouts.schema import FieldType, Schema

#: Array typecodes backing the numeric fast path: 64-bit ints and doubles cover every fixed
#: numeric field type exactly (INT/FLOAT values widen losslessly into them).
_TYPED_CODES: dict[FieldType, str] = {
    FieldType.INT: "q",
    FieldType.BIGINT: "q",
    FieldType.FLOAT: "d",
    FieldType.DOUBLE: "d",
}

#: Largest integer magnitude float64 represents exactly (int/float cross-comparison bound).
_EXACT_FLOAT_INT = 2**53


class PaxBlock:
    """A block of records stored column-wise.

    The functional representation keeps each column as a Python list; byte sizes are computed
    from the schema so the cost model can charge realistic I/O volumes without materialising
    hundreds of megabytes.  Numeric columns additionally expose a lazily built typed
    ``array`` view (:meth:`typed_column_at`) whose buffer the kernel fast path wraps with
    ``memoryview``/``numpy.frombuffer`` at zero copy cost.

    Blocks are immutable after construction: nothing may change ``columns`` or ``num_rows``
    once the block exists (reorders build new blocks).  The typed-column cache, the memoized
    minipage sizes and the zone-map synopses derived from a block rely on this contract; a
    caller that needs different data builds a new block.  Internal construction paths that
    just pivoted or decoded fresh lists pass ``copy_columns=False`` to adopt them directly;
    the defensive copy remains the default for external callers handing in lists they may
    still mutate.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[list],
        num_rows: int,
        *,
        copy_columns: bool = True,
    ) -> None:
        if len(columns) != len(schema.fields):
            raise ValueError(
                f"expected {len(schema.fields)} columns for schema {schema.name!r}, got {len(columns)}"
            )
        for field, column in zip(schema.fields, columns):
            if len(column) != num_rows:
                raise ValueError(
                    f"column {field.name!r} has {len(column)} values but the block has {num_rows} rows"
                )
        self.schema = schema
        if copy_columns:
            self.columns: list[list] = [list(column) for column in columns]
        else:
            self.columns = [
                column if isinstance(column, list) else list(column) for column in columns
            ]
        self.num_rows = num_rows
        # Lazily built per-column typed views; a cached None marks a column that has no exact
        # typed representation (non-numeric type, or a BIGINT value outside int64).
        self._typed_columns: dict[int, Optional[array]] = {}
        self._int_fits_float: dict[int, bool] = {}
        # Per-column minipage sizes, computed on first use (see ``_minipage_sizes``).
        self._column_sizes: Optional[list[int]] = None
        self._total_size = 0

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_records(cls, schema: Schema, records: Sequence[Sequence[Any]]) -> "PaxBlock":
        """Pivot row-wise records into a PAX block."""
        num_fields = len(schema.fields)
        columns: list[list] = [[] for _ in range(num_fields)]
        for record in records:
            if len(record) != num_fields:
                raise ValueError(
                    f"record arity {len(record)} does not match schema {schema.name!r}"
                )
            for i, value in enumerate(record):
                columns[i].append(value)
        return cls(schema, columns, len(records), copy_columns=False)

    @classmethod
    def empty(cls, schema: Schema) -> "PaxBlock":
        """An empty PAX block (used for blocks that contain only bad records)."""
        return cls(schema, [[] for _ in schema.fields], 0, copy_columns=False)

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> list:
        """The full column (minipage) for attribute ``name``."""
        return self.columns[self.schema.index_of(name)]

    def column_at(self, index: int) -> list:
        """The full column at a 0-based attribute index."""
        return self.columns[index]

    def record(self, row: int) -> tuple:
        """Reconstruct one full record (all attributes) from the columns."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range 0..{self.num_rows - 1}")
        return tuple(column[row] for column in self.columns)

    def records(self, rows: Iterable[int] | None = None) -> list[tuple]:
        """Reconstruct several records; all of them when ``rows`` is ``None``."""
        if rows is None:
            rows = range(self.num_rows)
        return [self.record(row) for row in rows]

    def project(self, rows: Iterable[int], attribute_indexes: Sequence[int]) -> list[tuple]:
        """Reconstruct only the projected attributes (0-based indexes) of the given rows."""
        columns = [self.columns[i] for i in attribute_indexes]
        return [tuple(column[row] for column in columns) for row in rows]

    def reorder(self, permutation: Sequence[int]) -> "PaxBlock":
        """Return a new block whose rows follow ``permutation`` (the HAIL sort step)."""
        if len(permutation) != self.num_rows:
            raise ValueError("permutation length must equal the number of rows")
        new_columns = [[column[i] for i in permutation] for column in self.columns]
        block = PaxBlock(self.schema, new_columns, self.num_rows, copy_columns=False)
        # A permutation does not change any column's byte size.
        block._column_sizes = self._column_sizes
        block._total_size = self._total_size
        return block

    # ------------------------------------------------------------------ typed column views
    def typed_column_at(self, index: int) -> Optional[array]:
        """A typed ``array`` view of one column, or ``None`` if no exact view exists.

        Numeric columns (INT/BIGINT → ``array('q')``, FLOAT/DOUBLE → ``array('d')``) get a
        packed 64-bit representation whose buffer kernels can wrap zero-copy with
        ``memoryview``/``numpy.frombuffer``.  DATE and STRING columns — and integer columns
        holding a value outside int64 — have no exact packed form and return ``None``, which
        tells the kernel dispatcher to stay on the reference backend.  Views are built once
        per column and cached (blocks are immutable after construction).
        """
        try:
            return self._typed_columns[index]
        except KeyError:
            pass
        typecode = _TYPED_CODES.get(self.schema.fields[index].ftype)
        typed: Optional[array] = None
        if typecode is not None:
            try:
                typed = array(typecode, self.columns[index])
            except (OverflowError, TypeError, ValueError):
                typed = None
        self._typed_columns[index] = typed
        return typed

    def int_column_fits_float(self, index: int) -> bool:
        """True when every value of an integer column is exactly representable as float64.

        Kernels comparing an int64 column against a float operand promote the column to
        float64; the promotion is only exact below 2**53, so this bound gates that path.
        """
        try:
            return self._int_fits_float[index]
        except KeyError:
            pass
        typed = self.typed_column_at(index)
        if typed is None or typed.typecode != "q" or len(typed) == 0:
            fits = typed is not None and typed.typecode == "q"
        else:
            fits = -_EXACT_FLOAT_INT <= min(typed) and max(typed) <= _EXACT_FLOAT_INT
        self._int_fits_float[index] = fits
        return fits

    # ------------------------------------------------------------------ size accounting
    def _minipage_sizes(self) -> list[int]:
        """Binary size of every column's minipage, computed once per block."""
        if self._column_sizes is None:
            sizes = []
            for field, column in zip(self.schema.fields, self.columns):
                fixed = field.ftype.fixed_size
                if fixed is not None:
                    sizes.append(fixed * self.num_rows)
                else:
                    sizes.append(sum(field.binary_size(value) for value in column))
            self._column_sizes = sizes
            self._total_size = sum(sizes)
        return self._column_sizes

    def column_size_bytes(self, name: str) -> int:
        """Binary size of one column's minipage."""
        return self._minipage_sizes()[self.schema.index_of(name)]

    def size_bytes(self) -> int:
        """Binary size of all minipages (the PAX payload of the block)."""
        self._minipage_sizes()
        return self._total_size

    def projected_size_bytes(self, attribute_names: Sequence[str]) -> int:
        """Binary size of just the named columns (what a projection must read)."""
        return sum(self.column_size_bytes(name) for name in attribute_names)

    # ------------------------------------------------------------------ serialization
    def to_bytes(self) -> bytes:
        """Serialize all minipages (column after column) to bytes.

        The simulators keep blocks as Python objects and account only their sizes; the real
        bytes are produced where they are needed: the per-replica chunk checksums at upload,
        adaptive build and restore, and the persistence journal's block payloads.
        """
        parts = []
        for field, column in zip(self.schema.fields, self.columns):
            parts.append(serialization.encode_column(field, column))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, schema: Schema, payload: bytes, num_rows: int) -> "PaxBlock":
        """Deserialize a block written by :meth:`to_bytes`."""
        columns: list[list] = []
        offset = 0
        for field in schema.fields:
            column = []
            for _ in range(num_rows):
                value, offset = serialization.decode_value(field, payload, offset)
                column.append(value)
            columns.append(column)
        return cls(schema, columns, num_rows, copy_columns=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaxBlock(schema={self.schema.name!r}, rows={self.num_rows})"
