"""Values the engine computes once must equal a fresh computation.

``TableDef.row_width`` and ``IndexDef.columns``/``dtypes``/``key_width``/
``name`` are derived when the object is built instead of on every read.
These tests recompute each one from its definition over every indexable
column of the paper-scale catalog (plus a composite index) and check
that the derived values stay out of the descriptor's identity: equality,
hashing, ``repr``, pickling and COLT snapshots see the four dataclass
fields alone, byte for byte as before the values were precomputed.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core import ColtConfig, ColtTuner
from repro.engine.catalog import ColumnDef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef
from repro.persist import checksum, snapshot_tuner
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import shifting_workload

FIELDS = ("table", "column", "dtype", "extra_columns")

#: ``pickle.dumps(COMPOSITE, protocol=4)`` when the derived values were
#: still properties: the pickled state is the four fields, nothing else.
COMPOSITE_PICKLE = (
    b"\x80\x04\x95\xbe\x00\x00\x00\x00\x00\x00\x00\x8c\x12repro.engine.index"
    b"\x94\x8c\x08IndexDef\x94\x93\x94)\x81\x94}\x94(\x8c\x05table\x94\x8c\n"
    b"lineitem_1\x94\x8c\x06column\x94\x8c\nl_shipdate\x94\x8c\x05dtype\x94"
    b"\x8c\x16repro.engine.datatypes\x94\x8c\x08DataType\x94\x93\x94\x8c\x04"
    b"date\x94\x85\x94R\x94\x8c\rextra_columns\x94\x8c\nl_quantity\x94h\x0c"
    b"\x8c\x05float\x94\x85\x94R\x94\x86\x94\x85\x94ub."
)

#: Checksum of the COLT snapshot taken in ``test_colt_snapshot_bytes_unchanged``,
#: recorded before the derived values were precomputed.
SNAPSHOT_CHECKSUM = "6cf8bae17ca522de81103f34e14735e3525c389f2f7dfe2c21680bcc67506579"


def _indexes():
    catalog = build_catalog()
    indexes = [
        catalog.index_for(ref.table, ref.column)
        for ref in catalog.indexable_columns()
    ]
    composite = catalog.composite_index_for(
        "lineitem_1", ["l_shipdate", "l_quantity"]
    )
    return indexes, composite


def _fields(index):
    return tuple(getattr(index, name) for name in FIELDS)


class TestIndexDefDerivedValues:
    def test_covers_every_indexable_column(self):
        indexes, composite = _indexes()
        assert len(indexes) == 244
        assert composite.is_composite

    def test_derived_values_equal_the_formula(self):
        indexes, composite = _indexes()
        for index in indexes + [composite]:
            columns = (index.column,) + tuple(n for n, _ in index.extra_columns)
            dtypes = (index.dtype,) + tuple(d for _, d in index.extra_columns)
            assert index.columns == columns
            assert index.dtypes == dtypes
            assert index.key_width == sum(d.width for d in dtypes)
            assert index.name == f"ix_{index.table}_" + "_".join(columns)
            assert str(index) == index.name
        assert composite.columns == ("l_shipdate", "l_quantity")
        assert composite.key_width == 16

    def test_identity_is_the_four_fields(self):
        indexes, composite = _indexes()
        for index in indexes + [composite]:
            twin = IndexDef(*_fields(index))
            assert twin == index and twin is not index
            assert hash(index) == hash(_fields(index))
            assert repr(index) == (
                f"IndexDef(table={index.table!r}, column={index.column!r}, "
                f"dtype={index.dtype!r}, extra_columns={index.extra_columns!r})"
            )
            assert dataclasses.astuple(index) == _fields(index)
        other = IndexDef("lineitem_1", "l_shipdate", DataType.DATE)
        assert other != composite

    def test_pickle_round_trip(self):
        indexes, composite = _indexes()
        for index in indexes + [composite]:
            restored = pickle.loads(pickle.dumps(index))
            assert restored == index
            assert hash(restored) == hash(index)
            assert vars(restored) == vars(index)
            assert vars(copy.deepcopy(index)) == vars(index)
            assert vars(copy.copy(index)) == vars(index)

    def test_pickled_state_is_the_four_fields(self):
        _, composite = _indexes()
        assert pickle.dumps(composite, protocol=4) == COMPOSITE_PICKLE
        state = composite.__reduce_ex__(2)[2]
        assert list(state) == list(FIELDS)

    def test_frozen_derived_values_included(self):
        _, composite = _indexes()
        for name in FIELDS + ("columns", "dtypes", "key_width", "name"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(composite, name, None)

    def test_colt_snapshot_bytes_unchanged(self):
        catalog = build_catalog()
        workload = shifting_workload(
            phase_distributions(), catalog, phase_length=60, transition=10, seed=0
        )
        tuner = ColtTuner(catalog, ColtConfig(storage_budget_pages=9000.0, seed=0))
        for query in workload.queries[:270]:
            tuner.process_query(query)
        snapshot = snapshot_tuner(tuner)
        assert snapshot["materialized"]
        assert checksum(snapshot) == SNAPSHOT_CHECKSUM


class TestRowWidth:
    def test_every_table_sums_its_columns(self):
        for table in build_catalog().tables():
            assert table.row_width == sum(c.dtype.width for c in table.columns)

    def test_stays_out_of_equality_and_repr(self):
        table = TableDef("t", [ColumnDef("a", DataType.INT), ColumnDef("b", DataType.TEXT)])
        assert table.row_width == 20
        assert table == TableDef("t", [ColumnDef("a", DataType.INT), ColumnDef("b", DataType.TEXT)])
        assert "row_width" not in repr(table)
