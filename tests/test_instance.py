import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlrerank.errors import MalformedDatabase
from sqlrerank.executor import ExecutionResult
from sqlrerank.instance import (
    DatabaseInstance,
    TableData,
    column_index,
    foreign_key_violations,
    instance_from_json,
    instance_to_json,
    validate_foreign_keys,
)
from sqlrerank.schema import ColumnType, SchemaGraph, Table

from conftest import col, make_instance


def test_table_data_rejects_ragged_rows():
    with pytest.raises(ValueError):
        TableData("t", ("a", "b"), ((1, 2), (3,)))


def test_instance_rejects_missing_table(student_schema):
    with pytest.raises(ValueError):
        DatabaseInstance(
            schema=student_schema,
            tables={
                "student": TableData("student", ("student_id", "name", "age"), ()),
            },
        )


def test_instance_rejects_unknown_table(student_schema):
    good = make_instance(student_schema, {"student": [], "enrollment": []})
    extra = dict(good.tables)
    extra["ghost"] = TableData("ghost", ("x",), ())
    with pytest.raises(ValueError):
        DatabaseInstance(schema=student_schema, tables=extra)


def test_instance_rejects_wrong_arity(student_schema):
    with pytest.raises(ValueError):
        make_instance(
            student_schema,
            {"student": [(1, "ann")], "enrollment": []},
        )


def test_instance_rejects_column_mismatch(student_schema):
    tables = {
        "student": TableData("student", ("student_id", "age", "name"), ()),
        "enrollment": TableData("enrollment", ("row_id", "student_id", "grade"), ()),
    }
    with pytest.raises(ValueError):
        DatabaseInstance(schema=student_schema, tables=tables)


def test_data_for_case_insensitive(student_instance):
    assert student_instance.data_for("STUDENT").rows == student_instance.data_for("student").rows
    with pytest.raises(KeyError):
        student_instance.data_for("ghost")


def test_row_count(student_instance):
    assert student_instance.row_count("student") == 4
    assert student_instance.row_count("enrollment") == 3


def test_column_index(student_instance):
    data = student_instance.data_for("student")
    assert column_index(data, "AGE") == 2
    with pytest.raises(KeyError):
        column_index(data, "nope")


def test_fk_violations_clean(student_instance):
    assert foreign_key_violations(student_instance) == []
    validate_foreign_keys(student_instance)


def test_fk_violations_detected(student_schema):
    inst = make_instance(
        student_schema,
        {
            "student": [(1, "ann", 20)],
            "enrollment": [(10, 1, 88), (11, 99, 77)],
        },
    )
    bad = foreign_key_violations(inst)
    assert len(bad) == 1
    fk, value = bad[0]
    assert fk.child_table == "enrollment"
    assert value == 99
    with pytest.raises(MalformedDatabase):
        validate_foreign_keys(inst)


def test_fk_null_child_value_allowed(self_ref_schema):
    inst = make_instance(
        self_ref_schema,
        {"employee": [(1, None, 100), (2, 1, 60)]},
    )
    assert foreign_key_violations(inst) == []


def test_fk_violation_self_reference(self_ref_schema):
    inst = make_instance(self_ref_schema, {"employee": [(1, 7, 100)]})
    bad = foreign_key_violations(inst)
    assert [v for _, v in bad] == [7]


def test_json_round_trip(student_instance):
    payload = instance_to_json(student_instance)
    back = instance_from_json(payload)
    assert back == student_instance


def test_json_round_trip_self_ref(self_ref_instance):
    assert instance_from_json(instance_to_json(self_ref_instance)) == self_ref_instance


def test_json_payload_shape(student_instance):
    payload = instance_to_json(student_instance)
    assert set(payload) == {"schema", "rows"}
    assert set(payload["rows"]) == {"student", "enrollment"}
    names = [t["name"] for t in payload["schema"]["tables"]]
    assert names == ["student", "enrollment"]


cells = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(cells, cells), max_size=8))
def test_json_round_trip_property(rows):
    schema = SchemaGraph(
        tables=(Table("t", (col("a", ColumnType.OTHER), col("b", ColumnType.OTHER))),)
    )
    inst = make_instance(schema, {"t": rows})
    assert instance_from_json(instance_to_json(inst)) == inst


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_refuses_non_finite_cells(student_instance, value):
    payload = json.loads(json.dumps(instance_to_json(student_instance)))
    payload["rows"]["enrollment"][1][2] = value
    with pytest.raises(MalformedDatabase, match="'enrollment' row 1 holds a non-finite number"):
        instance_from_json(payload)


def test_composite_junction_round_trip(junction_instance):
    assert instance_from_json(instance_to_json(junction_instance)) == junction_instance
    assert foreign_key_violations(junction_instance) == []


def test_row_width_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^row 1 of 't' has 1 cells, expected 2$"):
        TableData("t", ("a", "b"), ((1, 2), (3,), (4, 5, 6)))
    with pytest.raises(ValueError, match=r"^row 0 has 1 cells, expected 2$"):
        ExecutionResult(("a", "b"), ((1,),))
    # Zero columns and no rows are both fine.
    TableData("t", (), ((), ()))
    ExecutionResult(("a",), ())
