import copy
import json
import math
import re
import tracemalloc
import warnings
from array import array
from dataclasses import MISSING, astuple, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodcsim import workload
from geodcsim.errors import ConfigError, DataError, DataFormatError
from geodcsim.runner import load_sim_config
from geodcsim.workload import (
    MAX_BANDWIDTH_GB,
    MAX_OFFSET_MIN,
    MIN_DURATION_MIN,
    ResourceRanges,
    Task,
    TaskSpec,
    TaskStatus,
    Trace,
    assign_task_origins,
    compute_sla_deadline,
    from_us,
    generate_synthetic_trace,
    load_trace,
    minutes_to_us,
    origin_probabilities,
    origin_table,
    save_trace,
    to_us,
)

T0 = datetime(2024, 3, 1, 0, 0, tzinfo=timezone.utc)
T0_US = to_us(T0)
STEP = timedelta(minutes=15)
US = timedelta(microseconds=1)


def reference_trace(start, num_intervals, mean_tasks_per_interval, ranges, seed):
    """Scalar-draw form of ``generate_synthetic_trace``: one ``uniform`` call per
    non-constant range of each task."""
    rng = np.random.default_rng(seed)
    tasks = []
    job_counter = 0

    def draw(bounds):
        lo, hi = bounds
        return lo if lo == hi else float(rng.uniform(lo, hi))

    for i in range(num_intervals):
        t0 = start + i * STEP
        count = int(rng.poisson(mean_tasks_per_interval)) if mean_tasks_per_interval > 0 else 0
        for _ in range(count):
            job_counter += 1
            tasks.append(
                Task(
                    job_id=f"job-{job_counter:06d}",
                    arrival_us=to_us(t0),
                    duration_min=draw(ranges.duration_min),
                    cores_req=draw(ranges.cores_req),
                    gpu_req=draw(ranges.gpu_req),
                    mem_req=draw(ranges.mem_req),
                    bandwidth_gb=draw(ranges.bandwidth_gb),
                    sla_multiplier=draw(ranges.sla_multiplier),
                )
            )
    return tasks


def task_record(job_id="a", arrival="2024-03-01T00:00:00+00:00", duration=60.0,
                cores=4.0, gpu=0.0, mem=8.0, bw=1.0, origin=None):
    return {
        "job_id": job_id, "arrival_time": arrival, "duration_min": duration,
        "cores_req": cores, "gpu_req": gpu, "mem_req": mem, "bandwidth_gb": bw,
        "sla_multiplier": 1.5, "origin_dc_id": origin,
    }


def field_items(task):
    """A task's fields as (name, value) pairs, in field order."""
    return [(f.name, getattr(task, f.name)) for f in fields(Task)]


def write_trace(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


class TestTask:
    def test_deadline_default(self):
        t = Task("j", T0_US, 60.0, 1, 0, 1, 0.1, sla_multiplier=1.5)
        assert t.deadline_us == to_us(T0 + timedelta(minutes=90))

    def test_exact_multiplier_one(self):
        t = Task("j", T0_US, 60.0, 1, 0, 1, 0.1, sla_multiplier=1.0)
        assert compute_sla_deadline(t.arrival_us, t.duration_min,
                                    t.sla_multiplier) == to_us(T0 + timedelta(minutes=60))

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            Task("j", T0_US, 60.0, 1, 0, 1, 0.1, sla_multiplier=0.5)

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError, match="15"):
            Task("j", T0_US, 10.0, 1, 0, 1, 0.1)

    def test_unaligned_arrival_rejected(self):
        with pytest.raises(ValueError, match="15-minute"):
            Task("j", to_us(T0 + timedelta(minutes=7)), 60.0, 1, 0, 1, 0.1)

    def test_negative_resource_rejected(self):
        with pytest.raises(ValueError):
            Task("j", T0_US, 60.0, -1.0, 0, 1, 0.1)

    def test_negative_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth_gb must be >= 0"):
            Task("j", T0_US, 60.0, 1, 0, 1, -1.0)

    @pytest.mark.parametrize("field", range(3, 7), ids=["cores", "gpu", "mem", "bandwidth"])
    def test_nan_resource_rejected(self, field):
        """A NaN demand never fits, and as a queue block's least demand it would
        hide the block's other tasks from the first-fit scan."""
        args = ["j", T0_US, 60.0, 1.0, 0.0, 1.0, 0.1]
        args[field] = float("nan")
        with pytest.raises(ValueError, match="must be >= 0"):
            Task(*args)

    @pytest.mark.parametrize("field", range(3, 7), ids=["cores", "gpu", "mem", "bandwidth"])
    def test_infinite_resource_rejected(self, field):
        """An infinite demand never fits, and an infinite transfer has no delay."""
        args = ["j", T0_US, 60.0, 1.0, 0.0, 1.0, 0.1]
        args[field] = math.inf
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            Task(*args)

    def test_bandwidth_above_its_ceiling_rejected(self):
        """A transfer of 1e306 GB overflowed its delay to an infinity in ``delay_steps``."""
        with pytest.raises(ValueError, match=r"^task j: bandwidth_gb must be <= 1e\+06$"):
            Task("j", T0_US, 60.0, 1, 0, 1, 1e306)
        assert Task("j", T0_US, 60.0, 1, 0, 1, MAX_BANDWIDTH_GB).bandwidth_gb == MAX_BANDWIDTH_GB

    def test_status_machine(self):
        t = Task("j", T0_US, 60.0, 1, 0, 1, 0.1)
        t.set_status(TaskStatus.IN_TRANSIT)
        t.set_status(TaskStatus.PENDING)
        t.set_status(TaskStatus.RUNNING)
        t.set_status(TaskStatus.COMPLETED)
        with pytest.raises(ValueError, match="illegal"):
            t.set_status(TaskStatus.PENDING)


class TestCopy:
    def test_clone_equals_its_source_and_shares_no_state(self):
        source = Task("j", T0_US, 60.0, 1.0, 0.0, 1.0, 0.1, origin_dc_id=2)
        clone = copy.copy(source)
        assert type(clone) is Task and clone is not source
        assert field_items(clone) == field_items(source)
        assert ([type(v) for _, v in field_items(clone)]
                == [type(v) for _, v in field_items(source)])
        before = field_items(source)
        clone.set_status(TaskStatus.RUNNING)
        clone.origin_dc_id, clone.dest_dc_id, clone.start_us = 3, 3, T0_US
        clone.cores_req = 5.0
        assert field_items(source) == before and source.status is TaskStatus.PENDING

    def test_slots_are_the_fields_and_a_task_has_no_dict(self):
        """``TaskSpec.task`` assigns each field by name: a new field must reach it."""
        assert list(Task.__slots__) == [f.name for f in fields(Task)]
        task = Task("j", T0_US, 60.0, 1.0, 0.0, 1.0, 0.1)
        assert not hasattr(task, "__dict__")
        with pytest.raises(AttributeError):
            task.note = "ad hoc"

    def test_clone_keeps_every_field_set_away_from_its_default(self):
        source = Task("j", T0_US, 60.0, 2.0, 3.0, 4.0, 0.5, sla_multiplier=1.25, origin_dc_id=1)
        source.set_status(TaskStatus.RUNNING)
        source.dest_dc_id = 5
        source.start_us, source.completion_us = to_us(T0 + STEP), to_us(T0 + 4 * STEP)
        items = field_items(source)
        # no field at its default and no two fields equal, so a dropped or a
        # crossed assignment cannot clone equal
        assert all(getattr(source, f.name) != f.default for f in fields(Task)
                   if f.default is not MISSING)
        assert len({v for _, v in items}) == len(items) == 15
        clone = copy.copy(source)
        assert type(clone) is Task and clone is not source
        assert field_items(clone) == items
        assert [type(v) for _, v in field_items(clone)] == [type(v) for _, v in items]


class TestSpec:
    def test_spec_fields_are_the_tasks_first_eleven(self):
        assert list(TaskSpec._fields) == [f.name for f in fields(Task)][:11]

    def test_task_of_a_spec_is_a_new_pending_task_with_its_fields(self):
        source = Task("j", T0_US, 60.0, 2.0, 3.0, 4.0, 0.5, sla_multiplier=1.25, origin_dc_id=1)
        spec = source.spec()
        assert type(spec) is TaskSpec and tuple(spec) == astuple(source)[:11]
        tasks = [spec.task(), spec.task()]
        assert tasks[0] is not tasks[1]
        for task in tasks:
            assert type(task) is Task
            assert field_items(task) == field_items(source)
            assert [type(v) for _, v in field_items(task)] == [type(v) for _, v in field_items(source)]
        tasks[0].set_status(TaskStatus.RUNNING)
        assert tasks[1].status is TaskStatus.PENDING and spec == source.spec()

    def test_a_spec_stays_a_slotted_spec(self):
        spec = Task("j", T0_US, 60.0, 2.0, 3.0, 4.0, 0.5).spec()
        changed = spec._replace(cores_req=1.0)
        assert type(changed) is TaskSpec and changed.cores_req == 1.0
        assert type(TaskSpec._make(spec)) is TaskSpec and not hasattr(spec, "__dict__")

    def test_domains_are_the_declared_ones_in_field_order(self):
        """The six numbers a trace record holds and ``ResourceRanges`` draws, each with
        the (floor, ceiling) its ``Task`` field declares."""
        declared = [(f.name, f.metadata["domain"]) for f in fields(Task)
                    if f.metadata.get("domain")]
        assert list(workload._DOMAINS.items()) == declared
        assert list(workload._DOMAINS) == [f.name for f in fields(ResourceRanges)]
        assert workload._DOMAINS == {
            "duration_min": (MIN_DURATION_MIN, math.inf), "cores_req": (0.0, math.inf),
            "gpu_req": (0.0, math.inf), "mem_req": (0.0, math.inf),
            "bandwidth_gb": (0.0, MAX_BANDWIDTH_GB), "sla_multiplier": (1.0, math.inf)}


class TestTrace:
    def specs(self):
        """Specs of three tasks over two arrivals, the later one first, with an int
        ``cores_req`` in one."""
        return [Task("c", to_us(T0 + STEP), 30.0, 2.0, 1.0, 3.0, 0.5, origin_dc_id=2).spec(),
                Task("a", T0_US, 60.0, 4, 0.0, 8.0, 1.0).spec(),
                Task("b", T0_US, 15.0, 1.5, 0.0, 2.0, 0.25, sla_multiplier=2.0).spec()]

    def test_from_specs_is_the_stable_arrival_sort_with_each_type_kept(self):
        specs = self.specs()
        trace = Trace.from_specs(iter(specs))
        want = [specs[1], specs[2], specs[0]]
        assert list(trace) == want and trace == want and len(trace) == 3
        assert [list(map(type, row)) for row in trace] == [list(map(type, s)) for s in want]
        assert all(type(row) is TaskSpec for row in trace)
        assert [trace[i] for i in (0, 1, 2, -1)] == [*want, want[-1]]
        assert trace[1:] == want[1:] and type(trace[1:]) is Trace

    def test_columns_are_arrays_unless_a_number_is_an_int(self):
        trace = Trace.from_specs(self.specs())
        assert trace.job_id == ["a", "b", "c"] and trace.origin_dc_id == [None, None, 2]
        assert trace.arrival_us == array("q", [T0_US, T0_US, to_us(T0 + STEP)])
        assert type(trace.deadline_us) is array and type(trace.duration_min) is array
        assert trace.cores_req == [4, 1.5, 2.0]  # a list: its int reads back an int

    def test_empty(self):
        trace = Trace.from_specs([])
        assert len(trace) == 0 and trace == [] and list(trace) == []
        assert trace.tasks(0, 0) == []

    def test_tasks_are_new_pending_tasks_of_a_slice(self):
        trace = Trace.from_specs(self.specs())
        tasks = trace.tasks(1, 3)
        assert [t.job_id for t in tasks] == ["b", "c"]
        assert [field_items(t) for t in tasks] == [field_items(s.task()) for s in trace[1:3]]
        assert all(type(t) is Task and t.status is TaskStatus.PENDING for t in tasks)
        assert trace.tasks(1, 3)[0] is not tasks[0]

    def test_an_empty_range_slices_no_column(self):
        """A step without arrivals gets ``[]`` without slicing the eleven columns; the
        next range still gives its rows."""
        trace = Trace.from_specs(self.specs())
        sliced = []

        class Column(list):
            def __getitem__(self, index):
                sliced.append(index)
                return super().__getitem__(index)

        trace.job_id = Column(trace.job_id)
        assert trace.tasks(1, 1) == [] and trace.tasks(3, 3) == [] and sliced == []
        assert [t.job_id for t in trace.tasks(1, 3)] == ["b", "c"]
        assert sliced == [slice(1, 3)]

    def test_step_rows_are_each_steps_arrivals(self):
        trace = Trace.from_specs(self.specs())  # two rows at T0, one a step later
        assert trace.step_rows(T0_US, 3) == [(0, 2), (2, 3), (3, 3)]
        assert trace.step_rows(to_us(T0 - STEP), 2) == [(0, 0), (0, 2)]
        assert trace.step_rows(T0_US, 0) == []
        assert Trace.from_specs([]).step_rows(T0_US, 1) == [(0, 0)]

    def test_columns_of_unequal_length_or_out_of_order_are_refused(self):
        trace = Trace.from_specs(self.specs())
        columns = [getattr(trace, name) for name in TaskSpec._fields]
        with pytest.raises(ValueError, match="^trace columns must be equally long$"):
            Trace(*columns[:-1], columns[-1][:2])
        backwards = [column[::-1] for column in columns]
        with pytest.raises(ValueError, match="^a trace's arrivals must be in order$"):
            Trace(*backwards)
        with pytest.raises(ValueError):
            Trace(*columns[:-1])

    def test_a_trace_is_no_list_and_compares_by_rows(self):
        trace = Trace.from_specs(self.specs())
        assert trace != tuple(trace) and trace != "abc"
        assert trace == Trace.from_specs(list(trace)) and trace != trace[:2]
        with pytest.raises(TypeError):
            trace[0] = trace[1]


def test_a_saturated_sized_trace_holds_at_most_200_bytes_a_task():
    """The shipped ranges at 40 tasks a step for 4 days, as the ``saturated`` benchmark
    draws them. A list of ``TaskSpec``s held about 390 B a task; the columns about 152."""
    ranges = load_sim_config(Path(__file__).resolve().parent.parent / "configs" / "sim.yaml"
                             ).resource_ranges
    generate_synthetic_trace(T0, 4, 40.0, ranges, seed=0)  # numpy's first-call state
    tracemalloc.start()
    try:
        trace = generate_synthetic_trace(T0, 4 * 96, 40.0, ranges, seed=0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 15_000
    assert held / len(trace) <= 200


class TestLoadTrace:
    def test_grouping(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl", [
            task_record("a"),
            task_record("b"),
            task_record("c", arrival="2024-03-01T00:15:00+00:00"),
        ])
        trace = load_trace(p)
        assert [t.arrival_us for t in trace] == [T0_US, T0_US, to_us(T0 + STEP)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        assert load_trace(p) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("\n" + json.dumps(task_record("a")) + "\n  \n\n"
                     + json.dumps(task_record("b")) + "\n\n")
        assert [t.job_id for t in load_trace(p)] == ["a", "b"]

    def test_numeric_text_loads_as_its_number(self, tmp_path):
        """A trace's numbers may be written as text, and load as the number they write."""
        as_text = write_trace(tmp_path / "text.jsonl", [
            task_record("a", duration="60", cores="4", gpu=" 1.5 ", mem="8e0", bw="1")])
        as_numbers = write_trace(tmp_path / "numbers.jsonl", [
            task_record("a", duration=60.0, cores=4.0, gpu=1.5, mem=8.0, bw=1.0)])
        (task,) = load_trace(as_text)
        assert load_trace(as_text) == load_trace(as_numbers)
        assert all(type(v) is float for v in (task.duration_min, task.cores_req, task.gpu_req,
                                              task.mem_req, task.bandwidth_gb))

    def test_bytes_that_are_no_text_name_the_file(self, tmp_path):
        """A byte 0xff leaked a UnicodeDecodeError, which the CLI printed as a traceback."""
        p = write_trace(tmp_path / "t.jsonl", [task_record("a")])
        p.write_bytes(p.read_bytes()[:10] + b"\xff" + p.read_bytes()[10:])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: 'utf-8' codec "):
            load_trace(p)

    def test_bandwidth_above_its_ceiling_names_the_file(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), task_record("b", bw=1e306)])
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: line 2: task b: "
                                            r"bandwidth_gb must be <= 1e\+06$"):
            load_trace(p)

    def test_short_task_cites_floor(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl", [task_record("a", duration=10.0)])
        with pytest.raises(DataError, match="15"):
            load_trace(p)

    def test_bad_json_cites_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(task_record("a")) + "\n{broken\n")
        with pytest.raises(DataError, match="line 2"):
            load_trace(p)

    def test_unaligned_arrival(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl",
                        [task_record("a", arrival="2024-03-01T00:07:00+00:00")])
        with pytest.raises(DataError):
            load_trace(p)

    @pytest.mark.parametrize("field, value", [
        ("duration_min", float("inf")),
        ("duration_min", 1e300),
        ("duration_min", float("nan")),
        ("sla_multiplier", float("nan")),
    ], ids=["duration_infinity", "duration_1e300", "duration_nan", "multiplier_nan"])
    def test_unusable_deadline_names_file_line_and_field(self, tmp_path, field, value):
        """A deadline that is NaN or does not fit a datetime ends as a DataError."""
        bad = task_record("b")
        bad[field] = value
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: line 2: task b: {field} "):
            load_trace(p)

    @pytest.mark.parametrize("field, value, expected", [
        ("cores_req", True, "cores_req must be a number, got true"),
        ("gpu_req", False, "gpu_req must be a number, got false"),
        ("duration_min", True, "duration_min must be a number, got true"),
        ("sla_multiplier", True, "sla_multiplier must be a number, got true"),
        ("mem_req", None, "mem_req must be a number, got null"),
        ("bandwidth_gb", [1], "bandwidth_gb must be a number, got [1]"),
        ("cores_req", 10**400, f"cores_req must be a number, got {10**400}"),
        ("cores_req", "four", 'cores_req must be a number, got "four"'),
        ("cores_req", "1e400", 'cores_req must be a number, got "1e400"'),
        ("origin_dc_id", True, "origin_dc_id must be an integer or null, got true"),
        ("origin_dc_id", "1", 'origin_dc_id must be an integer or null, got "1"'),
        ("origin_dc_id", 1.5, "origin_dc_id must be an integer or null, got 1.5"),
    ], ids=["cores_true", "gpu_false", "duration_true", "multiplier_true", "mem_null",
            "bandwidth_list", "cores_too_large", "cores_text", "cores_text_too_large",
            "origin_true", "origin_string", "origin_fraction"])
    def test_field_of_wrong_kind_names_file_line_task_and_field(self, tmp_path, field, value,
                                                               expected):
        """A JSON true or false is not a task number, and an origin is an integer or null."""
        bad = task_record("b")
        bad[field] = value
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}: line 2: task b: {expected}')}$"):
            load_trace(p)

    @pytest.mark.parametrize("line", ["[1]", '"a"', "5", "null"],
                             ids=["array", "string", "number", "null"])
    def test_line_that_is_not_an_object_names_file_and_line(self, tmp_path, line):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(task_record("a")) + "\n" + line + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}: line 2: a task must be a JSON object, got {line}')}$"):
            load_trace(p)

    @pytest.mark.parametrize("value", [5, None, ["2024-03-01T00:00:00+00:00"], "noon"],
                             ids=["number", "null", "array", "unparsable"])
    def test_arrival_time_not_an_iso_string_names_task_and_field(self, tmp_path, value):
        bad = task_record("b")
        bad["arrival_time"] = value
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        expected = f"{p}: line 2: task b: arrival_time must be an ISO 8601 date-time, got "
        with pytest.raises(DataError, match=f"^{re.escape(expected + json.dumps(value))}$"):
            load_trace(p)

    def test_naive_arrival_time_names_file_line_and_task(self, tmp_path):
        bad = task_record("b")
        bad["arrival_time"] = "2024-03-01T00:00:00"
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        expected = f"{p}: line 2: task b: arrival_time must be timezone-aware UTC"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_trace(p)

    def test_arrival_before_year_one_in_utc_names_file_line_and_task(self, tmp_path):
        """Converting it to UTC overflows a date, which left the load as an OverflowError."""
        p = write_trace(tmp_path / "t.jsonl",
                        [task_record("a", arrival="0001-01-01T00:00:00+01:00")])
        expected = f"{p}: line 1: task a: date value out of range"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_trace(p)

    @pytest.mark.parametrize("field", ["cores_req", "gpu_req", "mem_req", "bandwidth_gb"])
    def test_infinite_demand_names_file_line_task_and_field(self, tmp_path, field):
        bad = task_record("b")
        bad[field] = math.inf  # written as the JSON extension Infinity, which json reads
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        expected = f"{p}: line 2: task b: {field} must be >= 0 and finite"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_trace(p)

    @pytest.mark.parametrize("value", [None, True, False, [1], 1.5, {"id": 1}],
                             ids=["null", "true", "false", "array", "fraction", "object"])
    def test_job_id_not_a_string_or_integer_names_file_and_line(self, tmp_path, value):
        bad = task_record("b")
        bad["job_id"] = value
        p = write_trace(tmp_path / "t.jsonl", [task_record("a"), bad])
        expected = (f"{p}: line 2: job_id must be a string or an integer, "
                    f"got {json.dumps(value)}")
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_trace(p)

    def test_integer_past_the_digit_limit_names_file_and_line(self, tmp_path):
        # Python caps int() at 4,300 digits; without the cap the number is too large
        # for a float instead. Either way the error names the file and line.
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(task_record("a")) + "\n"
                     + json.dumps(task_record("b")).replace('"cores_req": 4.0',
                                                          '"cores_req": ' + "9" * 5001) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: line 2: "):
            load_trace(p)

    def test_integer_job_id_reads_as_its_decimal_text(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl", [task_record(7), task_record(-12)])
        assert [t.job_id for t in load_trace(p)] == ["7", "-12"]

    def test_saved_bytes(self, tmp_path):
        """The exact text ``save_trace`` writes: keys in field order, lifecycle left out."""
        a = Task("a", T0_US, 60.0, 4.0, 0.0, 8.0, 1.0, origin_dc_id=2)
        b = Task("b", T0_US, 15.0, 16.5, 2, 0.1 + 0.2, 1e-05, sla_multiplier=1.2)
        b.set_status(TaskStatus.RUNNING)
        b.dest_dc_id, b.start_us = 3, T0_US
        c = Task("c", to_us(T0 + STEP), 180.0, 1.0, 0.0, 2.0, 0.25)
        out = tmp_path / "t.jsonl"
        save_trace([a, b, c], out)
        assert out.read_bytes() == (
            b'{"job_id": "a", "arrival_time": "2024-03-01T00:00:00+00:00", "duration_min": 60.0, '
            b'"cores_req": 4.0, "gpu_req": 0.0, "mem_req": 8.0, "bandwidth_gb": 1.0, '
            b'"sla_multiplier": 1.5, "origin_dc_id": 2}\n'
            b'{"job_id": "b", "arrival_time": "2024-03-01T00:00:00+00:00", "duration_min": 15.0, '
            b'"cores_req": 16.5, "gpu_req": 2, "mem_req": 0.30000000000000004, '
            b'"bandwidth_gb": 1e-05, "sla_multiplier": 1.2, "origin_dc_id": null}\n'
            b'{"job_id": "c", "arrival_time": "2024-03-01T00:15:00+00:00", "duration_min": 180.0, '
            b'"cores_req": 1.0, "gpu_req": 0.0, "mem_req": 2.0, "bandwidth_gb": 0.25, '
            b'"sla_multiplier": 1.5, "origin_dc_id": null}\n'
        )

    def test_round_trip(self, tmp_path):
        p = write_trace(tmp_path / "t.jsonl", [
            task_record("a", origin=2),
            task_record("b", cores=16.5, gpu=2.0),
            task_record("c", arrival="2024-03-01T01:00:00+00:00", bw=0.25),
        ])
        trace = load_trace(p)
        out = tmp_path / "t2.jsonl"
        save_trace(trace, out)
        assert load_trace(out) == trace


class TestOrigins:
    def test_equal_activity_cancels(self):
        # both DCs at local noon: probabilities proportional to weights
        now = T0.replace(hour=12)
        probs = origin_probabilities([(1, 0, 0.6), (2, 0, 0.4)], now)
        assert probs == pytest.approx([0.6, 0.4])

    def test_business_hours_asymmetry(self):
        # DC1 local 12:00 (active), DC2 local 02:00 (off-hours)
        now = T0.replace(hour=12)
        probs = origin_probabilities([(1, 0, 0.5), (2, 14, 0.5)], now)
        assert probs == pytest.approx([0.5 / 0.65, 0.15 / 0.65])
        assert probs == pytest.approx([0.7692, 0.2308], abs=1e-4)

    def test_boundary_hours(self):
        # activity flips exactly at 08 and 20 local
        probs_8 = origin_probabilities([(1, 8, 1.0), (2, 0, 1.0)], T0)  # locals 08:00, 00:00
        assert probs_8 == pytest.approx([1.0 / 1.3, 0.3 / 1.3])
        probs_20 = origin_probabilities([(1, 20, 1.0), (2, 12, 1.0)], T0)  # locals 20:00, 12:00
        assert probs_20 == pytest.approx([0.3 / 1.3, 1.0 / 1.3])

    def test_sampling_frequencies(self):
        now = T0.replace(hour=12)
        dcs = [(1, 0, 0.5), (2, 14, 0.5)]
        tasks = [Task(f"j{i}", T0_US, 60.0, 1, 0, 1, 0.1) for i in range(100_000)]
        assign_task_origins(tasks, *origin_table(dcs, now), np.random.default_rng(123))
        freq1 = sum(1 for t in tasks if t.origin_dc_id == 1) / len(tasks)
        assert freq1 == pytest.approx(0.7692, abs=0.01)
        assert all(t.origin_dc_id in (1, 2) for t in tasks)

    def test_deterministic_given_seed(self):
        dcs = [(1, 0, 0.5), (2, 5, 0.5)]
        a = [Task(f"j{i}", T0_US, 60.0, 1, 0, 1, 0.1) for i in range(50)]
        b = [Task(f"j{i}", T0_US, 60.0, 1, 0, 1, 0.1) for i in range(50)]
        assign_task_origins(a, *origin_table(dcs, T0), np.random.default_rng(7))
        assign_task_origins(b, *origin_table(dcs, T0), np.random.default_rng(7))
        assert [t.origin_dc_id for t in a] == [t.origin_dc_id for t in b]

    def test_empty_dc_list(self):
        with pytest.raises(ValueError):
            origin_probabilities([], T0)

    @pytest.mark.parametrize("n_sites", [1, 3, 48])
    @pytest.mark.parametrize("n_tasks", [0, 1, 2, 40])
    def test_table_draw_is_generator_choice(self, n_sites, n_tasks):
        """One ``random()`` draw per task placed in the cumulative table gives the
        origins ``Generator.choice`` gives, and leaves the stream where it leaves it."""
        shifts = [-7.0, 1.0, 8.0, 5.5, -3.25]
        dcs = [(i + 10, shifts[i % len(shifts)], 0.05 + (i * 0.37) % 1.0)
               for i in range(n_sites)]
        for hour in (0, 9, 15, 21):
            now = T0.replace(hour=hour, minute=45)
            tasks = [Task(f"j{i}", T0_US, 60.0, 1, 0, 1, 0.1) for i in range(n_tasks)]
            ours, theirs = np.random.default_rng(hour), np.random.default_rng(hour)
            assign_task_origins(tasks, *origin_table(dcs, now), ours)
            expected = theirs.choice([dc[0] for dc in dcs], size=n_tasks,
                                     p=origin_probabilities(dcs, now))
            assert [t.origin_dc_id for t in tasks] == expected.tolist()
            assert all(type(t.origin_dc_id) is int for t in tasks)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("weights, hour", [((1e308, 1e308), 12), ((5e-324,), 0)],
                             ids=["overflow", "underflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # numpy's sum
    def test_weights_whose_scaled_sum_is_no_positive_float_are_refused(self, weights, hour):
        """Weights summing past the largest float made ``rng.choice`` fail on its ``p``
        check; the table has no such check, so its builder refuses them, naming them.
        The smallest subnormal weight scaled by the off-hours activity is 0."""
        dcs = [(i + 1, 0, w) for i, w in enumerate(weights)]
        with pytest.raises(ConfigError, match="^population weights: "):
            origin_table(dcs, T0.replace(hour=hour))



class TestSyntheticTrace:
    def test_zero_mean_is_empty(self):
        trace = generate_synthetic_trace(T0, 10, 0.0, ResourceRanges(), seed=0)
        assert trace == []

    def test_same_seed_identical(self):
        a = generate_synthetic_trace(T0, 20, 3.0, ResourceRanges(), seed=5)
        b = generate_synthetic_trace(T0, 20, 3.0, ResourceRanges(), seed=5)
        assert a == b

    def test_mean_close_to_target(self):
        trace = generate_synthetic_trace(T0, 1000, 10.0, ResourceRanges(), seed=1)
        mean = len(trace) / 1000
        assert mean == pytest.approx(10.0, rel=0.05)

    def test_duration_floor_enforced(self):
        with pytest.raises(ValueError):
            ResourceRanges(duration_min=(5.0, 60.0))

    def test_bandwidth_ceiling_enforced(self):
        """The trace's clones skip ``Task``'s checks, so the range holds the ceiling."""
        with pytest.raises(ValueError, match=r"^bandwidth_gb range must end at <= 1e\+06$"):
            ResourceRanges(bandwidth_gb=(0.1, 1e306))
        assert ResourceRanges(bandwidth_gb=(0.1, MAX_BANDWIDTH_GB)).bandwidth_gb[1] == 1e6

    @pytest.mark.parametrize("mean, ranges", [
        (6.0, ResourceRanges()),
        (6.0, ResourceRanges(gpu_req=(0, 0), bandwidth_gb=(1.0, 1.0),
                             sla_multiplier=(1.2, 2.0))),
        (6.0, ResourceRanges(duration_min=(30.0, 30.0), cores_req=(2.0, 2.0),
                             gpu_req=(0.0, 0.0), mem_req=(4.0, 4.0),
                             bandwidth_gb=(0.5, 0.5), sla_multiplier=(1.5, 1.5))),
        (0.0, ResourceRanges()),
    ], ids=["default", "some_constant", "all_constant", "zero_mean"])
    def test_matches_scalar_draws(self, mean, ranges):
        got = generate_synthetic_trace(T0, 200, mean, ranges, seed=3)
        want = reference_trace(T0, 200, mean, ranges, seed=3)
        got_tasks = [tuple(spec) for spec in got]
        want_tasks = [astuple(t)[:11] for t in want]  # a spec holds a task's first eleven fields
        assert got_tasks == want_tasks
        assert [list(map(type, t)) for t in got_tasks] == [list(map(type, t)) for t in want_tasks]
        assert (len(got_tasks) > 1000) == (mean > 0)
        # the same fields, deadline_us and duration_us included, by name and in field order
        assert ([list(zip(TaskSpec._fields, spec)) for spec in got]
                == [field_items(t)[:11] for t in want])

    def test_deadline_overflow_names_the_task_as_the_constructor_does(self):
        # about half the drawn deadlines pass year 9999; at this seed the first fits
        ranges = ResourceRanges(duration_min=(15.0, 5.6e9))
        with pytest.raises(ValueError, match="^task job-000006: .* overflows the deadline$") as got:
            generate_synthetic_trace(T0, 4, 6.0, ranges, seed=5)
        with pytest.raises(ValueError) as want:
            reference_trace(T0, 4, 6.0, ranges, seed=5)
        assert str(got.value) == str(want.value)

    def test_an_offset_past_the_largest_float_overflows_the_deadline_without_a_warning(self):
        """numpy warned where the float product ran past 1.8e308; Python's gives inf."""
        ranges = ResourceRanges(duration_min=(15.0, 1.7e308), sla_multiplier=(1.0, 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^task job-000001: .* overflows the deadline$"):
                generate_synthetic_trace(T0, 4, 6.0, ranges, seed=5)

    def test_a_long_trace_matches_scalar_draws(self):
        """Job numbers and the stream run on across thousands of tasks."""
        ranges = ResourceRanges(sla_multiplier=(1.2, 2.0))
        got = generate_synthetic_trace(T0, 100, 50.0, ranges, seed=4)
        assert len(got) > 4096
        want = reference_trace(T0, 100, 50.0, ranges, seed=4)
        assert [tuple(spec) for spec in got] == [astuple(t)[:11] for t in want]

    def test_tasks_satisfy_invariants(self):
        ranges = ResourceRanges(duration_min=(15.0, 45.0), cores_req=(0.5, 8.0))
        trace = generate_synthetic_trace(T0, 50, 4.0, ranges, seed=2)
        steps = {to_us(T0 + i * STEP) for i in range(50)}
        for t in trace:
            assert t.arrival_us in steps
            assert 15.0 <= t.duration_min <= 45.0
            assert 0.5 <= t.cores_req <= 8.0
            assert t.deadline_us > t.arrival_us


def _bounds(lo, hi, span):
    """A (lo, hi) range strategy: constant, or drawn over ``span`` from ``lo``."""
    drawn = st.tuples(st.floats(lo, hi), st.floats(0.0, span)).map(lambda r: (r[0], sum(r)))
    return st.one_of(st.floats(lo, hi).map(lambda x: (x, x)), drawn)


@settings(max_examples=60)
@given(duration=_bounds(15.0, 1e6, 1e6), multiplier=_bounds(1.0, 10.0, 10.0),
       mean=st.floats(0.5, 6.0), seed=st.integers(0, 2**32 - 1))
def test_synthetic_deadlines_and_durations_are_the_timedelta_forms_property(duration, multiplier,
                                                                            mean, seed):
    """Each drawn spec's ``deadline_us`` and ``duration_us`` are the microseconds of the
    ``datetime`` sum and the ``timedelta`` that a task's constructor computes."""
    ranges = ResourceRanges(duration_min=duration, sla_multiplier=multiplier)
    trace = generate_synthetic_trace(T0, 12, mean, ranges, seed)
    for spec in trace:
        assert spec.duration_us == timedelta(minutes=spec.duration_min) // US
        deadline = from_us(spec.arrival_us) + timedelta(minutes=spec.sla_multiplier
                                                        * spec.duration_min)
        assert spec.deadline_us == to_us(deadline)
        assert all(type(v) is int for v in (spec.arrival_us, spec.deadline_us, spec.duration_us))


# Exact halves of a microsecond: k whole minutes and m + 0.5 microseconds, whose
# leftover after the two ``modf`` splits is often exactly 0.5.
_HALVES = st.builds(lambda k, m: k + (m + 0.5) / 6e7,
                    st.integers(0, 50), st.integers(0, 6 * 10**7 - 1))
_NEAR_GUARD = st.floats(MAX_OFFSET_MIN * (1 - 1e-12), MAX_OFFSET_MIN)
_MINUTES = st.one_of(st.floats(-MAX_OFFSET_MIN, MAX_OFFSET_MIN), _HALVES, _NEAR_GUARD,
                     _HALVES.map(lambda x: -x), _NEAR_GUARD.map(lambda x: -x))


def _halves(minutes):
    """Those of ``minutes`` whose leftover, as ``timedelta`` computes it, is one half."""
    return [x for x in minutes if abs(math.modf(math.modf(x)[0] * 6e7)[0]) == 0.5]


class TestMinutesToUs:
    @settings(max_examples=300)
    @given(minutes=st.lists(_MINUTES, min_size=1, max_size=40))
    def test_equals_timedelta_property(self, minutes):
        got = minutes_to_us(np.array(minutes))
        assert got.dtype == np.int64
        assert got.tolist() == [timedelta(minutes=x) // US for x in minutes]

    def test_exact_halves_round_to_the_even_total(self):
        """Exact halves whose truncated total is odd and whose total is even both occur,
        and each rounds as ``timedelta`` rounds it, to an even count."""
        minutes = [k + (m + 0.5) / 6e7 for k in range(20) for m in range(0, 6 * 10**7, 199_999)]
        halves = _halves(minutes) + [-x for x in _halves(minutes)]
        truncated = {(math.trunc(x) * 60_000_000 + math.trunc(math.modf(x)[0] * 6e7)) % 2
                     for x in halves}
        assert len(halves) > 100 and truncated == {0, 1}
        want = [timedelta(minutes=x) // US for x in halves]
        assert minutes_to_us(np.array(halves)).tolist() == want
        assert all(us % 2 == 0 for us in want)

    @pytest.mark.parametrize("x", [math.nextafter(MAX_OFFSET_MIN, math.inf), -1e300, math.inf,
                                   math.nan], ids=["past_the_guard", "minus_1e300", "inf", "nan"])
    def test_past_the_guard_overflows(self, x):
        """No date lies that many minutes from another, and int64 could overflow."""
        with pytest.raises(OverflowError, match="^date value out of range$"):
            minutes_to_us(np.array([15.0, x]))
