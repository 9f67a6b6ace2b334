"""``errors.naming``, the one owner of an input file's name in an error message, and
the guard that keeps every other module from writing a path into one itself."""

import ast
import csv
import re
from pathlib import Path

import pytest

from geodcsim.errors import (ConfigError, CoverageError, DataError, DataFormatError,
                             ProtocolError, naming)

SRC = Path(__file__).resolve().parent.parent / "src" / "geodcsim"


class TestNaming:
    @pytest.mark.parametrize("kind", [DataError, DataFormatError, ConfigError, CoverageError,
                                      ProtocolError])
    def test_a_simulator_error_keeps_its_type_behind_the_path(self, kind):
        with pytest.raises(kind, match=r"^in\.csv: row 2: bad$") as info:
            with naming("in.csv"):
                raise kind("row 2: bad")
        assert type(info.value.__cause__) is kind

    @pytest.mark.parametrize("exc", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        csv.Error("field larger than field limit (131072)"),
    ], ids=["decode", "csv"])
    def test_bytes_no_csv_reader_can_split_are_a_format_error(self, exc):
        with pytest.raises(DataFormatError, match=f"^in\\.csv: {re.escape(str(exc))}$"):
            with naming("in.csv"):
                raise exc

    def test_nested_owners_name_both_files_outer_first(self):
        with pytest.raises(ConfigError, match=r"^a\.csv: b\.csv: region 'x' not in cost matrix$"):
            with naming("a.csv"), naming("b.csv"):
                raise ConfigError("region 'x' not in cost matrix")

    def test_any_other_exception_passes_unchanged(self):
        with pytest.raises(KeyError) as info:
            with naming("in.csv"):
                raise KeyError("k")
        assert info.value.args == ("k",)


def _names_a_file(node: ast.AST) -> bool:
    """Whether expression ``node`` reads a name or attribute that holds a file path."""
    return any(
        re.search(r"path|file", sub.id if isinstance(sub, ast.Name) else sub.attr)
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_no_module_but_errors_formats_a_path_into_an_exception():
    """``naming`` owns "which file": no other module raises an exception whose
    message reads a path, so a loader cannot bring back a hand-written prefix."""
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None and _names_a_file(node.exc)
    ]
    assert offenders == []
