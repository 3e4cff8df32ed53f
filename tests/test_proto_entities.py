"""Unit tests for the Command/Response/Minion/Query entities."""

import pytest

from repro.proto import Command, Minion, Query, QueryKind, Response, ResponseStatus


def test_command_requires_exactly_one_body():
    with pytest.raises(ValueError):
        Command()
    with pytest.raises(ValueError):
        Command(command_line="ls", script="ls\nls")
    Command(command_line="ls")
    Command(script="ls\ngrep x f")


def test_command_wire_bytes_scales_with_content():
    small = Command(command_line="ls")
    big = Command(command_line="grep " + "x" * 500 + " file", input_files=("file",))
    assert big.wire_bytes > small.wire_bytes
    assert small.wire_bytes >= 128  # header floor


def test_minion_ids_unique():
    a = Minion(command=Command(command_line="ls"))
    b = Minion(command=Command(command_line="ls"))
    assert a.minion_id != b.minion_id


def test_minion_nbytes_includes_response():
    minion = Minion(command=Command(command_line="ls"))
    bare = minion.nbytes
    minion.response = Response(stdout=b"x" * 1000)
    assert minion.nbytes > bare + 900


def test_response_ok_property():
    assert Response(status=ResponseStatus.OK).ok
    assert not Response(status=ResponseStatus.APP_ERROR).ok
    assert not Response(status=ResponseStatus.CRASHED).ok
    assert not Response(status=ResponseStatus.REJECTED).ok


def test_query_wire_sizes():
    status = Query(kind=QueryKind.STATUS)
    load = Query(kind=QueryKind.LOAD_EXECUTABLE, payload=object())
    assert load.wire_bytes > status.wire_bytes  # executables ship an image
    assert status.nbytes > 0


def test_query_ids_unique():
    a = Query(kind=QueryKind.PING)
    b = Query(kind=QueryKind.PING)
    assert a.query_id != b.query_id
