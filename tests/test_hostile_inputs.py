"""Every refused input says where: a property over byte-level mutations of valid files.

A small event file, the ``indicators.csv`` and ``plot.csv`` that ``analyze``
writes for it, and a mapping are mutated by inserting, deleting and
substituting bytes: the plain numeric alphabet, and ``#``, ``\\r``, quotes,
NUL, a byte that is not UTF-8, ``nan``, ``1e400`` and a directive line.
``analyze`` or ``compare`` then runs in process on the mutated file. It
must exit 0 or 1 with nothing escaping ``main``; on 1 its one stderr line
names the file (and the line, where there is one) or a period and its
channels, and no output directory is left.
"""

import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regimetrics import EnterpriseModel, write_events
from regimetrics.cli import main

K = 3
TOKENS = [
    *(bytes([c]) for c in b"0123456789.eE+-, \n"),
    b"#", b"\r", b'"', b"\x00", b"\xff", b"nan", b"1e400", b"# k: 3",
]
INDEX = st.integers(0, 10_000)  # a position, taken modulo the file's length
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), INDEX, st.sampled_from(TOKENS)),
        st.tuples(st.just("delete"), INDEX, st.integers(1, 8)),
        st.tuples(st.just("substitute"), INDEX, st.sampled_from(TOKENS)),
    ),
    min_size=1,
    max_size=4,
)
# The command that reads each input; events are read by both.
COMMANDS = {
    "events": ["analyze", "compare"],
    "mapping": ["analyze"],
    "indicators": ["compare"],
    "plot": ["compare"],
}
TARGETS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda target: st.tuples(st.just(target), st.sampled_from(COMMANDS[target]))
)


def mutated(data, mutations):
    for name, index, arg in mutations:
        at = index % (len(data) + 1)
        if name == "insert":
            data = data[:at] + arg + data[at:]
        elif name == "delete":
            data = data[:at] + data[at + arg :]
        else:
            data = data[:at] + arg + data[at + 1 :]
    return data


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid inputs, by name: an event series, its analyze outputs and a mapping."""
    directory = tmp_path_factory.mktemp("valid")
    values = np.random.default_rng(5).normal(100.0, 10.0, size=(12, 3))
    events = directory / "events.csv"
    write_events(EnterpriseModel(events=values, channel_labels=("a", "b", "c")), events)
    mapping = directory / "mapping.csv"
    mapping.write_text(
        "# budget: 100\n# cost: 1.1 = 10\ncompetency_id,channel_label,flag\n1.1,a,1\n1.1,b,1\n"
    )
    analyzed = directory / "analyzed"
    argv = ["analyze", "--events", events, "--window", K, "--output-dir", analyzed]
    assert main([str(arg) for arg in argv]) == 0
    return {
        "events": events,
        "mapping": mapping,
        "indicators": analyzed / "indicators.csv",
        "plot": analyzed / "plot.csv",
    }


def says_where(stderr, paths):
    """Whether ``stderr`` is one ``error:`` line that names a path and line, or a period."""
    if re.fullmatch(r"error: period -?\d+: [^\n]* \(channels [^\n]+\)\n", stderr):
        return True
    names = "|".join(re.escape(str(path)) for path in paths)
    return re.fullmatch(rf"error: ({names})( vs ({names}))?(:\d+)?: [^\n]+\n", stderr) is not None


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(target=TARGETS, mutations=MUTATIONS)
# The budget case: costs of 10 against a budget of 1 name the mapping's '# budget:' line.
@example(target=("mapping", "analyze"), mutations=[("delete", 11, 2)])
def test_a_mutated_input_exits_0_or_1_and_a_refusal_says_where(
    tmp_path, capsys, valid, target, mutations
):
    name, command = target
    path = tmp_path / valid[name].name
    path.write_bytes(mutated(valid[name].read_bytes(), mutations))
    inputs = {**valid, name: path}
    out = tmp_path / "out"
    if command == "analyze":
        argv = ["analyze", "--events", inputs["events"], "--window", K, "--output-dir", out]
        if name == "mapping":
            argv += ["--mapping", inputs["mapping"]]
    elif name == "events":
        argv = ["compare", "--basic", path, "--treated", valid["events"]]
        argv += ["--window", K, "--output-dir", out]
    else:
        argv = ["compare", "--basic", inputs["indicators"], "--treated", inputs["plot"]]
        argv += ["--window", K, "--output-dir", out]
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    stderr = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert says_where(stderr, [path, *valid.values()]), stderr
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)


def test_the_budget_case_names_the_budget_line(tmp_path, capsys, valid):
    path = tmp_path / "mapping.csv"
    path.write_bytes(mutated(valid["mapping"].read_bytes(), [("delete", 11, 2)]))
    argv = ["analyze", "--events", valid["events"], "--mapping", path, "--window", K]
    assert main([str(arg) for arg in [*argv, "--output-dir", tmp_path / "out"]]) == 1
    assert capsys.readouterr().err == f"error: {path}:1: competency costs 10 exceed budget 1\n"
