"""Every refused input says where: a property over byte-level mutations of valid files.

A small event file, the ``indicators.csv`` and ``plot.csv`` that ``analyze``
writes for it, a mapping, a scenario and the ``comparison.csv`` that
``compare`` writes are mutated by inserting, deleting and substituting
bytes: the plain numeric alphabet, and ``#``, ``\\r``, quotes, NUL, a byte
that is not UTF-8, ``nan``, ``1e400`` and a directive line. The command
that reads the mutated file (``analyze``, ``compare``, ``generate`` or
``verify-reference --file``) then runs in process. It must exit 0 or 1
with nothing escaping ``main``; on 1 its one stderr line names an input
or a file the command writes (and the line, where there is one) or a
period and its channels, and no output directory is left. An audit that
fails says so on stdout, with a ``[FAIL]`` line and nothing on stderr.
"""

import json
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
    "scenario": ["generate"],
    "comparison": ["verify-reference"],
}
SCENARIO = {
    "seed": 3, "periods": 12, "intervention_period": 6,
    "processes": [{"name": "a", "channels": 2, "base_level": 100.0, "amplitude": 10.0,
                   "period_length": 4, "noise_scale": 2.0}],
}
WRITTEN_BY_GENERATE = ("events_baseline.csv", "events_treated.csv")
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
    """The valid inputs, by name: the files that the commands of the property read."""
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
    scenario = directory / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    generated, compared = directory / "generated", directory / "compared"
    assert main(["generate", "--config", str(scenario), "--output-dir", str(generated)]) == 0
    basic, treated = (generated / name for name in WRITTEN_BY_GENERATE)
    argv = ["compare", "--basic", basic, "--treated", treated, "--window", K]
    assert main([str(arg) for arg in [*argv, "--output-dir", compared]]) == 0
    return {
        "events": events,
        "mapping": mapping,
        "indicators": analyzed / "indicators.csv",
        "plot": analyzed / "plot.csv",
        "scenario": scenario,
        "comparison": compared / "comparison.csv",
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
# The event file cut after its first K rows (byte 180), too short for window K.
@example(target=("events", "analyze"), mutations=[("delete", 180, 10_000)])
def test_a_mutated_input_exits_0_or_1_and_a_refusal_says_where(
    tmp_path, capsys, valid, target, mutations
):
    name, command = target
    path = tmp_path / valid[name].name
    path.write_bytes(mutated(valid[name].read_bytes(), mutations))
    inputs = {**valid, name: path}
    out = tmp_path / "out"
    named = [path, *valid.values()]
    if command == "analyze":
        argv = ["analyze", "--events", inputs["events"], "--window", K, "--output-dir", out]
        if name == "mapping":
            argv += ["--mapping", inputs["mapping"]]
    elif command == "generate":
        argv = ["generate", "--config", path, "--output-dir", out]
        named += [out / written for written in WRITTEN_BY_GENERATE]
    elif command == "verify-reference":
        argv = ["verify-reference", "--file", path]
    elif name == "events":
        argv = ["compare", "--basic", path, "--treated", valid["events"]]
        argv += ["--window", K, "--output-dir", out]
    else:
        argv = ["compare", "--basic", inputs["indicators"], "--treated", inputs["plot"]]
        argv += ["--window", K, "--output-dir", out]
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    stdout, stderr = capsys.readouterr()
    assert code in (0, 1)
    if code == 1 and not (command == "verify-reference" and not stderr and "[FAIL]" in stdout):
        assert says_where(stderr, named), stderr
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)


def test_the_budget_case_names_the_budget_line(tmp_path, capsys, valid):
    path = tmp_path / "mapping.csv"
    path.write_bytes(mutated(valid["mapping"].read_bytes(), [("delete", 11, 2)]))
    argv = ["analyze", "--events", valid["events"], "--mapping", path, "--window", K]
    assert main([str(arg) for arg in [*argv, "--output-dir", tmp_path / "out"]]) == 1
    assert capsys.readouterr().err == f"error: {path}:1: competency costs 10 exceed budget 1\n"
