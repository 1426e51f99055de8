import csv

import pytest

from regimetrics import (
    DescriptorCatalog,
    ParseError,
    ValidationError,
    default_catalog,
    load_catalog,
    save_catalog,
)

HEADER = ["level", "level_name", "skill_id", "skill_name", "request_id", "request_text"]

LEVEL_NAMES = {1: "Bachelor", 2: "Master", 3: "PhD"}
SKILL_NAMES = {
    1: "Knowledge and understanding",
    2: "Application of knowledge and understanding",
    3: "Forming judgments",
    4: "Communication",
    5: "Learning skills",
}


def make_rows():
    """A structurally valid 15-entry document, one row per (skill, level)."""
    rows = []
    for skill in range(1, 6):
        for level in (1, 2, 3):
            skill_id = f"{level}.{skill}"
            rows.append(
                [
                    level,
                    LEVEL_NAMES[level],
                    skill_id,
                    SKILL_NAMES[skill],
                    skill_id + ".1",
                    f"request text for {skill_id}",
                ]
            )
    return rows


@pytest.fixture
def document(tmp_path):
    """Write a header and ``rows`` to a catalog file and return its path."""

    def write(rows):
        path = tmp_path / "catalog.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerows(rows)
        return path

    return write


def test_bundled_catalog_has_15_entries():
    assert len(default_catalog().entries) == 15


def test_bundled_level1_knowledge_entry():
    entry = default_catalog().lookup("1.1")
    assert entry.level == 1
    assert entry.level_name == "Bachelor"
    assert entry.skill_name == "Knowledge and understanding"
    assert entry.request_id == "1.1.1"
    assert entry.request_text.startswith("Corresponds to the level of advanced textbooks")


@pytest.mark.parametrize(
    "skill_id, skill_name, level",
    [
        ("3.3", "Forming judgments", 3),
        ("1.5", "Learning skills", 1),
    ],
)
def test_lookup_known_skills(skill_id, skill_name, level):
    entry = default_catalog().lookup(skill_id)
    assert entry.skill_name == skill_name
    assert entry.level == level


def test_lookup_unknown_skill_raises():
    with pytest.raises(KeyError, match="9.9"):
        default_catalog().lookup("9.9")


def test_entries_ordered_by_skill_then_level():
    ids = [entry.skill_id for entry in default_catalog().entries]
    assert ids == [f"{level}.{skill}" for skill in range(1, 6) for level in (1, 2, 3)]


def test_every_level_has_exactly_five_entries():
    catalog = default_catalog()
    for level in (1, 2, 3):
        assert len(catalog.level_entries(level)) == 5


def test_request_ids_extend_skill_ids():
    for entry in default_catalog().entries:
        assert entry.request_id == entry.skill_id + ".1"
        assert entry.request_text


def test_empty_document_rejected(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="missing header") as excinfo:
        load_catalog(path)
    assert excinfo.value.line == 1


def test_document_of_another_header_rejected(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("level,name\n1,Bachelor\n")
    with pytest.raises(ParseError) as excinfo:
        load_catalog(path)
    assert str(excinfo.value) == f"{path}:1: header must be {','.join(HEADER)}"


def test_catalog_of_a_repeated_skill_id_rejected():
    entries = default_catalog().entries
    with pytest.raises(ValidationError, match="duplicate skill_id '1.1' in catalog"):
        DescriptorCatalog(entries[:-1] + entries[:1])


def test_header_only_document_rejected(document):
    with pytest.raises(ValidationError, match="15"):
        load_catalog(document([]))


def test_duplicate_skill_id_rejected(document):
    rows = make_rows()
    rows.append(next(row for row in make_rows() if row[2] == "2.3"))
    with pytest.raises(ValidationError, match="2.3"):
        load_catalog(document(rows))


def test_wrong_entry_count_rejected(document):
    rows = make_rows()[:-1]
    with pytest.raises(ValidationError, match="14"):
        load_catalog(document(rows))


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda row: row.__setitem__(0, "x"), "not an integer"),
        (lambda row: row.__setitem__(0, "4"), "level must be"),
        (lambda row: row.__setitem__(2, "1.9"), "does not match"),
        (lambda row: row.__setitem__(2, "2.1"), "does not belong to level"),
        (lambda row: row.__setitem__(4, "1.1.2"), "request_id"),
        (lambda row: row.__setitem__(5, ""), "request_text"),
        (lambda row: row.append("extra"), "fields"),
    ],
)
def test_malformed_rows_rejected_with_location(document, mutate, match):
    rows = make_rows()
    mutate(rows[0])
    with pytest.raises(ParseError, match=match) as excinfo:
        load_catalog(document(rows))
    assert excinfo.value.line == 2


def test_round_trip(tmp_path):
    catalog = default_catalog()
    path = save_catalog(catalog, tmp_path / "catalog.csv")
    assert load_catalog(path) == catalog


def test_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "catalog.csv"
    path.write_text("previous contents\n")

    def failed_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("os.replace", failed_rename)
    with pytest.raises(OSError, match="rename failed"):
        save_catalog(default_catalog(), path)
    assert path.read_text() == "previous contents\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["catalog.csv"]


def test_load_order_independent(document):
    rows = make_rows()
    rows.reverse()
    catalog = load_catalog(document(rows))
    ids = [entry.skill_id for entry in catalog.entries]
    assert ids == [f"{level}.{skill}" for skill in range(1, 6) for level in (1, 2, 3)]


@pytest.mark.parametrize("bad, line", [(1, 4), (0, 2)], ids=["after-it", "on-it"])
def test_error_names_the_physical_line_of_a_record_near_a_multi_line_field(document, bad, line):
    # header on line 1, the first record on lines 2-3, the second on line 4
    rows = make_rows()
    rows[0][5] = "first line of the request\nsecond line of the request"
    rows[bad][0] = "x"
    with pytest.raises(ParseError, match="not an integer") as excinfo:
        load_catalog(document(rows))
    assert excinfo.value.line == line


def test_blank_and_whitespace_only_lines_are_skipped(document, tmp_path):
    plain = document(make_rows())
    lines = plain.read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("".join(["\n", "   \n", lines[0], "\n", *lines[1:8], " \t \n", *lines[8:]]))
    assert load_catalog(spaced) == load_catalog(plain)


def test_leading_comment_is_an_unknown_directive(document, tmp_path):
    commented = tmp_path / "commented.csv"
    commented.write_text("# note\n" + document(make_rows()).read_text())
    with pytest.raises(ParseError, match="unknown directive") as excinfo:
        load_catalog(commented)
    assert excinfo.value.line == 1
