"""The counts tests/loc.py prints: code lines, dataclasses and their fields."""

import textwrap

from loc import PACKAGE, count, main

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import dataclasses
    from dataclasses import dataclass

    # a comment line


    @dataclass(frozen=True)
    class Frozen:
        """Class docstring."""

        x: int = 1  # a trailing comment
        LIMIT = 3


    @dataclasses.dataclass
    class Plain:
        y: str = """an assigned string,
    not a docstring"""


    def f():
        """Function docstring,

        with a blank line."""
        return 1


    async def g():
        """Coroutine docstring."""


    class NotADataclass:
        z: int = 0
    ''')


def test_counts_code_lines_dataclasses_and_fields(tmp_path):
    # code: the two imports, Frozen's decorator, header, field and constant,
    # Plain's decorator, header and two string lines, f's header and return,
    # g's header, NotADataclass's header and annotation; fields: Frozen's x
    # and Plain's y, not the unannotated LIMIT nor a plain class's z
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert count(path) == (15, 2, 2)


def test_main_prints_the_package_total(capsys):
    main()
    rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    modules = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py"))
    assert sorted(rows) == sorted(modules + ["total", "dataclasses", "fields"])
    assert int(rows["total"]) == sum(int(rows[m]) for m in modules)
    assert int(rows["dataclasses"]) == sum(count(p)[1] for p in PACKAGE.rglob("*.py"))
    assert int(rows["fields"]) == sum(count(p)[2] for p in PACKAGE.rglob("*.py"))
