"""Seeded fuzz test of the error contract: mutated SQL and .catql input, and
generated .catql scripts and their mutants, make the CLI exit with 0 or 1,
never 2, and the front ends raise only CatqlError."""

import random

import pytest

from catql.cli import cli_main
from catql.errors import CatqlError
from catql.parsing import parse_script
from catql.scripts import format_script, run_script
from catql.sqlbridge import export_sql, import_sql

from conftest import ScriptGen, read_data


ALPHABET = [
    "²", "½", '"', "'", "\\", "--", "#", "->", "-", "-1", "0", "7", "(", ")", ",",
    ";", ":", ".", "=", "{", "}", "@", " ", "\t", "\n", "a", "Z", "_", "é", "NULL",
    "INT", "VARCHAR(", "REFERENCES", "node", "edge", "attribute",
]


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: insert an ALPHABET entry, or delete, duplicate or
    reverse a short span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + text[i:j][::-1] + text[j:]
    return text


def export_instances(text):
    """Run a script and export each of its instances, as `catql export-sql` does."""
    env, _outputs = run_script(parse_script(text))
    for kind, value in env.entries.values():
        if kind == "instance":
            export_sql(value.schema, value)


CASES = [
    ("portal_a.sql", "import-sql", import_sql, 11),
    ("parent.catql", "run", parse_script, 12),
    ("parent.catql", "export-sql", export_instances, 13),
]


def keeps_the_error_contract(text, command, front_end, path, capsys, what):
    """front_end(text) raises only CatqlError, and `catql <command>` on the
    text in `path` exits with 0 or 1."""
    try:
        front_end(text)
    except CatqlError:
        pass
    except Exception as exc:  # noqa: BLE001 - the contract under test
        pytest.fail(f"{what}: {front_end.__name__} raised "
                    f"{type(exc).__name__}: {exc} on {text!r}")
    path.write_text(text)
    code = cli_main([command, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1), (what, text, err)
    assert "internal error" not in err, (what, text, err)


@pytest.mark.parametrize("name, command, front_end, seed", CASES)
def test_mutations_keep_the_error_contract(name, command, front_end, seed,
                                           tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    original = read_data(name)
    for i in range(400):
        keeps_the_error_contract(mutate(rng, original), command, front_end,
                                 tmp_path / name, capsys, f"mutation {i}")


def run_text(text):
    """Parse and run a script, as `catql run` does."""
    return run_script(parse_script(text))


@pytest.mark.parametrize("seed", range(2))
def test_generated_scripts_keep_the_error_contract(seed, tmp_path, monkeypatch, capsys):
    """Scripts of every form from ScriptGen, and a mutant of each."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    for k in range(100):
        text = format_script(ScriptGen(10_000 * seed + k).script())
        for what, t in (("script", text), ("mutant", mutate(rng, text))):
            keeps_the_error_contract(t, "run", run_text, tmp_path / "gen.catql", capsys, f"{what} {k}")
