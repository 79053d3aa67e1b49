"""The shared --tol and --json flags: placement, precedence, defaults and help, per command.

Each command's handler is replaced by one that records the two values it is
given, so no input file is read.
"""

from __future__ import annotations

import pytest

from unimeas import cli

POSITIONALS = {
    "build": ["obs.json", "--out", "out.json"],
    "verify": ["model.json"],
    "collapse": ["model.json", "phi.json"],
    "forms": ["psi.json", "proj.json"],
}


@pytest.fixture
def parsed(monkeypatch):
    """(tol, json) as the handler of command sees them, for flags given before and after it."""

    def run(command: str, before: list[str], after: list[str]) -> tuple[float, bool]:
        seen = []

        def handler(args):
            seen.append((args.tol, args.json))
            return {}, 0

        monkeypatch.setattr(cli, f"_cmd_{command}", handler)
        monkeypatch.setattr(cli, f"_text_{command}", lambda doc: [])
        assert cli.main([*before, command, *POSITIONALS[command], *after]) == 0
        return seen.pop()

    return run


@pytest.mark.parametrize("command", sorted(POSITIONALS))
class TestSharedFlags:
    def test_defaults(self, command, parsed):
        assert parsed(command, [], []) == (1e-9, False)

    def test_before_subcommand(self, command, parsed):
        assert parsed(command, ["--tol", "0.5", "--json"], []) == (0.5, True)

    def test_after_subcommand(self, command, parsed):
        assert parsed(command, [], ["--tol", "0.5", "--json"]) == (0.5, True)

    def test_after_overrides_before(self, command, parsed):
        assert parsed(command, ["--tol", "0.5"], ["--tol", "0.25"]) == (0.25, False)

    def test_absent_after_keeps_before(self, command, parsed):
        assert parsed(command, ["--json"], ["--tol", "0.25"]) == (0.25, True)

    def test_help_lists_both(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--tol TOL" in out and "--json" in out
