"""Command line front end: list bundled scenarios, run one, write artifacts.

Exit status is the verdict: 0 when every expectation and check passed,
1 when any failed, 2 for usage or scenario-definition errors.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click

from .crypto import _CIPHERS
from .errors import ScenarioError
from .scenarios import (
    KNOWN_CHECKS,
    find_bundled,
    list_bundled,
    load_spec,
    parse_checks,
    run_spec,
)


@click.group()
def main() -> None:
    """Deterministic simulator for a multi-factor wireless payment protocol."""


@main.command("list-scenarios")
def list_scenarios() -> None:
    """Show the scenarios shipped with the package."""
    for entry in list_bundled():
        description = " ".join(entry["description"].split())
        click.echo(f"{entry['name']:20s} {description}")


@main.command("run")
@click.argument("scenario")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--cipher", type=click.Choice(sorted(_CIPHERS)), default=None,
              help="Override the cipher (null is the leakage-scan control).")
@click.option("--checks", default=None,
              help="Comma-separated subset of checks to run "
                   f"({', '.join(KNOWN_CHECKS)}).")
@click.option("--trace-out", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the event trace as JSON lines.")
@click.option("--report-out", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the run report as text.")
@click.option("-v", "--verbose", is_flag=True, help="Print the event trace.")
def run(scenario: str, seed, cipher, checks, trace_out, report_out, verbose) -> None:
    """Run SCENARIO (a bundled name or a path to a YAML file)."""
    path = Path(scenario)
    if not path.is_file():
        bundled = find_bundled(scenario)
        if bundled is None:
            known = ", ".join(e["name"] for e in list_bundled())
            click.echo(f"error: no scenario {scenario!r}; bundled: {known}",
                       err=True)
            sys.exit(2)
        path = bundled
    try:
        spec = load_spec(path)
        if seed is not None:
            spec = replace(spec, seed=seed)
        if cipher is not None:
            spec = replace(spec, cipher=cipher)
        if checks is not None:
            wanted = [c.strip() for c in checks.split(",") if c.strip()]
            spec = replace(spec, checks=parse_checks(wanted, "--checks"))
        report = run_spec(spec)
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if verbose:
        for event in report.world.sim.trace.events:
            click.echo(f"  {event.as_dict()}")
    if trace_out is not None:
        with trace_out.open("w") as out:
            out.writelines(report.world.sim.trace.chunks())
        click.echo(f"trace written to {trace_out}")
    if report_out is not None:
        report_out.write_text(report.render())
    click.echo(report.render(), nl=False)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
