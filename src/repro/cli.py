"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``parse`` — validate and pretty-print an OASSIS-QL query file (optionally
  against an ontology file);
* ``run`` — evaluate a query: either one of the built-in demo domains with
  a simulated crowd, or a custom ontology + query + personal-history file
  (single-user mining with Algorithm 1);
* ``domains`` — list the built-in demo domains;
* ``serve-sim`` — run the concurrent crowd-serving simulation: many query
  sessions, a shared crowd with injected timeouts and departures, served
  by one loop on a virtual clock (see :mod:`repro.service`);
* ``chaos`` — run the seeded chaos campaign (five scenarios per seed)
  against the serving layers and check the durability invariants (see
  :mod:`repro.faults`);
* ``gateway`` — start the network-facing crowd gateway on loopback HTTP
  and replay a simulated-member campaign through it, checking the MSP
  sets against serial execution (see :mod:`repro.gateway` and
  ``docs/GATEWAY.md``);
* ``figures`` — regenerate one of the paper's figures and print its table;
* ``lint`` — run the project-invariant linter (:mod:`repro.analysis`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .crowd.member import CrowdMember
from .crowd.personal_db import PersonalDatabase
from .datasets import culinary, health, travel
from .engine.config import EngineConfig
from .engine.engine import OassisEngine
from .oassisql.parser import parse_query
from .oassisql.pretty import format_query
from .oassisql.validator import validate
from .ontology import turtle

_DOMAINS = {
    "travel": travel,
    "culinary": culinary,
    "self-treatment": health,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .analysis.lint import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate and pretty-print a query")
    p_parse.add_argument("query", help="path to an OASSIS-QL file, or '-' for stdin")
    p_parse.add_argument("--ontology", help="Turtle-ish ontology to validate against")

    p_run = sub.add_parser("run", help="evaluate a query")
    p_run.add_argument("--domain", choices=sorted(_DOMAINS), help="built-in domain")
    p_run.add_argument("--threshold", type=float, default=0.2)
    p_run.add_argument("--crowd-size", type=int, default=20)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--ontology", help="custom ontology file (with --query)")
    p_run.add_argument("--query", help="custom OASSIS-QL file")
    p_run.add_argument(
        "--history",
        help="personal history file: one transaction per line, facts dotted "
        "(single-user mining)",
    )
    p_run.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")
    p_run.add_argument("--stats", action="store_true",
                       help="trace the run and print the observability "
                       "summary table (questions, cache hit rate, inference "
                       "pruning, per-phase wall time)")
    p_run.add_argument("--trace", action="store_true",
                       help="trace the run and print the span tree "
                       "(per-phase wall time only)")
    p_run.add_argument("--stats-json", metavar="PATH",
                       help="trace the run and write the machine-readable "
                       "observability report to PATH ('-' for stdout)")

    sub.add_parser("domains", help="list built-in demo domains")

    p_serve = sub.add_parser(
        "serve-sim",
        help="simulate the concurrent crowd-serving layer (repro.service)",
    )
    p_serve.add_argument("--config", metavar="PATH",
                         help="JSON file of argument defaults, validated "
                         "against the gateway SimulationSpec schema "
                         "(explicit flags still win)")
    p_serve.add_argument("--domain", default="demo",
                         help="simulation domain: demo, travel, culinary, health")
    p_serve.add_argument("--sessions", type=int, default=8)
    p_serve.add_argument("--shards", type=int, default=0,
                         help="serve through N worker processes instead of "
                              "the in-process loop (fault knobs do not apply)")
    p_serve.add_argument("--crowd-size", type=int, default=6)
    p_serve.add_argument("--sample-size", type=int, default=3)
    p_serve.add_argument("--drop-every", type=int, default=5,
                         help="members ignore every n-th question (0 = never); "
                         "ignored questions time out and are retried")
    p_serve.add_argument("--departures", type=int, default=1,
                         help="how many members depart mid-run")
    p_serve.add_argument("--question-timeout", type=float, default=0.2,
                         help="virtual seconds before a dispatched question "
                              "is reaped")
    p_serve.add_argument("--max-runtime", type=float, default=120.0)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the serial MSP-identity check")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the simulation report as JSON")
    p_serve.add_argument("--stats", action="store_true",
                         help="trace the run and print the observability "
                         "summary (including the service section)")

    p_chaos = sub.add_parser(
        "chaos",
        help="run the seeded chaos campaign: session, gateway, client, "
             "shard and coordinator scenarios per seed (repro.faults)",
    )
    p_chaos.add_argument("--config", metavar="PATH",
                         help="JSON file of argument defaults, validated "
                         "against the gateway SimulationSpec schema "
                         "(explicit flags still win)")
    p_chaos.add_argument("--seeds", default="0,1,2",
                         help="comma-separated campaign seeds (default: 0,1,2)")
    p_chaos.add_argument("--domain", default="demo",
                         help="simulation domain: demo, travel, culinary, health")
    p_chaos.add_argument("--sessions", type=int, default=4)
    p_chaos.add_argument("--crowd-size", type=int, default=6)
    p_chaos.add_argument("--sample-size", type=int, default=3)
    p_chaos.add_argument("--state-dir", metavar="DIR",
                         help="back each session of the session scenario "
                         "with a WAL journal and checkpoints under DIR "
                         "(per-seed subdirectories)")
    p_chaos.add_argument("--max-runtime", type=float, default=30.0)
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the campaign report as JSON")

    p_gateway = sub.add_parser(
        "gateway",
        help="serve the crowd gateway over loopback HTTP and replay a "
             "simulated-member campaign through it (repro.gateway)",
    )
    p_gateway.add_argument("--domain", default="demo",
                           help="dataset to activate: demo, travel, "
                                "culinary, health")
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=0,
                           help="TCP port (0 = pick a free one)")
    p_gateway.add_argument("--sessions", type=int, default=2)
    p_gateway.add_argument("--crowd-size", type=int, default=4)
    p_gateway.add_argument("--sample-size", type=int, default=3)
    p_gateway.add_argument("--seed", type=int, default=0)
    p_gateway.add_argument("--wait", type=float, default=0.3,
                           help="member long-poll wait per /next request")
    p_gateway.add_argument("--max-runtime", type=float, default=60.0)
    p_gateway.add_argument("--admin-token", default=None,
                           help="require this bearer token on the admin "
                                "endpoints (default: open gateway)")
    p_gateway.add_argument("--no-verify", action="store_true",
                           help="skip the serial MSP-identity check")
    p_gateway.add_argument("--json", action="store_true",
                           help="emit the campaign report as JSON")
    p_gateway.add_argument("--stats", action="store_true",
                           help="trace the run and print the observability "
                                "summary (gateway counters + latency "
                                "histograms)")

    p_fig = sub.add_parser("figures", help="regenerate a paper figure")
    p_fig.add_argument(
        "which",
        choices=["fig4f", "fig5", "shape", "distribution", "multiplicities"],
    )
    p_fig.add_argument("--trials", type=int, default=3)

    # help-only entry: ``repro lint ...`` is handed whole to the lint
    # parser in repro.analysis.lint before this parser runs
    sub.add_parser(
        "lint",
        help="run the project-invariant linter (see docs/ANALYSIS.md)",
    )

    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # two-pass parse: the config file's fields become the command's
        # argument defaults, then the argv is re-parsed so explicit
        # flags still win over the file
        subparser = p_serve if args.command == "serve-sim" else p_chaos
        status = _apply_config(subparser, args.command, args.config)
        if status is not None:
            return status
        args = parser.parse_args(argv)
    if args.command == "parse":
        return _cmd_parse(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "domains":
        return _cmd_domains()
    if args.command == "serve-sim":
        return _cmd_serve_sim(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "figures":
        return _cmd_figures(args)
    parser.error("unknown command")
    return 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cmd_parse(args) -> int:
    query = parse_query(_read(args.query))
    problems = []
    if args.ontology:
        ontology = turtle.load(args.ontology)
        problems = validate(query, ontology)
    print(format_query(query))
    if problems:
        print()
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_domains() -> int:
    for name, module in sorted(_DOMAINS.items()):
        dataset = module.build_dataset()
        print(
            f"{name:16} {len(dataset.ontology)} ontology facts, "
            f"{len(dataset.patterns)} planted patterns"
        )
    return 0


def _cmd_run(args) -> int:
    if args.domain:
        runner = _run_domain
    elif args.ontology and args.query:
        runner = _run_custom
    else:
        print("run needs either --domain or both --ontology and --query",
              file=sys.stderr)
        return 2
    if not (args.stats or args.trace or args.stats_json):
        return runner(args)

    from .observability import render_report, render_spans, tracing

    with tracing() as tracer:
        status = runner(args)
    report = tracer.report()
    if args.stats:
        print()
        print(render_report(report))
    elif args.trace:
        print()
        print(render_spans(report))
    if args.stats_json:
        import json

        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            from .observability import atomic_write_json

            try:
                atomic_write_json(args.stats_json, report)
            except OSError as error:
                # don't lose the run's report over a bad path
                print(f"cannot write {args.stats_json}: {error}; "
                      "report follows on stdout", file=sys.stderr)
                print(payload)
                return 1
    return status


def _run_domain(args) -> int:
    module = _DOMAINS[args.domain]
    dataset = module.build_dataset()
    engine = OassisEngine(
        dataset.ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=1)
    )
    query = engine.parse(dataset.query(args.threshold))
    crowd = dataset.build_crowd(size=args.crowd_size, seed=args.seed)
    result = engine.execute(
        query, crowd, sample_size=5, more_pool=dataset.more_pool
    )
    print(result.to_json() if args.json else result.render())
    return 0


def _run_custom(args) -> int:
    ontology = turtle.load(args.ontology)
    engine = OassisEngine(
        ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=0)
    )
    query = engine.parse(_read(args.query))
    if not args.history:
        print("custom runs need --history (a personal transaction file)",
              file=sys.stderr)
        return 2
    lines = [l.strip() for l in _read(args.history).splitlines()
             if l.strip() and not l.startswith("#")]
    database = PersonalDatabase.parse(lines)
    member = CrowdMember("you", database, ontology.vocabulary)
    result = engine.execute_single_user(query, member)
    print(result.to_json() if args.json else result.render())
    return 0


#: which SimulationSpec fields each --config-aware command consumes;
#: the rest are ignored, so one file can drive both commands
_CONFIG_DESTS = {
    "serve-sim": frozenset({
        "domain", "sessions", "shards", "crowd_size",
        "sample_size", "drop_every", "departures", "question_timeout",
        "max_runtime", "seed", "verify",
    }),
    "chaos": frozenset({
        "domain", "sessions", "crowd_size", "sample_size",
        "max_runtime", "seeds", "state_dir",
    }),
}


def _apply_config(subparser, command: str, path: str) -> Optional[int]:
    """Load a ``--config`` JSON file into ``subparser``'s defaults.

    The file is validated against the gateway wire schema
    (:class:`repro.gateway.schema.SimulationSpec`), so a config that
    drives the CLI is also a valid gateway payload.  Returns an exit
    code on failure, None on success.
    """
    import json

    from .gateway.schema import SchemaError, SimulationSpec

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        print(f"cannot read --config {path}: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"--config {path} is not valid JSON: {error}", file=sys.stderr)
        return 2
    if isinstance(payload, dict):
        payload.setdefault("v", 1)
    try:
        spec = SimulationSpec.from_wire(payload)
    except SchemaError as error:
        print(f"--config {path} is invalid: {error}", file=sys.stderr)
        return 2
    overrides = {
        name: value
        for name, value in spec.overrides().items()
        if name in _CONFIG_DESTS[command]
    }
    # two fields need translating to their argparse destinations:
    # the boolean is stored inverted, and chaos seeds are a comma string
    if "verify" in overrides:
        overrides["no_verify"] = not overrides.pop("verify")
    if "seeds" in overrides:
        overrides["seeds"] = ",".join(str(s) for s in overrides["seeds"])
    subparser.set_defaults(**overrides)
    return None


def _cmd_serve_sim(args) -> int:
    from .observability import render_report, tracing
    from .service import run_simulation

    def simulate():
        if args.shards > 0:
            # process-sharded mode: the in-process fault knobs
            # (--drop-every, --departures, --question-timeout) do not
            # apply and are not forwarded
            return run_simulation(
                domain=args.domain,
                sessions=args.sessions,
                shards=args.shards,
                crowd_size=args.crowd_size,
                sample_size=args.sample_size,
                drop_every=0,
                departures=0,
                max_runtime=args.max_runtime,
                verify=not args.no_verify,
                seed=args.seed,
            )
        return run_simulation(
            domain=args.domain,
            sessions=args.sessions,
            crowd_size=args.crowd_size,
            sample_size=args.sample_size,
            drop_every=args.drop_every,
            departures=args.departures,
            question_timeout=args.question_timeout,
            max_runtime=args.max_runtime,
            verify=not args.no_verify,
            seed=args.seed,
        )

    if args.stats:
        with tracing() as tracer:
            report = simulate()
    else:
        tracer = None
        report = simulate()

    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if args.shards > 0:
            print(
                f"{args.sessions} session(s), {args.shards} shard process(es), "
                f"crowd of {report['crowd_size']}"
            )
        else:
            print(
                f"{args.sessions} session(s), in-process loop, "
                f"crowd of {report['crowd_size']}"
            )
        for session_id, info in sorted(report["sessions"].items()):
            print(
                f"  {session_id:16} {info['state']:10} "
                f"{info['questions']:5} question(s)  "
                f"{info['valid_msps']} answer(s)"
            )
        print(
            f"{report['questions_answered']} answers in "
            f"{report['elapsed_seconds']:.2f}s "
            f"({report['questions_per_second']:.0f} questions/s)"
        )
        if "verified" in report:
            verdict = "identical" if report["verified"] else "DIVERGED"
            print(f"serial MSP check: {verdict}")
    if tracer is not None:
        print()
        print(render_report(tracer.report()))
    if report["timed_out"]:
        print("simulation hit --max-runtime before settling", file=sys.stderr)
        return 1
    if not report.get("verified", True):
        print("concurrent MSPs diverged from serial execution", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from .faults import SCENARIOS, run_chaos_campaign
    from .faults.chaos import MAX_SUPERVISOR_RESTART_P95_SECONDS

    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds named no seeds", file=sys.stderr)
        return 2
    campaign = run_chaos_campaign(
        seeds,
        domain=args.domain,
        durable_dir=args.state_dir,
        sessions=args.sessions,
        crowd_size=args.crowd_size,
        sample_size=args.sample_size,
        max_runtime=args.max_runtime,
    )
    if args.json:
        import json

        print(json.dumps(campaign, indent=2, sort_keys=True))
    else:
        for run in campaign["runs"]:
            print(f"seed {run['seed']}: {'ok' if run['ok'] else 'VIOLATIONS'}")
            for name in SCENARIOS:
                report = run["scenarios"][name]
                mttr = report["mttr_seconds"]
                print(
                    f"  {name:12} {'ok' if report['ok'] else 'VIOLATIONS':10} "
                    f"{report['elapsed_seconds']:.2f}s"
                    + (f"  mttr {mttr}s" if mttr is not None else "")
                )
            for violation in run["violations"]:
                print(f"  violation: {violation}", file=sys.stderr)
        verdict = "ok" if campaign["ok"] else "FAILED"
        print(
            f"campaign over seeds {campaign['seeds']} "
            f"({campaign['domain']}): {verdict}; supervisor restart p95 "
            f"{campaign['supervisor_restart_p95_seconds']}s "
            f"(budget {MAX_SUPERVISOR_RESTART_P95_SECONDS}s)"
        )
    return 0 if campaign["ok"] else 1


def _cmd_gateway(args) -> int:
    from .gateway import GatewayApp, replay_campaign, serve_in_thread
    from .observability import render_report, tracing

    def campaign():
        app = GatewayApp(admin_token=args.admin_token)
        with serve_in_thread(app, host=args.host, port=args.port) as handle:
            print(f"gateway listening on {handle.base_url}", file=sys.stderr)
            return replay_campaign(
                host=handle.host,
                port=handle.port,
                admin_token=args.admin_token,
                domain=args.domain,
                sessions=args.sessions,
                crowd_size=args.crowd_size,
                sample_size=args.sample_size,
                seed=args.seed,
                wait=args.wait,
                max_runtime=args.max_runtime,
                verify=not args.no_verify,
            )

    if args.stats:
        with tracing() as tracer:
            report = campaign()
    else:
        tracer = None
        report = campaign()

    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{args.sessions} session(s) over loopback HTTP, "
            f"crowd of {report['crowd_size']}"
        )
        for session_id, info in sorted(report["sessions"].items()):
            print(
                f"  {session_id:16} {info['state']:10} "
                f"{info['questions']:5} question(s)  "
                f"{len(info['msps'])} answer(s)"
            )
        print(
            f"{report['questions_answered']} answers in "
            f"{report['elapsed_seconds']:.2f}s "
            f"({report['questions_per_second']:.0f} questions/s)"
        )
        if "verified" in report:
            verdict = "identical" if report["verified"] else "DIVERGED"
            print(f"serial MSP check: {verdict}")
    if tracer is not None:
        print()
        print(render_report(tracer.report()))
    for error in report["errors"]:
        print(f"member error: {error}", file=sys.stderr)
    if report["timed_out"]:
        print("campaign hit --max-runtime before settling", file=sys.stderr)
        return 1
    if report["errors"] or not report.get("verified", True):
        return 1
    return 0


def _cmd_figures(args) -> int:
    if args.which == "fig4f":
        from .experiments import render_figure4f, run_figure4f

        print(render_figure4f(run_figure4f(trials=args.trials)))
    elif args.which == "fig5":
        from .experiments import render_figure5, run_figure5

        print(render_figure5(run_figure5(trials=args.trials)))
    elif args.which == "shape":
        from .experiments.shape import render_shape_sweep, run_shape_sweep

        print(render_shape_sweep(run_shape_sweep(trials=args.trials)))
    elif args.which == "distribution":
        from .experiments.distribution import (
            render_distribution_sweep,
            run_distribution_sweep,
        )

        print(render_distribution_sweep(run_distribution_sweep(trials=args.trials)))
    elif args.which == "multiplicities":
        from .experiments.multiplicities import (
            render_multiplicities,
            run_multiplicities_experiment,
        )

        print(render_multiplicities(run_multiplicities_experiment()))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
