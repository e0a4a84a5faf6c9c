"""Command-line interface: one executable, JSON-first output.

Subcommand grammar:

    game      exists | construct | verify | best-response | dynamics | oracle
    features  extract | rbo
    report    win-spread | rbo | trajectories
    simulate  competition
    predict   build | cv | baselines

Every command prints canonical JSON (sorted keys) so identical inputs and
seeds give byte-identical output; ``--format table`` renders the same
structure for humans.  Exit codes: 0 success, 1 domain error, 2 usage
error.  ``RANKCOMP_SEED`` and ``RANKCOMP_JOBS`` provide environment
defaults for the corresponding options.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import click

from . import best_response as br_mod
from . import dynamics as dyn_mod
from . import equilibria as eq_mod
from . import grid_oracle as oracle_mod
from .competition_log import (
    SynthesisConfig,
    document_features,
    load_log,
    report_feature_trajectories,
    report_ranking_agreement,
    report_win_spread,
    save_log,
    synthesize,
)
from .game import (
    RankingGame,
    load_profile,
    load_sequence,
    profile_to_dict,
    query_scores,
    read_json,
    require_valid,
    save_profile,
)
from .numeric import CapacityError, DomainError, dual_view, float_view, parse_number
from .prediction import (
    baselines as run_baselines,
    build_instances,
    cross_validate,
    evaluate,
    instances_from_csv,
    instances_to_csv,
    mask_sections,
    normalize_per_query,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .text_features import FEATURE_NAMES as TEXT_FEATURE_NAMES
from .text_features import rbo


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _emit(data) -> None:
    obj = click.get_current_context().obj
    fmt = obj.get("format", "json") if obj else "json"
    if fmt == "table":
        click.echo(_render_table(data))
    else:
        click.echo(dump_json(data))


def _render_table(data, indent: str = "") -> str:
    lines = []
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list, tuple)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(data, (list, tuple)):
        for item in data:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{indent}-")  # one marker per nested item keeps rows apart
                lines.append(_render_table(item, indent + "  "))
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{data}")
    return "\n".join(line for line in lines if line)


def _schema_option(schema: dict):
    """Add --schema to a command: print the output schema and exit."""

    def decorator(fn):
        def callback(ctx, param, value):
            if value:
                click.echo(dump_json(schema))
                ctx.exit(0)

        return click.option(
            "--schema",
            is_flag=True,
            expose_value=False,
            is_eager=True,
            callback=callback,
            help="Print a machine-readable schema of this command's output.",
        )(fn)

    return decorator


def _env_int(name: str, low=None):
    """An integer default from the environment (None when unset), checked."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {raw!r}")
    return value


def _require_seed(seed):
    if seed is None:
        seed = _env_int("RANKCOMP_SEED")
    if seed is None:
        raise click.UsageError("--seed is required (or set RANKCOMP_SEED)")
    return seed


_log_option = click.option("--log", "log_path", type=click.Path(exists=True), required=True)

_stopwords_option = click.option(
    "--stopwords", "stops", type=click.Path(exists=True), default=None,
    callback=lambda ctx, param, path: load_stopwords(path) if path else DEFAULT_STOPWORDS,
)


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DomainError, CapacityError, OSError) as exc:
            click.echo(dump_json({"error": str(exc)}), err=True)
            sys.exit(1)


@click.group(cls=_Cli)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
@click.pass_context
def main(ctx, fmt):
    """Multi-query ranking games and competition analytics."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt


# --------------------------------------------------------------------- game


@main.group()
def game():
    """Equilibria, best responses, dynamics, grid oracle."""


@game.command("exists")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--peak", required=True)
@_schema_option({"exists": "bool", "threshold": "float", "threshold_exact": "str|int",
                 "regime": "str"})
def game_exists(n, m, peak):
    verdict = eq_mod.exists_equilibrium(n, m, parse_number(peak))
    _emit({"exists": verdict.exists, "regime": verdict.regime,
           **dual_view("threshold", verdict.threshold)})


@game.command("construct")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--peak", required=True)
@click.option("--check", is_flag=True, help="Verify the construction before printing.")
@click.option("--out", type=click.Path(), default=None, help="Also write the profile file.")
@_schema_option({"n": "int", "m": "int", "peak": "float", "peak_exact": "str|int",
                 "strategies": "[[float]]", "strategies_exact": "[[str|int]]",
                 "verified": "bool?"})
def game_construct(n, m, peak, check, out):
    g = RankingGame.tent(n, m, parse_number(peak))
    profile = eq_mod.construct_equilibrium(g)
    data = profile_to_dict(g, profile)
    if check:
        data["verified"] = eq_mod.verify_nash(g, profile).is_nash
    if out:
        save_profile(out, g, profile)
    _emit(data)


def _nash_report_dict(report):
    return {
        "is_nash": report.is_nash,
        "per_player": [
            {
                "player": pd.player,
                **dual_view("current", pd.current),
                **dual_view("attained", pd.attained),
                "improving_witness": (
                    float_view(pd.improving_witness.emphases)
                    if pd.improving_witness is not None
                    else None
                ),
            }
            for pd in report.per_player
        ],
    }


@game.command("verify")
@click.option("--profile", "profile_path", type=click.Path(exists=True), required=True)
@_schema_option({"is_nash": "bool", "per_player": [{"player": "int", "current": "float",
                 "current_exact": "str|int", "attained": "float", "attained_exact": "str|int",
                 "improving_witness": "[float]|null"}]})
def game_verify(profile_path):
    g, profile = load_profile(profile_path)
    _emit(_nash_report_dict(eq_mod.verify_nash(g, profile)))


@game.command("best-response")
@click.option("--profile", "profile_path", type=click.Path(exists=True), required=True)
@click.option("--player", type=int, required=True)
@click.option("--epsilon", default="1/1000")
@_schema_option({"player": "int", "sup_value": "float", "sup_value_exact": "str|int",
                 "attained_value": "float", "attained_value_exact": "str|int",
                 "plan": {"solo": "[int]", "tie": "[int]"}, "witness": "[float]",
                 "witness_exact": "[str|int]", "witness_utility": "float", "epsilon_used": "float"})
def game_best_response(profile_path, player, epsilon):
    g, profile = load_profile(profile_path)
    require_valid(g, profile)
    ths, res = br_mod._respond(g, query_scores(g, profile), player)
    wit = br_mod._witness(g, profile, player, ths, res, parse_number(epsilon))
    _emit({
        "player": player,
        **dual_view("sup_value", res.sup_value),
        **dual_view("attained_value", res.attained_value),
        "plan": {"solo": sorted(wit.plan.solo_set), "tie": sorted(wit.plan.tie_set)},
        **dual_view("witness", wit.strategy.emphases),
        "witness_utility": float(wit.value),
        "epsilon_used": float(wit.epsilon_used),
    })


_CYCLE_SCHEMA = {"first": "int", "second": "int", "equivalence": "str",
                 "player_perm": "[int]|null", "query_perm": "[int]|null"}


@game.command("dynamics")
@click.option("--init", "init_path", type=click.Path(exists=True), default=None,
              help="Profile file: run best-response dynamics from this profile.")
@click.option("--replay", "replay_path", type=click.Path(exists=True), default=None,
              help="Explicit profile sequence to verify and scan for cycles.")
@click.option("--order", type=click.Choice(["round-robin", "random"]), default="round-robin")
@click.option("--seed", type=int, default=None)
@click.option("--max-rounds", type=int, default=100)
@click.option("--epsilon", default="1/1000")
@click.option("--cycle-mode", type=click.Choice(["symmetric", "exact"]), default="symmetric")
@_schema_option({
    "jsonl": "one step object per line, then an outcome object; replay mode"
             " emits step reports and a cycle object",
    "step": {"step": "int", "mover": "int", "moved": "bool", "value": "float",
             "value_exact": "str|int", "profile": "[[float]]", "profile_exact": "[[str|int]]"},
    "outcome": {"outcome": "str", "round": "int|null", "cycle": _CYCLE_SCHEMA},
    "replay_step": {"step": "int", "mover": "int|null", "value": "float",
                    "value_exact": "str|int", "optimal_value": "float", "optimal": "bool"},
    "replay_outcome": {"cycle": _CYCLE_SCHEMA, "steps": "int"},
})
def game_dynamics(init_path, replay_path, order, seed, max_rounds, epsilon, cycle_mode):
    if (init_path is None) == (replay_path is None):
        raise click.UsageError("provide exactly one of --init or --replay")
    if seed is None:
        seed = _env_int("RANKCOMP_SEED")
    if replay_path:
        g, profiles = load_sequence(replay_path)
        reports = dyn_mod.verify_trace(g, profiles)
        cyc = dyn_mod.detect_cycle(g, profiles, mode=cycle_mode)
        for rep in reports:
            _emit({"step": rep.index, "mover": rep.mover, **dual_view("value", rep.achieved),
                   "optimal_value": float(rep.optimal_value), "optimal": rep.optimal})
        _emit({"cycle": asdict(cyc) if cyc else None, "steps": len(reports)})
        return
    g, initial = load_profile(init_path)
    trace = dyn_mod.run_dynamics(
        g,
        initial,
        order=order,
        seed=seed,
        max_rounds=max_rounds,
        epsilon=parse_number(epsilon),
        cycle_mode=cycle_mode,
    )
    for step in trace.steps:
        rows = [v.emphases for v in step.profile.strategies]
        _emit({"step": step.index, "mover": step.mover, "moved": step.moved,
               **dual_view("value", step.value), **dual_view("profile", rows)})
    cyc = trace.outcome.cycle
    _emit({"outcome": trace.outcome.kind, "round": trace.outcome.round,
           "cycle": asdict(cyc) if cyc else None})


@game.command("oracle")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--peak", required=True)
@click.option("--grid", "g_res", type=int, required=True)
@click.option("--mode", type=click.Choice(["exact", "grid"]), default="exact")
@click.option("--jobs", type=click.IntRange(min=1), default=None)
@click.option("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)
@click.option("--no-symmetry", is_flag=True)
@_schema_option({"mode": "str", "profiles_checked": "int", "strategy_count": "int",
                 "equilibria": "[[[float]]]", "equilibria_exact": "[[[str|int]]]",
                 "count": "int", "notes": "[str]"})
def game_oracle(n, m, peak, g_res, mode, jobs, budget, no_symmetry):
    if jobs is None:
        jobs = _env_int("RANKCOMP_JOBS", low=1) or 1
    peak_value = parse_number(peak)
    spec = oracle_mod.GridSpec(
        g=g_res, n=n, m=m, peak=peak_value, budget=budget, symmetry=not no_symmetry
    )
    g = RankingGame.tent(n, m, peak_value)
    result = oracle_mod.grid_nash_search(g, spec, deviation_mode=mode, jobs=jobs)
    _emit({
        "mode": result.mode,
        "profiles_checked": result.profiles_checked,
        "strategy_count": result.strategy_count,
        "count": len(result.equilibria),
        **dual_view("equilibria", [[v.emphases for v in prof.strategies]
                                   for prof in result.equilibria]),
        "notes": list(result.notes),
    })


# ----------------------------------------------------------------- features


@main.group()
def features():
    """Per-(document, query) features and ranking similarity."""


@features.command("extract")
@_log_option
@click.option("--out", type=click.Path(), required=True)
@_stopwords_option
@_schema_option({"rows": "int", "out": "str", "columns": "[str]"})
def features_extract(log_path, out, stops):
    """One CSV row of the eight features per document x query."""
    import csv

    log = load_log(log_path)
    columns = ["topic_id", "round_index", "query_index", "publisher"] + list(TEXT_FEATURE_NAMES)
    rows = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for topic, rnd, q, pub, feats in document_features(log, stops):
            writer.writerow(
                [topic.topic_id, rnd.round_index, q, pub] + [repr(v) for v in feats.as_tuple()]
            )
            rows += 1
    _emit({"rows": rows, "out": out, "columns": columns})


@features.command("rbo")
@click.option("--a", "path_a", type=click.Path(exists=True), required=True)
@click.option("--b", "path_b", type=click.Path(exists=True), required=True)
@click.option("--p", "persistence", type=float, default=0.9)
@_schema_option({"rbo": "float", "persistence": "float"})
def features_rbo(path_a, path_b, persistence):
    """RBO between two JSON list files."""
    rankings = [read_json(path) for path in (path_a, path_b)]
    for path, items in zip((path_a, path_b), rankings):
        if not isinstance(items, list) or any(isinstance(e, (list, dict)) for e in items):
            raise DomainError(f"{path}: a ranking file must hold a JSON list of ids")
    _emit({"rbo": rbo(*rankings, persistence), "persistence": persistence})


# ------------------------------------------------------------------- report


@main.group()
def report():
    """Aggregated views over a competition log."""


@report.command("win-spread")
@_log_option
@_schema_option({"rows": [{"wins": "int", "doc_percent": "float",
                 "mean_nonwon_rank": "float|null"}], "observations": "int"})
def report_win_spread_cmd(log_path):
    data = report_win_spread(load_log(log_path))
    _emit({"rows": [asdict(r) for r in data["rows"]], "observations": data["observations"]})


@report.command("rbo")
@_log_option
@click.option("--p", "persistence", type=float, default=0.9)
@_schema_option({"per_round": {"<round>": "float"}, "persistence": "float"})
def report_rbo_cmd(log_path, persistence):
    values = report_ranking_agreement(load_log(log_path), persistence)
    _emit({"per_round": {str(k): v for k, v in values.items()}, "persistence": persistence})


@report.command("trajectories")
@_log_option
@_stopwords_option
@_schema_option({"per_round": {"<round>": {"winner|loser": {"<feature>": "float"}}}})
def report_trajectories_cmd(log_path, stops):
    data = report_feature_trajectories(load_log(log_path), stops)
    _emit({"per_round": {str(k): v for k, v in data.items()}})


# ----------------------------------------------------------------- simulate


@main.group()
def simulate():
    """Synthetic data generation."""


@simulate.command("competition")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@_schema_option({"topics": "int", "rounds": "int", "publishers": "int", "out": "str"})
def simulate_competition(config_path, seed, out):
    seed = _require_seed(seed)
    config = SynthesisConfig.from_dict(read_json(config_path) if config_path else {})
    log = synthesize(config, seed)
    save_log(out, log)
    _emit({"topics": config.topics, "rounds": config.rounds, "publishers": config.publishers,
           "out": out})


# ------------------------------------------------------------------ predict


@main.group()
def predict():
    """Winner-prediction pipeline."""


@predict.command("build")
@_log_option
@click.option("--out", type=click.Path(), required=True)
@_stopwords_option
@click.option("--normalize/--no-normalize", default=True,
              help="Apply per-query min-max normalization (default on).")
@_schema_option({"instances": "int", "groups": "int", "out": "str"})
def predict_build(log_path, out, stops, normalize):
    log = load_log(log_path)
    insts = build_instances(log, stopwords=stops)
    if normalize:
        insts = normalize_per_query(insts)
    instances_to_csv(out, insts)
    groups = len({inst.group_key for inst in insts})
    _emit({"instances": len(insts), "groups": groups, "out": out})


@predict.command("cv")
@click.option("--instances", "instances_path", type=click.Path(exists=True), required=True)
@click.option("--params", default="1,10,50,100")
@click.option("--seed", type=int, default=None,
              help="A label only: the fits are deterministic, so every seed prints the same.")
@click.option("--sections", default=None,
              help="Comma-separated feature sections to keep (ablation).")
@_schema_option({"folds": [{"test_round": "int", "selected_param": "float", "acc": "float",
                 "f1": "float"}], "mean_acc": "float", "mean_f1": "float",
                 "params": "[float]"})
def predict_cv(instances_path, params, seed, sections):
    if seed is None:
        seed = _env_int("RANKCOMP_SEED") or 0
    insts = instances_from_csv(instances_path)
    if sections:
        insts = mask_sections(insts, [s.strip() for s in sections.split(",") if s.strip()])
    try:
        grid = tuple(float(v) for v in params.split(","))
    except ValueError as exc:  # names the entry: could not convert string to float: 'abc'
        raise DomainError(f"--params: {exc}") from None
    _emit(asdict(cross_validate(insts, grid, seed=seed)))


@predict.command("baselines")
@_log_option
@click.option("--seed", type=int, default=None)
@_stopwords_option
@_schema_option({"<baseline>": {"acc": "float", "f1": "float"}})
def predict_baselines(log_path, seed, stops):
    seed = _require_seed(seed)
    log = load_log(log_path)
    insts = normalize_per_query(build_instances(log, stopwords=stops))
    results = {}
    for name, preds in run_baselines(log, insts, seed).items():
        acc, f1 = evaluate(preds)
        results[name] = {"acc": acc, "f1": f1}
    _emit(results)


if __name__ == "__main__":
    main()
