"""Command-line front end: compile, run, sweep, and example emission.

Exit codes: 0 success, 1 errors, 2 run completed with saturation
warnings, 3 deadlock or step-limit hit (a run or a sweep point), with the
blocked-actor diagnosis. PUMA_LOG=1|2 raises trace verbosity.
"""

import argparse
import contextlib
import csv
import json
import logging
import operator
import os
import sys
import weakref
from dataclasses import fields

import numpy as np

from . import container
from . import fixedpoint as fp
from . import graph as gr
from . import models
from .compiler import CompileOptions, compile_model
from .machine import CHIP_FIELDS, MachineConfig, load_config, parse_config
from .simulator import Chip, Machine, run as sim_run

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SATURATION = 2
EXIT_STALLED = 3


class StalledError(Exception):
    """A sweep point that deadlocked or hit its step limit; the message
    holds the blocked-actor diagnosis."""


def _setup_logging():
    level = os.environ.get("PUMA_LOG", "0")
    lvl = {"0": logging.WARNING, "1": logging.INFO, "2": logging.DEBUG}.get(
        level, logging.WARNING)
    logging.basicConfig(level=lvl, format="%(name)s %(message)s")


def _load_cfg(args):
    cfg = MachineConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    return cfg


def read_tensors(path):
    """Input/output tensor file: name -> one vector of raw words (hex
    string or ints)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for name, val in doc.items():
        if isinstance(val, str):
            out[name] = fp.from_hex(val)
        else:
            out[name] = np.asarray(val, dtype=np.int64)
            if out[name].ndim != 1:
                raise ValueError(f"tensor {name!r} is not one vector of "
                                 f"words")
    return out


def write_tensors(path, tensors):
    """name -> one vector of raw words, written as hex strings."""
    for name, vec in tensors.items():
        if np.ndim(vec) != 1:
            raise ValueError(f"tensor {name!r} is not one vector of words")
    doc = {name: fp.to_hex(vec) for name, vec in tensors.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


_SWITCHES = [f for f in fields(CompileOptions) if "doc" in f.metadata]


def _opts_from(args):
    return CompileOptions(seed=args.seed or 0,
                          **{f.name: getattr(args, f.name) for f in _SWITCHES})


def _add_compile_flags(p):
    """One flag per CompileOptions switch: --no-<name> turns off one that
    is on by default, --<name> turns on one that is off."""
    for f in _SWITCHES:
        name = f.name.replace("_", "-")
        if f.default:
            p.add_argument(f"--no-{name}", dest=f.name, action="store_false",
                           help=f"disable {f.metadata['doc']}")
        else:
            p.add_argument(f"--{name}", dest=f.name, action="store_true",
                           help=f.metadata["doc"])


def cmd_compile(args):
    cfg = _load_cfg(args)
    g = gr.load_model(args.model)
    prog, report = compile_model(g, cfg, _opts_from(args))
    container.save_file(prog, args.out)
    text = report.to_text()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(report.plan)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args):
    cfg = _load_cfg(args)
    prog = container.load_file(args.container)
    machine = Machine(cfg, prog)
    inputs = read_tensors(args.inputs)
    report = sim_run(machine, inputs, step_limit=args.step_limit,
                     order_seed=args.order_seed)
    doc = report.to_dict()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        if report.outputs:
            write_tensors(os.path.join(args.out, "outputs.json"),
                          report.outputs)
    sys.stdout.write(report.to_text())
    if not report.halted:
        return EXIT_STALLED
    if report.saturations:
        return EXIT_SATURATION
    return EXIT_OK


SWEEP_AXES = ("vfu_lanes", "mvmus_per_core", "crossbar_dim", "register_size",
              "noise_sigma", "bits_per_device")


_compile_key = operator.attrgetter(*CHIP_FIELDS)
_opts_key = operator.attrgetter(*(f.name for f in fields(CompileOptions)))
# frozen graph -> {(config key, options key): Chip}; an entry goes with its
# graph
_chips = weakref.WeakKeyDictionary()


def _sweep_chip(graph, cfg, opts):
    """The checked chip of one sweep point, compiled and checked once per
    frozen graph and compile-relevant config. The Chip is shared between
    points, so it must not leave sweep_point."""
    key = (_compile_key(cfg), _opts_key(opts))
    known = _chips.setdefault(graph, {})
    if key not in known:
        known[key] = Chip(cfg, compile_model(graph, cfg, opts)[0])
    return known[key]


def sweep_point(graph, cfg, inputs, opts, eval_set=None, labels=None,
                output_name=None, step_limit=2_000_000):
    """One run -> (latency_ns, energy_nj, accuracy|None). Points that
    differ only in RUN_ONLY_FIELDS share one compile of a frozen graph
    and one Chip, which each point programs with its own fields.

    The eval points ride along as extra lanes of the timed run: the
    modeled figures are those of one inference, and accuracy is scored on
    the eval lanes."""
    chip = _sweep_chip(graph, cfg, opts or CompileOptions())
    if eval_set is not None:
        # an input some lane lacks stays out, and the run reports it missing
        lanes = [inputs] + list(eval_set)
        inputs = {name: np.array([p[name] for p in lanes])
                  for name in {b.name for b in chip.prog.inputs()}
                  if all(name in p for p in lanes)}
    report = sim_run(Machine(cfg, chip), inputs, step_limit=step_limit)
    if not report.halted:
        why = "hit its step limit" if report.step_limit_hit else "deadlocked"
        raise StalledError(f"sweep point {why}" + "".join(
            f"\ndiag: {d}" for d in report.diagnosis))
    accuracy = None
    if eval_set is not None:
        accuracy = models.classifier_accuracy(
            report.outputs[output_name][1:], labels)
    return report.latency_ns, report.energy_total_nj, accuracy


def cmd_sweep(args):
    cfg = _load_cfg(args)
    g = gr.load_model(args.model)
    inputs = read_tensors(args.inputs)
    opts = _opts_from(args)
    eval_set = labels = output_name = None
    if args.eval:
        with open(args.eval, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        output_name = doc["output"]
        labels = doc["labels"]
        eval_set = [{doc["input"]: fp.from_hex(h)} for h in doc["points"]]
    values = [v for v in args.range.split(",") if v]
    field = "xbar_dim" if args.axis == "crossbar_dim" else args.axis
    rows = []
    for v in values:
        pcfg = parse_config(f"{field}={v}", cfg)
        latency, energy, acc = sweep_point(g, pcfg, inputs, opts, eval_set,
                                           labels, output_name)
        rows.append((v, latency, energy, "" if acc is None else f"{acc:.4f}"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    with (open(os.path.join(args.out, f"sweep_{args.axis}.csv"), "w",
               encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        w = csv.writer(out)
        w.writerow([args.axis, "latency_ns", "energy_nj", "accuracy"])
        w.writerows(rows)
    return EXIT_OK


def cmd_example(args):
    os.makedirs(args.out, exist_ok=True)
    g, inputs = models.build_example(args.name)
    gr.save_model(g, os.path.join(args.out, f"{args.name}.json"))
    write_tensors(os.path.join(args.out, f"{args.name}_inputs.json"), inputs)
    cfg = models.default_config_for(args.name)
    with open(os.path.join(args.out, f"{args.name}_machine.cfg"), "w",
              encoding="utf-8") as fh:
        fh.write(cfg.to_text())
    sys.stdout.write(f"wrote {args.name} model, inputs, and machine config "
                     f"to {args.out}\n")
    return EXIT_OK


def make_parser():
    p = argparse.ArgumentParser(
        prog="xbarsim",
        description="compile and simulate models for a memristor-crossbar "
                    "inference accelerator")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="model JSON -> program container")
    c.add_argument("model")
    c.add_argument("-o", "--out", required=True)
    c.add_argument("--config")
    c.add_argument("--seed", type=int)
    c.add_argument("--report")
    _add_compile_flags(c)
    c.set_defaults(fn=cmd_compile)

    r = sub.add_parser("run", help="simulate a compiled container")
    r.add_argument("container")
    r.add_argument("--inputs", required=True)
    r.add_argument("--config")
    r.add_argument("--seed", type=int)
    r.add_argument("--order-seed", type=int, default=None,
                   help="check whether reports depend on same-cycle order")
    r.add_argument("--step-limit", type=int, default=1_000_000)
    r.add_argument("--out")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="design-space sweep -> CSV")
    s.add_argument("model")
    s.add_argument("--axis", required=True, choices=SWEEP_AXES)
    s.add_argument("--range", required=True,
                   help="comma-separated parameter values")
    s.add_argument("--inputs", required=True)
    s.add_argument("--eval", help="labeled points for accuracy")
    s.add_argument("--config")
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    _add_compile_flags(s)
    s.set_defaults(fn=cmd_sweep)

    e = sub.add_parser("example", help="emit a shipped example model")
    e.add_argument("name", choices=sorted(models.EXAMPLES))
    e.add_argument("-o", "--out", default=".")
    e.set_defaults(fn=cmd_example)
    return p


def main(argv=None):
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StalledError as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_STALLED
    except Exception as e:  # surfaced with provenance, nonzero exit
        if os.environ.get("PUMA_LOG") == "2":
            raise
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
