"""The benchmark's workloads: what one job is, and how each job is checked.

A workload is built by its entry in ``WORKLOADS`` (what users pay once:
building the models and serialising them with graph.to_json, training the
classifier), then
``prepare`` computes the references the checks compare against (excluded
from set-up time). ``jobs`` run in a closed loop, one after another, and
``check_round`` checks a whole round of their outcomes outside the timed
section. Jobs marked ``expect_fail`` are kept only to expose a known
fault; they stay out of every modeled aggregate.
"""

import zlib
from dataclasses import dataclass

import numpy as np

import reference

MVM_NJ = 43.97            # paper's energy per MVMU activation


def sub_seed(seed, tag):
    """Independent 32-bit seed for one model or noise draw of a workload."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


@dataclass
class ModelRun:
    """One modeled run that enters the workload's modeled aggregates."""
    report: object          # simulator.RunReport
    compile_report: object  # compiler.CompileReport
    instrs: int


def _signature(run):
    """The modeled facts of a run that must repeat exactly."""
    return (run.halted, run.steps, run.latency_ns, run.energy_total_nj,
            tuple(sorted(run.energy_nj.items())),
            tuple((k, tuple(v.tolist()))
                  for k, v in sorted(run.outputs.items())))


# ---------------------------------------------------------------------------
# deploy and kernels: graph.from_json -> compile -> save -> loads -> run
# ---------------------------------------------------------------------------

class PipelineJob:
    def __init__(self, x, name, built, cfg, opts, expect_fail=False):
        self.x = x
        self.name = name
        self.graph, self.inputs = built
        self.text = x.graph.to_json(self.graph)
        self.cfg = cfg
        self.opts = opts
        self.expect_fail = expect_fail

    def prepare(self):
        self.expected = self.x.graph.evaluate(self.graph, self.inputs,
                                              self.cfg.xbar_dim)
        self.ref = reference.evaluate(self.graph, self.inputs,
                                      self.cfg.xbar_dim)
        self.signature = None

    def run(self):
        x = self.x
        g = x.graph.from_json(self.text)
        prog, creport = x.compiler.compile_model(g, self.cfg, self.opts)
        blob = x.container.save(prog)
        machine = x.simulator.Machine(self.cfg, x.container.loads(blob))
        report = x.simulator.run(machine, self.inputs)
        return ModelRun(report, creport, prog.total_instructions())

    def check(self, out):
        r = out.report
        if not r.halted:
            return [f"did not halt: {'; '.join(r.diagnosis)}"]
        problems = []
        differ, over = [], []
        for name, want in self.expected.items():
            got = r.outputs.get(name)
            if got is None or not np.array_equal(got, want):
                differ.append(name)
                continue
            ok, worst = reference.within(got, self.ref[name])
            if not ok:
                over.append((worst, name))
        if differ:
            problems.append(f"outputs {', '.join(differ)} differ from "
                            "graph.evaluate")
        if over:
            worst, name = max(over)
            problems.append(f"{len(over)} outputs exceed the float64 "
                            f"reference's error bound ({name}: {worst:.2f}x)")
        activations = r.energy_nj.get("mvmu", 0.0) / MVM_NJ
        whole = round(activations)
        if abs(activations - whole) > 1e-6 or \
                whole < r.instr_dynamic.get("mvm", 0):
            problems.append(f"MVMU energy {r.energy_nj.get('mvmu')} nJ is "
                            f"not >= one {MVM_NJ} nJ activation per mvm")
        sig = _signature(r)
        if self.signature is None:
            self.signature = sig
        elif sig != self.signature:
            problems.append("modeled result differs from the first round")
        return problems


class PipelineWorkload:
    def __init__(self, jobs):
        self.jobs = jobs
        self.first = None

    def prepare(self):
        for job in self.jobs:
            job.prepare()
        return []

    def check_round(self, outcomes):
        if self.first is None:
            self.first = outcomes
        return [job.check(out) for job, out in zip(self.jobs, outcomes)], []

    def modeled(self):
        return [out for job, out in zip(self.jobs, self.first)
                if not job.expect_fail]


def defect_a_model(x):
    """A concat of an MVM result and an input, read both as an output and
    by a second MVM: on the geometry below, the output's input half is
    read from another core's register (wrong bits, no error raised)."""
    rng = np.random.default_rng(0)
    g = x.graph.ModelGraph()
    a = g.input("a", 2)
    v = g.input("x", 24)
    y = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (24, 16))), v)
    c = g.concat([y, a])
    o1 = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (18, 27))), c)
    g.output("o0", c)
    g.output("o1", o1)
    g.freeze()
    inputs = x.graph.quantize_inputs(g, {"a": rng.uniform(-1, 1, 2),
                                         "x": rng.uniform(-1, 1, 24)})
    return g, inputs


def setup_deploy(x, seed):
    m, mc = x.models, x.machine.MachineConfig
    plain = x.compiler.CompileOptions()
    specs = [
        ("mlp512", lambda s: m.mlp_model(512, seed=s), mc(tiles=4)),
        ("lstm128", lambda s: m.lstm_model(128, seed=s), None),
        ("mlp256", lambda s: m.mlp_model(256, seed=s), None),
        ("mlp128", lambda s: m.mlp_model(128, seed=s), None),
        ("mvm_pair", lambda s: m.pure_mvm_kernel(seed=s), None),
    ]
    return PipelineWorkload([
        PipelineJob(x, name, build(sub_seed(seed, name)),
                    cfg or m.default_config_for(name), plain)
        for name, build, cfg in specs])


def setup_kernels(x, seed):
    m, mc = x.models, x.machine.MachineConfig
    plain = x.compiler.CompileOptions()
    loop = x.compiler.CompileOptions(conv_loop=True)

    def conv4(s):
        return m.conv_model(side=4, channels=1, filters=2, seed=s,
                            pixel_outputs=True)

    specs = [
        ("conv12_loop", "conv12",
         lambda s: m.conv_model(side=12, channels=1, filters=2, seed=s,
                                pixel_outputs=True), mc(), loop),
        ("conv8x8", "conv8x8", lambda s: m.conv_model(seed=s), None, plain),
        ("cnn_small", "cnn_small", lambda s: m.cnn_small(seed=s), None, plain),
        ("conv_loop", "conv_loop", conv4, None, plain),
        ("conv_loop_looped", "conv_loop", conv4, None, loop),
        ("lstm8", "lstm8", lambda s: m.lstm_model(8, seed=s), None, plain),
        ("vector", "vector", lambda s: m.vector_kernel(seed=s), None, plain),
        ("mlp_l4", "mlp_l4", lambda s: m.mlp_model(16, depth=4, seed=s),
         None, plain),
        ("mlp4", "mlp4", lambda s: m.mlp_model(4, seed=s), None, plain),
    ]
    jobs = [PipelineJob(x, name, build(sub_seed(seed, tag)),
                        cfg or m.default_config_for(tag), opts)
            for name, tag, build, cfg, opts in specs]
    jobs.append(PipelineJob(
        x, "defect_a", defect_a_model(x),
        mc(xbar_dim=16, tiles=1, cores_per_tile=4, mvmus_per_core=2), plain,
        expect_fail=True))
    return PipelineWorkload(jobs)


# ---------------------------------------------------------------------------
# noise_sweep: cli.sweep_point over write noise, cell precision and the ADC
# ---------------------------------------------------------------------------

SIGMAS = (0.0075, 0.017, 0.038, 0.057)
BITS = (2, 4)
NOISE_SEEDS = 3


class SweepJob:
    def __init__(self, w, bits, sigma, noise_seed, adc_bits,
                 expect_fail=False):
        self.w = w              # the SweepWorkload
        self.bits = bits
        self.sigma = sigma
        self.noise_seed = noise_seed
        self.adc_bits = adc_bits
        self.expect_fail = expect_fail
        self.name = (f"bits{bits}_sigma{sigma}_seed{noise_seed}"
                     f"_adc{adc_bits}")

    def run(self):
        w = self.w
        cfg = w.base.with_overrides(bits_per_device=self.bits,
                                    noise_sigma=self.sigma,
                                    seed=self.noise_seed,
                                    adc_bits=self.adc_bits)
        return w.x.cli.sweep_point(w.graph, cfg, w.first_input, w.opts,
                                   w.points, w.labels, "y")


class SweepWorkload:
    def __init__(self, x, seed):
        self.x = x
        trained, self.points, self.labels = x.models.trained_tiny_classifier()
        # the model reaches `xbarsim sweep` as JSON
        self.graph = x.graph.from_json(x.graph.to_json(trained))
        rng = np.random.default_rng(sub_seed(seed, "noise_sweep"))
        seeds = [int(s) for s in rng.integers(0, 2**31, size=NOISE_SEEDS)]
        self.first_input = self.points[int(rng.integers(len(self.points)))]
        self.base = x.machine.MachineConfig(tiles=1)
        self.opts = x.compiler.CompileOptions()
        self.jobs = [SweepJob(self, b, 0.0, 0, 0) for b in BITS]
        self.jobs += [SweepJob(self, b, s, ns, 0)
                      for b in BITS for s in SIGMAS for ns in seeds]
        self.jobs.append(SweepJob(self, 2, 0.0, 0,
                                  x.crossbar.default_adc_bits(128),
                                  expect_fail=True))
        self.first = None

    def prepare(self):
        """Ideal accuracy from graph.evaluate and from the float64
        reference, and one clean compile + run per cell precision."""
        x, g = self.x, self.graph
        accuracy = x.models.classifier_accuracy
        outs = [x.graph.evaluate(g, p)["y"] for p in self.points]
        self.ideal = accuracy(outs, self.labels)
        floats = [reference.evaluate(g, p, self.base.xbar_dim)["y"][0]
                  for p in self.points]
        problems = []
        if accuracy(floats, self.labels) != self.ideal:
            problems.append(
                f"graph.evaluate accuracy {self.ideal} differs from the "
                f"float64 reference's {accuracy(floats, self.labels)}")
        self.clean = {}
        blobs = set()
        for b in BITS:
            cfg = self.base.with_overrides(bits_per_device=b)
            prog, creport = x.compiler.compile_model(g, cfg, self.opts)
            report = x.simulator.run(x.simulator.Machine(cfg, prog),
                                     self.first_input)
            # code_instrs counts each distinct program once
            blob = x.container.save(prog)
            self.clean[b] = ModelRun(report, creport,
                                     0 if blob in blobs else
                                     prog.total_instructions())
            blobs.add(blob)
        return problems

    def check_round(self, outcomes):
        failures = []
        for job, (latency, energy, acc) in zip(self.jobs, outcomes):
            clean = self.clean[job.bits].report
            problems = []
            if (latency, energy) != (clean.latency_ns, clean.energy_total_nj):
                problems.append(f"modeled ({latency}, {energy}) differs from "
                                f"the clean run's at {job.bits} bits/device")
            if job.sigma == 0 and acc != self.ideal:
                problems.append(f"accuracy {acc} != ideal {self.ideal}")
            failures.append(problems)
        round_problems = []
        if self.first is None:
            self.first = outcomes
        elif outcomes != self.first:
            round_problems.append("sweep results differ from the first round")
        acc = self.mean_accuracy(outcomes)
        if not acc[4, SIGMAS[-1]] < acc[4, 0.0]:
            round_problems.append(
                f"4 bits/device at sigma {SIGMAS[-1]} is not less accurate "
                f"({acc[4, SIGMAS[-1]]}) than at sigma 0 ({acc[4, 0.0]})")
        return failures, round_problems

    def mean_accuracy(self, outcomes):
        """(bits, sigma) -> accuracy averaged over the noise seeds."""
        groups = {}
        for job, (_, _, a) in zip(self.jobs, outcomes):
            if not job.adc_bits:
                groups.setdefault((job.bits, job.sigma), []).append(a)
        return {k: float(np.mean(v)) for k, v in groups.items()}

    def breaking_sigma(self, bits):
        """Smallest grid sigma whose mean accuracy falls below 90% of clean
        (inf if none): informational, see the README."""
        acc = self.mean_accuracy(self.first)
        for s in SIGMAS:
            if acc[bits, s] < 0.9 * acc[bits, 0.0]:
                return s
        return float("inf")

    def modeled(self):
        return list(self.clean.values())


WORKLOADS = {
    "deploy": setup_deploy,
    "kernels": setup_kernels,
    "noise_sweep": SweepWorkload,
}
