"""The benchmark's workloads: the CLI commands of one round, and the set-up.

A run repeats whole rounds until its measuring time is used up.  Every
command of a round gets the round's seed and the workload's worker count;
see ``round_seed``.  The scenarios below restate the bundled presets' designs
(arm means, trial sizes) so that the output checks in ``checks.py`` have
their own copy of what the program was asked to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALPHA = 0.05
DELTA = 0.545  # effect of the best arm over control in every H1 below


@dataclass(frozen=True)
class Scenario:
    preset: str
    K: int
    T: int
    hypotheses: dict = field(hash=False)
    overrides_T: bool = False  # pass ``--T`` because T differs from the preset's

    @property
    def argv(self) -> list[str]:
        argv = ["--preset", self.preset]
        if self.overrides_T:
            argv += ["--T", str(self.T)]
        return argv


TWO_ARM = Scenario("two-arm-t116", K=1, T=116,
                   hypotheses={"H0": (0.0, 0.0), "H1": (0.0, DELTA)})
_FOUR_ARM_HYPOTHESES = {"H0": (0.0, 0.0, 0.0, 0.0), "H1-LFC": (0.0, 0.178, 0.178, DELTA)}
FOUR_ARM = Scenario("four-arm-t302", K=3, T=302, hypotheses=_FOUR_ARM_HYPOTHESES)
FOUR_ARM_T64 = Scenario("four-arm-t302", K=3, T=64, hypotheses=_FOUR_ARM_HYPOTHESES,
                        overrides_T=True)


@dataclass(frozen=True)
class Command:
    """One ``bandit-trials calibrate`` or ``simulate`` invocation."""

    verb: str                       # "calibrate" | "simulate"
    scenario: Scenario
    policies: tuple[str, ...]
    M: int
    bias: bool = False
    traces: int = 0

    def argv(self, seed: int, workers: int, out_dir: str) -> list[str]:
        argv = [self.verb] + self.scenario.argv
        if self.verb == "calibrate":
            argv += ["--policy", self.policies[0]]
        else:
            argv += ["--policies", ",".join(self.policies)]
        argv += ["-M", str(self.M)]
        if self.bias:
            argv.append("--bias")
        if self.traces:
            argv += ["--traces", str(self.traces)]
        return argv + ["--seed", str(seed), "--workers", str(workers), "--out-dir", out_dir]

    @property
    def trials(self) -> int:
        """Replicates the command requests: every calibration and hypothesis run.

        ``simulate`` calibrates every policy except FR, which is tested at the
        analytic critical value.
        """
        if self.verb == "calibrate":
            return self.M
        runs = len(self.policies) * len(self.scenario.hypotheses)
        runs += sum(1 for p in self.policies if p != "FR")
        return self.M * runs


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    commands: tuple[Command, ...]
    # Commands run at set-up with the table cache on; empty means the run has
    # no cache and every command that needs an index table builds its own.
    warm_cache: tuple[tuple[str, ...], ...] = ()

    @property
    def trials_per_round(self) -> int:
        return sum(c.trials for c in self.commands)


def _warm(scenario: Scenario) -> tuple[str, ...]:
    # One GI replicate at the analytic critical value makes the program build
    # and store the table it looks up for this scenario, under its own key.
    return ("simulate", *scenario.argv, "--policies", "GI", "--hypotheses", "H0",
            "--critical-values", "analytic", "-M", "1", "--seed", "0", "--workers", "1")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="index-rule-calibration",
            workers=1,
            commands=tuple(Command("calibrate", TWO_ARM, (p,), 1000)
                           for p in ("GI", "RGI", "RBI", "UCB", "KLU", "CB"))
            + (Command("simulate", FOUR_ARM, ("CG", "CUC"), 100),),
            warm_cache=(_warm(TWO_ARM), _warm(FOUR_ARM)),
        ),
        Workload(
            name="probability-rule-simulation",
            workers=1,
            commands=(Command("simulate", TWO_ARM, ("TS", "TSB"), 100),
                      Command("simulate", FOUR_ARM_T64, ("FR", "TS", "TSB", "TP", "TPB"), 100)),
        ),
        Workload(
            name="cold-simulate-two-workers",
            workers=2,
            commands=(Command("simulate", TWO_ARM, ("FR", "GI", "RGI", "CB"), 500,
                              bias=True, traces=2),),
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """The ``--seed`` every command of round ``round_index`` receives."""
    return int(np.random.SeedSequence((seed, round_index)).generate_state(1)[0])
