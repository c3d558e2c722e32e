"""Outputs pinned to recorded values: a change that only removes repeated
work must leave every CSV byte and every setup result as it was.

The digests and float.hex literals were recorded from the code before the
y-update took its point from step(), the recorder filled a row with one
concatenate and the CSV writer formatted blocks of rows, and those of M
before its bisection stopped at convergence, those of the checks before
the replications of a run shared one probe generator, and those of the
ridge and hinge runs before the sampled subgradient read component data
gathered a block of steps at a time; they hold as long as no output value
or its formatting changes."""

import hashlib

import pytest

from stocadmm import solvers
from stocadmm.harness import ExperimentConfig, run_experiment
from stocadmm.metrics import compute_reference
from stocadmm.presets import build_preset
from stocadmm.solvers import SolverConfig

SMALL = {"n": 50, "d": 6}

# config name -> (ExperimentConfig fields, sha256 of each CSV file it writes),
# small runs shaped like the four benchmark workloads, a ridge term (mu > 0)
# and a hinge loss (labels; no reference, so no aggregate.csv)
GOLDEN = {
    "linearized-every-step": (
        dict(preset="lasso-split", replications=1, t_grid=list(range(1, 301)),
             solver=SolverConfig(variant="linearized", G=2.0, t_max=300)),
        {"aggregate.csv": "3f27cf164770b923c4413aca926b36381dbb5b704e916a354edcd318d6dd0c85",
         "traj_rep000.csv": "b3dc60a32da8a49d4af17314dfb046253461ef48db5dfc8f5f5d4e0e3f8a8b57"}),
    "kernel-stochastic": (
        dict(preset="lasso-split", replications=3, solver=SolverConfig(t_max=300)),
        {"aggregate.csv": "d1c5fb4a7b37c6a5a86b861a46cb64eac1ca19137abe99cce27920b4321cd535",
         "traj_rep000.csv": "8f0aa9045740afe203366efc1791c0404d86c13e274203451b02b3dbbe51418c",
         "traj_rep001.csv": "80cbdd878d59ba51b71fd513d8da7870b6246718e146f20575779c01f4fd2b00",
         "traj_rep002.csv": "d0a0660717f74d05370925af57e7b9587462f329557450a7e2665737560c4ce0"}),
    "general-step": (
        dict(preset="fused-lasso-graph", replications=2, solver=SolverConfig(t_max=300)),
        {"aggregate.csv": "f020b2f153b174b135a949de343f7892140aa6eb478a9fd02183332e1b7f7b88",
         "traj_rep000.csv": "e98a6417314af5a1d4954b9818d34d69f5848ce1b8dd820da8eb5849bef84a5a",
         "traj_rep001.csv": "f9e959092f3dc24e91a4b3b95360b49dc3901d63efd3f6ac98c79ad883a18026"}),
    "checked": (
        dict(preset="lasso-split", replications=2,
             solver=SolverConfig(t_max=100, check_invariants=True)),
        {"aggregate.csv": "4ec6500e32f4572e1d0220bfc164e46b80d7ff1fb9777a4129e66e59222886c0",
         "traj_rep000.csv": "d0b131cf6ed899a8610324fe61243b162b2a6fc7e28f932e522c3e7cf711f7ad",
         "traj_rep001.csv": "66ca9c30ab925ccec370d682bb26f13745d731636351b693bbf4f72e66620112"}),
    # 1700 steps of 3 streams at d = 6 cross the boundary of the sampled
    # components' first gathered block (1560 steps) into a shorter last one
    "strongly-convex-ridge": (
        dict(preset="strongly-convex-lasso", replications=3,
             solver=SolverConfig(schedule="strongly-convex", t_max=1700)),
        {"aggregate.csv": "eb6fe00737d914f78349bc9929bb1eeef6b7204c6eb0e655ce1cc0a06123fedb",
         "traj_rep000.csv": "156f90b77805e05092874c5d3a900e6fb6eb49791eea43da11239b571ff7690d",
         "traj_rep001.csv": "af752d2755f59453cd39a2cee29bfa1660ea95943f2b92b8a06e394ccd52e009",
         "traj_rep002.csv": "dcfef31de03e4a012de6c2addb5f65d0ef4a6ceff8caf0fea804a11a2bfab05e"}),
    "hinge-labels": (
        dict(preset="hinge-svm-split", replications=3, solver=SolverConfig(t_max=1700)),
        {"traj_rep000.csv": "cadc50221e13ed68177193c2e42fbd2e68ed2aec9f0ba6a7b84d51617c0b65da",
         "traj_rep001.csv": "50454859ba2c0d10f22faeb5c5a11c1f77d72295d46b497695a3379479559421",
         "traj_rep002.csv": "cf033f09dc0f00620a77dbf61954393519203c59a0d8283c9fc2225a42d22121"}),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_outputs_match_recorded_digests(tmp_path, name):
    fields, digests = GOLDEN[name]
    _, code = run_experiment(ExperimentConfig(preset_params=SMALL, out_dir=str(tmp_path),
                                              **fields))
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert written == digests


# config name -> (ExperimentConfig fields, float.hex of each invariant_worst
# value, invariant_probes, sha256 of invariants.log) of a checked run whose
# x-update at step 20 is moved off its minimizer: GOLDEN's checked run, and
# one with two check groups and a last chunk shorter than CHECK_CHUNK
CHECKED = {
    "checked": (
        GOLDEN["checked"][0],
        {"dual-identity": "0x1.8000000000000p-57", "y-optimality": "0x1.2f7f8bdbad95fp-50",
         "three-points": "0x1.99d1164cb658ap+9", "step-inequality": "0x1.fe93c92f03000p-1"},
        {"dual-identity": 200, "y-optimality": 4000, "three-points": 1000,
         "step-inequality": 1000},
        "846982656dbe1007a7651cefa7a649c84c9bfdfa41094ae1dfe865d7f6c078f6"),
    "checked-R6-T77": (
        dict(preset="lasso-split", replications=6,
             solver=SolverConfig(t_max=77, check_invariants=True)),
        {"dual-identity": "0x1.01fe03f61bad0p-56", "y-optimality": "0x1.2f7f8bdbad95fp-50",
         "three-points": "0x1.99d1164cb658ap+9", "step-inequality": "0x1.fe9a9f759e29ep-1"},
        {"dual-identity": 462, "y-optimality": 9240, "three-points": 2310,
         "step-inequality": 2310},
        "6566f51704d270647d8f41ade2406c8ab9d0712973c7c8b9f192c8cd8f1abfae"),
}


@pytest.mark.parametrize("name", list(CHECKED))
def test_checked_run_matches_recorded_worst_probes_and_log(tmp_path, monkeypatch, name):
    fields, worst, probes, log_digest = CHECKED[name]
    real, calls = solvers.min_quadratic_over_set, [0]

    def perturbed(H0, eig, shift, *args, **kwargs):
        x = real(H0, eig, shift, *args, **kwargs)
        calls[0] += shift > 0  # a stochastic step, not the reference solve
        return x + 3.0 if calls[0] == 20 and shift > 0 else x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", perturbed)
    report, code = run_experiment(ExperimentConfig(preset_params=SMALL,
                                                   out_dir=str(tmp_path), **fields))
    assert code == 1
    assert {k: v.hex() for k, v in report["invariant_worst"].items()} == worst
    assert report["invariant_probes"] == probes
    log = (tmp_path / "invariants.log").read_bytes()
    assert hashlib.sha256(log).hexdigest() == log_digest


# (preset, seed) -> float.hex of the feasible ball's radius, sized by the
# FISTA solve, and of the long-ADMM reference optimum theta*
SETUP = {
    ("lasso-split", 0): ("0x1.51c84dd068c59p+1", "0x1.ac9383fccec1ap-1"),
    ("lasso-split", 1): ("0x1.a26c9f01f28ddp+1", "0x1.a8fc69dbf54e2p-1"),
    ("lasso-split", 2): ("0x1.a2d6f86b9047ep+0", "0x1.52df1aefee9a3p-1"),
    ("strongly-convex-lasso", 0): ("0x1.e547d3985b182p+0", "0x1.cc74c51756a21p-1"),
    ("strongly-convex-lasso", 1): ("0x1.6a2fb7108311bp+1", "0x1.e428bce461ca0p-1"),
    ("strongly-convex-lasso", 2): ("0x1.4db4fae00fb4cp+0", "0x1.607e7a4924930p-1"),
}


@pytest.mark.parametrize("preset,seed", list(SETUP))
def test_ball_radius_and_reference_optimum_match_recorded_bits(preset, seed):
    spec = build_preset(preset, seed).spec
    ref = compute_reference(spec, "auto", beta=1.0)
    assert (spec.X.radius.hex(), ref.theta_star.hex()) == SETUP[preset, seed]


# (preset, seed) -> float.hex of the subgradient bound M, the sup of a
# quadratic over the ball found by bisection on its secular equation
BOUND_M = {
    ("lasso-split", 0): "0x1.46c68e7ef6924p+3",
    ("lasso-split", 1): "0x1.ae2888fc37621p+3",
    ("lasso-split", 2): "0x1.c2d76937405bap+2",
    ("fused-lasso-graph", 0): "0x1.3914d0ed65b38p+4",
    ("fused-lasso-graph", 1): "0x1.2cd5c8b49f65bp+4",
    ("fused-lasso-graph", 2): "0x1.3a3e7eb309b75p+4",
}


@pytest.mark.parametrize("preset,seed", list(BOUND_M))
def test_subgradient_bound_matches_recorded_bits(preset, seed):
    assert build_preset(preset, seed).spec.constants.M.hex() == BOUND_M[preset, seed]
