"""Outputs pinned to recorded values: a change that only removes repeated
work must leave every CSV byte and every setup result as it was.

The digests and float.hex literals were recorded from the code before the
y-update took its point from step(), the recorder filled a row with one
concatenate and the CSV writer formatted blocks of rows, and those of M
before its bisection stopped at convergence, those of the checks before
the replications of a run shared one probe generator, those of the ridge
and hinge runs before the sampled subgradient read component data gathered
a block of steps at a time, that of the deterministic run before the
plan fixed the y-update's prox map and the running sums moved into one
array, those of the general-A runs and references before the hot
small products went through ndarray.dot, and those of the runs of one
replication while they advanced a (1, d) state; they hold as long as no output
value or its formatting changes."""

import hashlib

import numpy as np
import pytest

from stocadmm import solvers
from stocadmm.harness import (ExperimentConfig, plan_experiment, run_experiment,
                              run_replications)
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
    # the deterministic variant, which draws nothing: both replications are
    # one run
    "deterministic": (
        dict(preset="lasso-split", replications=2,
             solver=SolverConfig(variant="deterministic", t_max=200)),
        {"aggregate.csv": "a9e14678a792ae181d0d8f089b019999668248c339f20d2d12a41276fed3d769",
         "traj_rep000.csv": "ef33c6cd62b32e51074fe1432f2452fee995b61ff62d13d540fa2f527d73a78d",
         "traj_rep001.csv": "ef33c6cd62b32e51074fe1432f2452fee995b61ff62d13d540fa2f527d73a78d"}),
    # a general A (fused-lasso-graph): a linearized run, whose matrix
    # G_rest = -beta A'A takes the x-update's product with G, and a
    # stochastic run at beta = 0.5
    "linearized-general-A": (
        dict(preset="fused-lasso-graph", replications=1, t_grid=list(range(1, 301)),
             solver=SolverConfig(variant="linearized", G=4.0, t_max=300)),
        {"aggregate.csv": "54a2de630799bb0f1458b9375a580cafc7776fbb4652a116cc766b7566e05357",
         "traj_rep000.csv": "9b50ee363d9a4e7ff5aef248f465ed094a23117aff48ff350b5ea20ab2efe324"}),
    "general-beta-0.5": (
        dict(preset="fused-lasso-graph", replications=2,
             solver=SolverConfig(t_max=300, beta=0.5)),
        {"aggregate.csv": "2c3ba305f6f8f491533e1bd522f90e3b2970d4d328aaad154a64962fc4314ae6",
         "traj_rep000.csv": "ace952c32803f71f56493e3b73bbf278cc1f07163c84905c04507589bc63026e",
         "traj_rep001.csv": "64780ce5ec392119f3909fc56c2186ccd3c48a33a979393c7981b9cfb1b81f1c"}),
    "hinge-labels": (
        dict(preset="hinge-svm-split", replications=3, solver=SolverConfig(t_max=1700)),
        {"traj_rep000.csv": "cadc50221e13ed68177193c2e42fbd2e68ed2aec9f0ba6a7b84d51617c0b65da",
         "traj_rep001.csv": "50454859ba2c0d10f22faeb5c5a11c1f77d72295d46b497695a3379479559421",
         "traj_rep002.csv": "cf033f09dc0f00620a77dbf61954393519203c59a0d8283c9fc2225a42d22121"}),
    # stochastic runs of one replication, recorded when they advanced a
    # (1, d) state: the identity-split update, a general A, a checked run and
    # the exact oracle (no draws) with the constant schedule
    "kernel-stochastic-R1": (
        dict(preset="lasso-split", replications=1, solver=SolverConfig(t_max=300)),
        {"aggregate.csv": "af00c5be4f5150b01881d13197c942a6890f05e7a57d1ebe715b42cccbc9bedb",
         "traj_rep000.csv": "8f0aa9045740afe203366efc1791c0404d86c13e274203451b02b3dbbe51418c"}),
    "general-step-R1": (
        dict(preset="fused-lasso-graph", replications=1, solver=SolverConfig(t_max=300)),
        {"aggregate.csv": "b6d8905ba9d046477a28a0616f68ac7288b853a52e09690698b98d3fdaa08d64",
         "traj_rep000.csv": "3d808cc9994b1ea2fd702d062fa30ed28fa92fbf7c2615a2b942d84eb248e65a"}),
    "checked-R1": (
        dict(preset="lasso-split", replications=1,
             solver=SolverConfig(t_max=100, check_invariants=True)),
        {"aggregate.csv": "df1e1c1f0a7a5bce060bff0393344113d77c051a8566fa3d3fbd9be516c51341",
         "traj_rep000.csv": "d0b131cf6ed899a8610324fe61243b162b2a6fc7e28f932e522c3e7cf711f7ad"}),
    "exact-constant-R1": (
        dict(preset="lasso-split", replications=1,
             preset_params={**SMALL, "oracle": "exact"},
             solver=SolverConfig(schedule="constant", eta0=0.1, t_max=300)),
        {"aggregate.csv": "937863cc6bad379eb23f0de90918437d6825c08c251ec1e2a7052d8e152a28fd",
         "traj_rep000.csv": "839446c8d7fbe30ac904747f64c913a3d3fc347f74d6841c90cd90186d6563ba"}),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_outputs_match_recorded_digests(tmp_path, name):
    fields, digests = GOLDEN[name]
    _, code = run_experiment(ExperimentConfig(out_dir=str(tmp_path),
                                              **{"preset_params": SMALL, **fields}))
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert written == digests


# config name -> (ExperimentConfig fields, float.hex of each invariant_worst
# value (None for a check that did not run), invariant_probes, sha256 of
# invariants.log) of a checked run whose x-update at step 20 is moved off its
# minimizer: GOLDEN's checked run; one with two check groups and a last chunk
# shorter than CHECK_CHUNK, on lasso-split (A = I, B = -I) and on
# fused-lasso-graph (a general A); one with beta = 0.5; and a linearized run,
# which checks only the dual identity and y-optimality, both exact at any x
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
    "checked-general-A-R6-T77": (
        dict(preset="fused-lasso-graph", replications=6,
             solver=SolverConfig(t_max=77, check_invariants=True)),
        {"dual-identity": "0x1.0000000000000p-56", "y-optimality": "0x1.6db94ef1a378ap-53",
         "three-points": "0x1.e938eee96e856p+8", "step-inequality": "0x1.f9591cbc5da36p-1"},
        {"dual-identity": 462, "y-optimality": 9240, "three-points": 2310,
         "step-inequality": 2310},
        "ee018ded45155f5506eaf13b6c3a8cdf695f718e4df1a0aac89a77a85f8ffd4c"),
    "checked-beta-0.5": (
        dict(preset="lasso-split", replications=2,
             solver=SolverConfig(t_max=100, beta=0.5, check_invariants=True)),
        {"dual-identity": "0x1.18cc821d6d3e3p-56", "y-optimality": "0x1.c06b3c3ddba4dp-51",
         "three-points": "0x1.8994a46d0eb51p+9", "step-inequality": "0x1.fe83477f45d2bp-1"},
        {"dual-identity": 200, "y-optimality": 4000, "three-points": 1000,
         "step-inequality": 1000},
        "8db2d756460d4b28e57431c6435fde80ee387d7eab102ecf7d1e90b21af55f8e"),
    "checked-linearized": (
        dict(preset="lasso-split", replications=2,
             solver=SolverConfig(variant="linearized", G=2.0, t_max=100,
                                 check_invariants=True)),
        {"dual-identity": "0x1.6a09e667f3bcdp-57", "y-optimality": "0x1.74149f89d5d42p-54",
         "three-points": None, "step-inequality": None},
        {"dual-identity": 200, "y-optimality": 4000, "three-points": 0,
         "step-inequality": 0},
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
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
    log = (tmp_path / "invariants.log").read_bytes()
    assert code == (1 if log else 0)
    assert {k: None if v is None else v.hex()
            for k, v in report["invariant_worst"].items()} == worst
    assert report["invariant_probes"] == probes
    assert hashlib.sha256(log).hexdigest() == log_digest


# (preset, seed) -> float.hex of the feasible ball's radius, sized by the
# FISTA solve on the lasso presets, and of the long-ADMM reference optimum
# theta*, of a general A on fused-lasso-graph
SETUP = {
    ("lasso-split", 0): ("0x1.51c84dd068c59p+1", "0x1.ac9383fccec1ap-1"),
    ("lasso-split", 1): ("0x1.a26c9f01f28ddp+1", "0x1.a8fc69dbf54e2p-1"),
    ("lasso-split", 2): ("0x1.a2d6f86b9047ep+0", "0x1.52df1aefee9a3p-1"),
    ("strongly-convex-lasso", 0): ("0x1.e547d3985b182p+0", "0x1.cc74c51756a21p-1"),
    ("strongly-convex-lasso", 1): ("0x1.6a2fb7108311bp+1", "0x1.e428bce461ca0p-1"),
    ("strongly-convex-lasso", 2): ("0x1.4db4fae00fb4cp+0", "0x1.607e7a4924930p-1"),
    ("fused-lasso-graph", 0): ("0x1.5e3779b97f4a8p+2", "0x1.f3c025111c7a4p-2"),
    ("fused-lasso-graph", 1): ("0x1.5e3779b97f4a8p+2", "0x1.13d293471cf3ep-2"),
    ("fused-lasso-graph", 2): ("0x1.5e3779b97f4a8p+2", "0x1.07c7701fde340p-1"),
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


# per replication of a checked lasso-split run (R = 6, T = 77, two check
# groups), the float.hex of each invariant_worst value, invariant_probes and
# the sha256 of its invariant_log entries as "k name residual.hex()" lines.
# Replication 1's subgradient is NaN at step 20, so the passes after it check
# the replications [0, 2, 3, 4, 5]; every x-update of step 40 is moved off
# its minimizer, so each of them logs in that set
_FULL = {"dual-identity": 77, "y-optimality": 1540, "three-points": 385,
         "step-inequality": 385}
NON_CONTIGUOUS = [
    ({"dual-identity": "0x1.6a09e667f3bcdp-57", "y-optimality": "0x1.4b893fd54f60cp-51",
      "three-points": "0x1.f29cbec875c33p+9", "step-inequality": "0x1.fe53a11dbde87p-1"},
     _FULL, "5799735429b9e949d32e2decb85bcdeb4132793bd3134c5bf99443574dc75268"),
    (dict.fromkeys(_FULL, "nan"),
     {"dual-identity": 20, "y-optimality": 400, "three-points": 100,
      "step-inequality": 100},
     "18a39416127ff9fd532de1927abc52214a9419c285ed79b248ed919c58262c4f"),
    ({"dual-identity": "0x1.36a9ef26f762fp-57", "y-optimality": "0x1.27ae25a1d4b4ap-52",
      "three-points": "0x1.01f996372b780p+10", "step-inequality": "0x1.fe73cabf30bfdp-1"},
     _FULL, "8251865d6c7d6552b8dabf16549553926522c59c07a3c542b49045d86ab6ccfb"),
    ({"dual-identity": "0x1.6fa6ea162d0f0p-57", "y-optimality": "0x1.010e7c52c2367p-51",
      "three-points": "0x1.046e49e50439dp+10", "step-inequality": "0x1.fdcd68434d918p-1"},
     _FULL, "b75b4b76234d52286431fea9687b17234f92bb9ddacfc678941abe07305b0877"),
    ({"dual-identity": "0x1.bb67ae8584caap-57", "y-optimality": "0x1.815d626c750aap-52",
      "three-points": "0x1.01b9b51e6f666p+10", "step-inequality": "0x1.fe1ada26cbd32p-1"},
     _FULL, "aa4bd6d5433e2a6d5e360bb55990b14d5b9864c1d9d96b0081142f03dae36cb2"),
    ({"dual-identity": "0x1.01fe03f61bad0p-56", "y-optimality": "0x1.8e529cca1a8bdp-51",
      "three-points": "0x1.f61d526eb6a61p+9", "step-inequality": "0x1.fedc3f8db4e35p-1"},
     _FULL, "520352513f7a07b8258ebd7ee56a51a9b45822f62074ade76c5e7a39a7599555"),
]


def test_checks_of_a_non_contiguous_replication_set_match_recorded_values(monkeypatch):
    from stocadmm.oracle import SampleBuffer
    real_g, draws = SampleBuffer.subgradient, [0]
    real_x, solves = solvers.min_quadratic_over_set, [0]

    def nan_at_20(self, theta1, x, k):
        g = np.array(real_g(self, theta1, x, k))
        draws[0] += 1
        if draws[0] == 20:
            g[1] = np.nan
        return g

    def moved_at_40(*args, **kwargs):
        x = real_x(*args, **kwargs)
        solves[0] += 1
        return x + 3.0 if solves[0] == 40 else x

    monkeypatch.setattr(SampleBuffer, "subgradient", nan_at_20)
    monkeypatch.setattr(solvers, "min_quadratic_over_set", moved_at_40)
    cfg = ExperimentConfig(preset="lasso-split", preset_params=SMALL, replications=6,
                           solver=SolverConfig(t_max=77, check_invariants=True))
    preset, plan = plan_experiment(cfg)
    trajs = run_replications(preset, plan, 6, np.arange(1, 78), None)
    seen = []
    for traj in trajs:
        log = "".join(f"{k} {name} {res.hex()}\n" for k, name, res in traj.invariant_log)
        seen.append(({name: v.hex() for name, v in traj.invariant_worst.items()},
                     traj.invariant_probes, hashlib.sha256(log.encode()).hexdigest()))
    assert seen == NON_CONTIGUOUS
    assert [traj.error for traj in trajs] == [None, "iteration 20: non-finite iterate",
                                              None, None, None, None]
