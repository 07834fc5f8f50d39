"""Each verify row that checks program code passes on it and fails when that
code is perturbed (a mutant patched in for one test)."""

import dataclasses

import pytest

from noisedistill import linear_theory, verify
from noisedistill.schedule import NoiseSchedule

DEFAULT, WIDE = NoiseSchedule(0.02, 5.0), NoiseSchedule(0.001, 80.0)


def perturbed_trace_term(monkeypatch):
    original = linear_theory.quadrature_terms

    def perturbed(*args):
        t = original(*args)
        return dataclasses.replace(t, two_tr_sinv=t.two_tr_sinv * (1 + 1e-6))

    monkeypatch.setattr(linear_theory, "quadrature_terms", perturbed)


def miscounted_floor(monkeypatch):
    original = verify.w2_shared_factor
    # d + 1 in place of d: d - r + 1 floor directions
    monkeypatch.setattr(verify, "w2_shared_factor", lambda d, r, a, b: original(d + 1, r, a, b))


def scaled_root(monkeypatch):
    original = verify.psd_sqrt
    monkeypatch.setattr(verify, "psd_sqrt", lambda cov, name: original(cov, name) * (1 + 1e-6))


def scaled_fit(monkeypatch):
    original = verify.fit_gaussian

    def scaled(samples):
        mean, cov = original(samples)
        return mean, 1.1 * cov

    monkeypatch.setattr(verify, "fit_gaussian", scaled)


ROWS = [
    (lambda seed: verify.check_woodbury(seed, DEFAULT), perturbed_trace_term),
    (lambda seed: verify.check_woodbury(seed, WIDE), perturbed_trace_term),
    (verify.check_w2_bures, miscounted_floor),
    (verify.check_eigen_residual, scaled_root),
    (verify.check_sample_fit_roundtrip, scaled_fit),
]


@pytest.mark.parametrize("seed", [0, 1, 27])
@pytest.mark.parametrize("row,mutant", ROWS, ids=["woodbury", "woodbury-wide", "w2-bures",
                                                   "psd-sqrt", "sample-fit"])
def test_row_passes_the_program_and_fails_the_mutant(row, mutant, seed, monkeypatch):
    assert row(seed).passed
    mutant(monkeypatch)
    assert not row(seed).passed
