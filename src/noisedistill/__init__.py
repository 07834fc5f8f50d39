"""noisedistill: score distillation from noisy data, at desk scale.

Two halves share one noise-schedule vocabulary:

* an exact linear low-rank Gaussian sandbox (factored covariances, the
  closed-form distillation loss, its analytic minimizers, and a Stiefel
  descent that recovers them numerically), and
* a toy 2-D neural pipeline (denoiser pretraining on noisy points, ambient
  sampling, and distillation into a one-step generator with SDS / DMD / SiD
  gradient estimators), evaluated by moment-based Frechet metrics.

Names are imported from their modules (``noisedistill.stiefel``,
``noisedistill.distill``, ...); the CLI is ``noisedistill.cli``.
"""

__version__ = "0.1.0"
