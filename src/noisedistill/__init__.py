"""noisedistill: score distillation from noisy data, at desk scale.

Two halves share one noise-schedule vocabulary:

* an exact linear low-rank Gaussian sandbox (factored covariances, the
  closed-form distillation loss, its analytic minimizers, and a Stiefel
  descent that recovers them numerically), and
* a toy 2-D neural pipeline (denoiser pretraining on noisy points, ambient
  sampling, and distillation into a one-step generator with SDS / DMD / SiD
  gradient estimators), evaluated by moment-based Frechet metrics.
"""

__version__ = "0.1.0"

from .diffusion import (
    TrainConfig,
    ambient_sample,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .distill import (
    DistillConfig,
    DistillState,
    eps_from_score,
    generator_forward,
    generator_grad_dmd,
    generator_grad_sds,
    generator_grad_sid,
    init_distillation,
    run_distillation,
    score_from_mean,
)
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
    SingularCovarianceError,
    StalledOptimizationError,
)
from .gaussians import (
    EigenDecomp,
    LowRankGaussian,
    fit_gaussian,
    sample,
    structured_inverse,
    symmetric_eigen,
    w2_commuting,
)
from .linear_theory import (
    GeneratorParams,
    LinearModel,
    WassersteinReport,
    analytic_minimizer,
    eigenvalue_loss_profile,
    generator_score,
    loss_closed_form,
    loss_monte_carlo,
    noisy_score,
    principal_angles,
    trace_maximizer_check,
    wasserstein_report,
)
from .metrics import (
    CheckpointSelection,
    frechet_gaussian,
    make_eval_hook,
    proximal_fid,
    select_best_checkpoint,
)
from .nets import Adam, DenseNet
from .rng import derive, make_rng
from .schedule import NoiseSchedule
from .stiefel import OptConfig, OptTrace, euclidean_gradient, optimize, random_params, riemannian_step
from .toydata import ToyDataset, make_dataset, sample_clean
