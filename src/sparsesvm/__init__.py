"""Sparse support vector machines by annealed distance penalization.

Binary linear classifiers with an exact cardinality constraint on the
coefficients, trained by driving a squared-hinge objective plus a scaled
squared distance to the k-sparse set through a geometric penalty ladder.
Kernel, one-versus-one multiclass, and cross-validation layers sit on top.
"""

from .anneal import FitError, OuterRecord, prox_dist_fit, sv_count
from .config import AnnealSchedule, FitReport, SolverConfig
from .crossval import (CVRow, CVTable, SelectionMetrics, accuracy_pct,
                       cross_validate, selection_metrics)
from .data import (ColumnTransform, DataError, Dataset, DesignMatrix, FoldPlan,
                   ThinSVD, apply_transform, binarize, load_csv, make_folds,
                   thin_svd)
from .kernel import KernelModel, gram_matrix, kernel_predict
from .model_io import MODEL_FORMAT, SavedModel, load_model, save_model
from .multiclass import (GaussianKernelSpec, OVOModel, PairClassifier,
                         PairProblem, init_heuristic, predict_ovo, train_ovo)
from .objective import (ObjectiveState, PenaltyWeights, gradient, hinge_loss,
                        penalized_objective)
from .simdata import (PlantedModel, SimSpec, gen_gaussian_causal, gen_spiral,
                      gen_synthetic_corr)
from .solvers import (KernelMMWorkspace, MMWorkspace, SDWorkspace, mm_solve, mm_update,
                      sd_solve, sd_update)
from .sparsity import SparsityConstraint, project

__version__ = "0.1.0"
