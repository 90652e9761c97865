"""Sequential federated learning with discrepancy-aware multi-teacher
knowledge distillation, at desk scale: data partitioning, a from-scratch
MLP, the decoupled distillation losses, complementary teacher selection,
round orchestration, and forgetting diagnostics."""

from .data import (ClassDistribution, Dataset, PartitionSpec,
                   class_distribution, generate_synthetic, load_idx,
                   partition_exdir, split_train_test)
from .distill import (KDConfig, TeacherEnsemble, discrepancy, nckd_loss,
                      tckd_loss, teacher_weights, total_loss)
from .engine import (FederationState, RoundRecord, TrainConfig,
                     collect_teachers, local_train, run_round, sample_sequence,
                     weighted_average)
from .metrics import consistency, evaluate, forgetting_measure
from .model import (ModelParams, forward, init_params, load_params, save_params,
                    sgd_step, snapshot)
from .selection import (SelectionInstance, brute_force_select, greedy_select,
                        random_select)

__version__ = "0.1.0"
