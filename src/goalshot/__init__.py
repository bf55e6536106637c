"""goalshot: when and where to kick toward the goal in simulated 2D soccer.

The package combines an analytic goal-entry probability model (how likely
a shot stays between the posts given distance-dependent aim noise) with a
trained neural scorer (how likely it beats the keeper and defenders), and
ships the data pipeline, evaluation metrics, and a paired experiment
harness around them.
"""

from .aim import AimConfig, AimResult, ShotQuery, discretize_targets, p_goal, sigma
from .dynamics import (BallState, CrossingOutcome, DynamicsConfig, kick,
                       rollout_to_goal_line, step, travel_range)
from .experiment import EpisodeOutcome, MatchStats, report, run_experiment
from .geometry import FieldConfig, Vec2
from .keeper import KeeperModel, ShotResult, simulate_shot
from .metrics import (Ks2Curve, RocCurve, auc_rank, feature_relevance,
                      ks2_curve, roc_curve)
from .mlp import (MlpParams, TrainConfig, TrainReport, forward, gradient,
                  load_model, save_model, score, score_batch, train)
from .policies import (Action, KickDecision, LdaModel, LdaPolicy, MlpPolicy,
                       NaiveCenterPolicy, PolicyConfig, lda_policy_decide,
                       lda_train, mlp_policy_decide, naive_center_policy)
from .scenes import (FEATURE_NAMES, DatasetSplit, GeneratorConfig,
                     KickScene, Label, SceneTable, UnivariateReport,
                     balance_by_replication, draw_scenes, extract_features,
                     feature_matrix, generate_synthetic_scenes, load_scenes,
                     save_scenes, split_dataset, univariate_stats)

__version__ = "0.1.0"
