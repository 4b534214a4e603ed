"""Streaming prototype estimation: online Gaussian mixtures, collapse
diagnostics, a desk-scale teacher-student simulator, and analysis exports."""

from .analysis import (
    DegenerateRankError,
    export_prototype_kde,
    gaussian_kde2d,
    pca_project,
    vmf_kde_angles,
)
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_matrix,
    read_matrix_csv,
    save_checkpoint,
    write_matrix_csv,
)
from .collapse import (
    AngularStats,
    CollapseReport,
    PrototypeMatrix,
    StateError,
    angular_stats,
    count_unique,
    epsilon_sweep,
    normalize_rows,
)
from .datagen import DataSpec, Dataset, make_dataset, make_views
from .encoder import EncoderParams, init_encoder
from .mixture import (
    DegenerateComponentError,
    GmmConfig,
    MixtureState,
    MixtureUpdate,
    SplitEvent,
    SufficientStats,
    batch_suffstats,
    e_step,
    forget_and_merge,
    gmm_update,
    init_mixture,
    log_likelihood,
    m_step,
    split_resurrect,
    spread_unit_vectors,
)
from .settings import ConfigError
from .simulate import (
    EpochTelemetry,
    SimConfig,
    SimState,
    assign,
    consistency_loss,
    prototype_step_decoupled,
    run_experiment,
    sim_config_from_text,
    student_step,
    teacher_step,
)

__version__ = "0.1.0"
