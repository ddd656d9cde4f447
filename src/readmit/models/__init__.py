from .forest import RandomForestModel, fit_random_forest, rf_importances, rf_predict_proba
from .gridsearch import (
    GridSearchResult, expand_grid, grid_search, rf_fold_auc, svm_fold_auc,
    write_grid_csv,
)
from .logistic import LogisticModel, fit_logistic, predict_proba, sigmoid
from .pca import PcaTransform, fit_pca, pca_transform
from .persist import BUNDLE_KINDS, ModelBundle, load_bundle, save_bundle
from .selection import chi2_sf_1df, loglik_feature_select
from .svm import LinearSvmModel, fit_linear_svm, svm_decision_scores

__all__ = [
    "BUNDLE_KINDS", "GridSearchResult", "LinearSvmModel", "LogisticModel",
    "ModelBundle", "PcaTransform", "RandomForestModel", "chi2_sf_1df",
    "expand_grid", "fit_linear_svm", "fit_logistic", "fit_pca",
    "fit_random_forest", "grid_search", "load_bundle",
    "loglik_feature_select", "pca_transform", "predict_proba",
    "rf_fold_auc", "rf_importances", "rf_predict_proba", "save_bundle",
    "sigmoid", "svm_decision_scores", "svm_fold_auc", "write_grid_csv",
]
