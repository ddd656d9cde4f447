"""The model families, their grid search and model-file persistence."""
