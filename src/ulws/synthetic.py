"""Synthetic epoch datasets for tests, demos and toy caches.

Each class is a sinusoid at its own frequency with random phase per
epoch/channel plus Gaussian noise, so a working model can separate the
classes while nothing about real recordings is required.
"""

from __future__ import annotations

import numpy as np

from .preprocess import EPOCH_SAMPLES, SAMPLE_RATE_HZ, EpochDataset

CLASS_FREQS_HZ = (2.0, 5.0, 9.0, 15.0, 25.0)
NOISE_STD = 0.3  # of the Gaussian noise added to each unit-amplitude sinusoid


def sinusoid_dataset(
    n_epochs: int = 64,
    n_channels: int = 4,
    epoch_samples: int = EPOCH_SAMPLES,
    n_subjects: int = 8,
    seed: int = 0,
) -> EpochDataset:
    """Class-dependent sinusoids: epoch i carries class i % 5, subject i % n_subjects."""
    rng = np.random.default_rng(seed)
    t = np.arange(epoch_samples) / SAMPLE_RATE_HZ
    x = np.empty((n_epochs, n_channels, epoch_samples), dtype=np.float32)
    y = np.empty(n_epochs, dtype=np.uint8)
    subjects = []
    for i in range(n_epochs):
        k = i % len(CLASS_FREQS_HZ)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_channels)
        for c in range(n_channels):
            clean = np.sin(2.0 * np.pi * CLASS_FREQS_HZ[k] * t + phases[c])
            x[i, c] = clean + NOISE_STD * rng.standard_normal(epoch_samples)
        y[i] = k
        subjects.append(f"S{i % n_subjects:02d}")
    return EpochDataset(
        x=x,
        y=y,
        subject_keys=subjects,
        channel_labels=[f"CH{c}" for c in range(n_channels)],
    )
