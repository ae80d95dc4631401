"""22 generated stand-ins for the real-world benchmark suite.

Acceptance criterion 2 clusters every entry in both modes; test_datagen
checks that the entries keep the suite's statistics.
"""

from riskcluster.datagen import SyntheticSpec


def benchmark_manifest():
    """Entries mirroring the statistics of the cited benchmark collection.

    Sizes run 101..20000 with median 343, dims 2..262 with median 10,
    classes 2..116 with median 3. Each entry carries suggested clustering
    parameters so runs are self-describing.
    """
    rows = [
        # (name, shape, n, dim, classes, seed, extras)
        ("moons_101", "moons", 101, 2, 2, 101, {}),
        ("circles_120", "circles", 120, 2, 2, 102, {}),
        ("moons_150", "moons", 150, 2, 2, 103, {}),
        ("circles_180", "circles", 180, 2, 2, 104, {}),
        ("moons_220", "moons", 220, 2, 2, 105, {}),
        ("circles_260", "circles", 260, 2, 2, 106, {}),
        ("aniso_300", "anisotropic", 300, 2, 3, 107, {}),
        ("varied_320", "varied_variance", 320, 3, 3, 108, {}),
        ("blobs_331", "blobs", 331, 4, 3, 109, {}),
        ("varied_340", "varied_variance", 340, 8, 3, 110, {}),
        ("blobs_343a", "blobs", 343, 10, 3, 111, {}),
        ("varied_343b", "varied_variance", 343, 10, 3, 112, {}),
        ("blobs_360", "blobs", 360, 12, 4, 113, {}),
        ("varied_400", "varied_variance", 400, 16, 4, 114,
         {"varied_std": (1.0, 2.5, 0.5, 1.5)}),
        ("blobs_512", "blobs", 512, 24, 5, 115, {}),
        ("blobs_800", "blobs", 800, 32, 6, 116, {}),
        ("varied_1200", "varied_variance", 1200, 48, 8, 117,
         {"varied_std": (1.0, 2.5, 0.5, 1.5, 0.8, 1.2, 2.0, 0.6)}),
        ("blobs_2000", "blobs", 2000, 64, 10, 118, {}),
        ("blobs_4000", "blobs", 4000, 96, 16, 119, {"std": 0.8}),
        ("blobs_8000", "blobs", 8000, 128, 32, 120, {"std": 0.6}),
        ("blobs_15000", "blobs", 15000, 192, 64, 121, {"std": 0.5}),
        ("blobs_20000", "blobs", 20000, 262, 116, 122, {"std": 0.5}),
    ]
    manifest = []
    for name, shape, n, dim, classes, seed, extras in rows:
        spec_kwargs = {"shape": shape, "n": n, "seed": seed, "dim": dim}
        if shape == "blobs":
            spec_kwargs["centers"] = classes
        spec_kwargs.update(extras)
        manifest.append({
            "name": name,
            "classes": classes,
            "spec": spec_kwargs,
            "min_cluster_size": max(5, n // (classes * 12)),
            "min_samples": 10 if n >= 300 else 5,
        })
    return tuple(manifest)


def spec_from_manifest(entry):
    return SyntheticSpec(**entry["spec"])
