"""The paired sapcm-apcm script counts each algorithm on its own runs and
compares MD only on the seeds where both found the true count."""

import paired_adaptive


def test_a_row_pairs_md_only_over_seeds_exact_on_both_sides():
    # (exact, surplus, md, raised) per seed
    runs = {
        "sapcm 0.1": [(True, False, 0.1, False), (True, False, 0.3, False),
                      (False, True, None, False), (False, False, None, True)],
        "sapcm 0.05": [(False, False, None, False)] * 4,
        "apcm": [(True, False, 0.2, False), (False, True, None, False),
                 (True, False, 0.1, False), (True, False, 0.5, False)],
    }
    assert paired_adaptive.row("example3", 5, 2.0, runs) == (
        "| example3 (5) | 2 | 2/1 | 0/0 | 3/1 | 0.200 / – / 0.200 | 1/1 / 0/0 | 1 |")
