"""A sampling report written from a dict per record: the byte oracle of
report.sample_json, report.sample_rows and the campaign summary.

This is how a report was written before the writer read each block's
columns: report.run_sample_campaign's record dicts, assembled with their
config (report.assemble) and encoded by json.dumps, and the CSV rows and
the summary read from those dicts.
"""

import json

from shearlab import report


def summary(records: list, count: int) -> dict:
    """The summary of a campaign of count samples, from its records."""
    good = [r for r in records if not r.get("error")]
    certified = [r for r in good if r["certified"]]
    return {
        "samples": count,
        "failures": len(records) - len(good),
        "certified": len(certified),
        "max_ratio_certified": report._max((r["ratio"] for r in certified),
                                           None),
        "max_ratio_uncertified": report._max((r["ratio"] for r in good
                                              if not r["certified"]), None),
        "bound_violations_certified": sum(1 for r in certified
                                          if not r["bound_satisfied"]),
        "worst_cusp_residual": report._max((r["cusp_residual"] for r in good),
                                           None),
        "worst_spiral_residual": report._max((r["spiral_residual"]
                                              for r in good), None),
        "min_margin": min((r["min_margin"] for r in good
                           if r["min_margin"] is not None), default=None),
    }


def sample_json(config: dict, records: list, summary: dict) -> str:
    """The JSON report of a campaign, as json.dumps writes it."""
    return json.dumps(report.assemble(config, records, summary),
                      sort_keys=True, indent=2) + "\n"


def sample_rows(rep: dict) -> str:
    """Flatten an assembled sampling report into the fixed CSV columns.

    The gn field contains a comma, so it is quoted per CSV convention.
    """
    rows = [report.CSV_HEADER]
    cfg = rep["config"]
    gn = f"\"({cfg['g']},{cfg['n']})\""
    for i, rec in enumerate(rep["records"]):
        if rec.get("error"):
            rows.append(f"{i},{gn},{rec['seed']},error,,,,,,")
            continue
        rows.append(
            f"{i},{gn},{rec['seed']},{str(rec['certified']).lower()},"
            f"{rec['max_shear']:.12g},{rec['bound']:.12g},"
            f"{rec['ratio']:.12g},{rec['cusp_residual']:.6g},"
            f"{rec['spiral_residual']:.6g},"
            f"{'' if rec['min_margin'] is None else format(rec['min_margin'], '.6g')}"
        )
    return "\n".join(rows) + "\n"
