"""SCD-2 intervals pinned against pandas brute force at sf0.001."""
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_scd2_matches_bruteforce():
    from rayse.ops.scd import scd2_intervals

    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["tu"] = ev["ts"].astype("int64")
    ev = ev.sort_values(["user_id", "tu", "event_id"]).reset_index(
        drop=True)
    rows = []
    for uid, g in ev.groupby("user_id", sort=True):
        g = g.reset_index(drop=True)
        run_start = 0
        for i in range(1, len(g) + 1):
            if i == len(g) or g["event_type"][i] != g["event_type"][
                    run_start]:
                vt = int(g["tu"][i]) if i < len(g) else -1
                rows.append((int(uid), g["event_type"][run_start],
                             int(g["tu"][run_start]), vt,
                             i - run_start))
                run_start = i
    want = pd.DataFrame(rows, columns=["user_id", "state",
                                       "valid_from_us", "valid_to_us",
                                       "n_events"])
    got = scd2_intervals(SF).to_pandas()
    key = ["user_id", "valid_from_us", "state"]
    want = want.sort_values(key).reset_index(drop=True)
    got = got.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # intervals per user are disjoint and ordered
    for uid, g in got.groupby("user_id"):
        closes = g["valid_to_us"].to_numpy()[:-1]
        opens = g["valid_from_us"].to_numpy()[1:]
        assert (closes == opens).all()
        assert (g["valid_to_us"].to_numpy()[-1] == -1)
