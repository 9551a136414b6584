"""The benchmark's pinned outputs.  `tests/test_bench_contract.py` and
`tests/pins.py` read them, so this module imports nothing."""

# rep.digest of each system's output files at seed 1: a change made for
# speed alone must leave every one of them as it is.
BENCH_DIGESTS = {
    "gups-mtm": {
        "mtm": "9eb24efbda2f95e11239fa1c0cb23ff14f32e0d45eefb0079a850b879ccd01b9"},
    "gups-baselines": {
        "first-touch": "423a7780aa2e2df4fe64702cc83a352e66b52209a8f40366e38a0b8ab210bcc0",
        "autonuma": "b6fbc1eafa0759618b6d7dbacb258ca0efbd1251ae0270ed8d0d2821cefea743",
        "thermostat": "deb52cadc5ab329d42fb39244e604df52151fbfe67a35ac68f5fcbf1a1df2f76",
        "damon": "145f49376fa234d0172e8cadf2b03c61e2ee7349a804968793fb00075812a713"},
    "seq-rw-mtm": {
        "mtm": "d28b9091e535bd8fc2a152416ff717aebfa14985e2c76ba0f2357512e2c939fc"},
}
