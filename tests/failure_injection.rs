//! Failure-injection tests: every layer must fail loudly and precisely on
//! malformed input rather than panic or produce garbage.

use copack::cli;
use copack::core::{dfa, exchange, exchange_traced, CancelToken, CoreError, ExchangeConfig};
use copack::geom::{Assignment, GeomError, NetKind, Quadrant, QuadrantGeometry, StackConfig};
use copack::io::parse_quadrant;
use copack::obs::JsonlSink;
use copack::power::{GridSpec, PadRing, PowerError};
use copack::route::{analyze, DensityModel, RouteError};

fn run_cli(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    cli::run(&owned)
}

#[test]
fn geometry_nan_is_caught_at_build_time() {
    for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
        let g = QuadrantGeometry {
            ball_pitch: bad,
            ..QuadrantGeometry::default()
        };
        let err = Quadrant::builder()
            .row([1u32])
            .geometry(g)
            .build()
            .unwrap_err();
        assert!(matches!(err, GeomError::InvalidGeometry { .. }), "{bad}");
    }
}

#[test]
fn routing_rejects_foreign_and_missing_nets() {
    let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
    // Missing nets.
    let partial = Assignment::from_order([1u32]);
    assert!(matches!(
        analyze(&q, &partial, DensityModel::Geometric),
        Err(RouteError::Unplaced { .. })
    ));
    // An assignment with a net the quadrant has never heard of, placed so
    // the known nets stay monotonic.
    let foreign = Assignment::from_order([1u32, 2, 99]);
    let err = analyze(&q, &foreign, DensityModel::Geometric).unwrap_err();
    assert!(matches!(
        err,
        RouteError::Unplaced { .. } | RouteError::Geom(_)
    ));
}

#[test]
fn exchange_propagates_illegal_inputs() {
    let q = Quadrant::builder()
        .row([1u32, 2])
        .row([3u32])
        .net_kind(1u32, NetKind::Power)
        .build()
        .unwrap();
    // Non-monotonic initial order: nets 1 and 2 share a row.
    let bad = Assignment::from_order([2u32, 3, 1]);
    let err = exchange(&q, &bad, &StackConfig::planar(), &ExchangeConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Route(RouteError::NonMonotonic { .. })
    ));
}

#[test]
fn exchange_surfaces_config_mistakes_before_running() {
    let q = Quadrant::builder()
        .row([1u32, 2])
        .net_kind(1u32, NetKind::Power)
        .build()
        .unwrap();
    let a = dfa(&q, 1).unwrap();
    let mut cfg = ExchangeConfig::default();
    cfg.schedule.cooling = 1.5;
    assert!(matches!(
        exchange(&q, &a, &StackConfig::planar(), &cfg),
        Err(CoreError::BadConfig { .. })
    ));
    let mut cfg = ExchangeConfig::default();
    cfg.weights.lambda = f64::NAN;
    assert!(exchange(&q, &a, &StackConfig::planar(), &cfg).is_err());
}

#[test]
fn power_layer_rejects_degenerate_problems() {
    assert!(matches!(
        PadRing::from_ts(std::iter::empty()),
        Err(PowerError::NoPads)
    ));
    let bad_grid = GridSpec {
        nx: 1,
        ..GridSpec::default_chip(8)
    };
    assert!(matches!(
        copack::power::solve_sor(&bad_grid, &PadRing::uniform(2)),
        Err(PowerError::BadSpec { .. })
    ));
}

#[test]
fn parser_errors_are_precise_enough_to_fix_the_file() {
    // A realistic hand-written file with one typo on line 5.
    let text = "\
quadrant board
geometry ball_pitch=1.2 finger_pitch=0.1 finger_width=0.05 finger_height=0.2 via_diameter=0.1 ball_diameter=0.2
row 1 2 3 4
row 5 6 7
net 5 pwr
";
    let err = parse_quadrant(text).unwrap_err();
    assert_eq!(err.line, 5);
    let msg = err.to_string();
    assert!(msg.contains("pwr"), "{msg}");
    assert!(msg.contains("power"), "message suggests valid kinds: {msg}");
}

#[test]
fn truncated_files_fail_cleanly() {
    for text in ["", "quadrant", "quadrant x\nrow", "quadrant x\nrow 1\nnet"] {
        assert!(parse_quadrant(text).is_err(), "{text:?}");
    }
}

#[test]
fn duplicate_nets_across_rows_are_rejected_with_the_culprit() {
    let err = Quadrant::builder()
        .row([1u32, 2, 3])
        .row([4u32, 2])
        .build()
        .unwrap_err();
    assert_eq!(err, GeomError::DuplicateNet { net: 2.into() });
}

/// An unwritable `--trace` path is a user error: the CLI refuses it
/// before any annealing happens, with an io-layer message naming the
/// path, instead of burning the run and losing the trace at the end.
#[test]
fn unwritable_trace_path_fails_loudly_before_the_run() {
    let dir = std::env::temp_dir().join("copack_failure_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let circuit = dir.join("c1.circuit");
    let circuit = circuit.to_str().unwrap();
    let assign = dir.join("c1.assign");
    let assign = assign.to_str().unwrap();
    run_cli(&["gen", "1", "--out", circuit]).expect("gen writes the circuit");
    run_cli(&["plan", circuit, "--out", assign]).expect("plan writes the assignment");
    for cmd in [vec!["plan", circuit], vec!["ir", circuit, assign]] {
        let mut args = cmd;
        args.extend(["--trace", "/nonexistent-dir-for-copack/trace.jsonl"]);
        let err = run_cli(&args).expect_err("unwritable trace path must fail");
        assert!(err.contains("cannot open trace file"), "{err}");
        assert!(
            err.contains("/nonexistent-dir-for-copack/trace.jsonl"),
            "{err}"
        );
    }
}

/// A sink whose writer starts failing mid-run must not abort or corrupt
/// the annealing: the traced run completes with the exact untraced
/// result and the error surfaces afterwards, at `finish`.
#[test]
fn sink_write_failures_do_not_abort_the_run() {
    #[derive(Debug)]
    struct FailingWriter;
    impl std::io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full (injected)"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let q = Quadrant::builder()
        .row([1u32, 2, 4])
        .row([3u32, 5])
        .net_kind(3u32, NetKind::Power)
        .build()
        .unwrap();
    let initial = dfa(&q, 1).unwrap();
    let stack = StackConfig::planar();
    let cfg = ExchangeConfig::default();
    let plain = exchange(&q, &initial, &stack, &cfg).expect("untraced run");
    let mut sink = JsonlSink::new(FailingWriter);
    let traced = exchange_traced(&q, &initial, &stack, &cfg, &mut sink, &CancelToken::new())
        .expect("the run survives a broken sink");
    assert_eq!(plain, traced);
    // Force serialisation of whatever is still queued: the injected error
    // must surface here, not as a panic inside the hot loop.
    sink.drain();
    assert!(sink.error().is_some());
    let err = sink.finish().unwrap_err();
    assert_eq!(err.to_string(), "disk full (injected)");
}

/// Same contract end to end through the CLI: `/dev/full` accepts the
/// open but fails every write, so the plan completes, the report is
/// printed, and the trace failure is surfaced as a warning.
#[test]
#[cfg(target_os = "linux")]
fn cli_surfaces_a_warning_when_the_trace_write_fails() {
    let dir = std::env::temp_dir().join("copack_failure_injection_devfull");
    std::fs::create_dir_all(&dir).unwrap();
    let circuit = dir.join("c1.circuit");
    run_cli(&["gen", "1", "--out", circuit.to_str().unwrap()]).expect("gen writes the circuit");
    let plain = run_cli(&["plan", circuit.to_str().unwrap()]).expect("plain plan");
    let traced = run_cli(&["plan", circuit.to_str().unwrap(), "--trace", "/dev/full"])
        .expect("a failing trace write must not fail the run");
    assert!(traced.starts_with(&plain), "report changed:\n{traced}");
    assert!(
        traced.contains("warning: trace file /dev/full is incomplete"),
        "{traced}"
    );
}

#[test]
fn stacking_config_rejects_out_of_range_tiers() {
    let q = Quadrant::builder()
        .row([1u32, 2])
        .net_tier(1u32, copack::geom::TierId::new(5))
        .net_kind(2u32, NetKind::Power)
        .build()
        .unwrap();
    let a = Assignment::from_order([1u32, 2]);
    let stack = StackConfig::stacked(2).unwrap();
    // Bonding-wire computation must refuse the tier-5 net on a 2-tier stack.
    assert!(matches!(
        copack::core::total_bondwire(&q, &a, &stack),
        Err(CoreError::BadConfig { .. })
    ));
}
