//! Bit-identity of the paper artefacts against checked-in goldens.
//!
//! The telemetry layer's contract is that the default (no-op recorder)
//! paths do not perturb results: `table2`, `table3`, and `fig5` must
//! produce the exact bytes captured before the layer existed. The goldens
//! in `tests/golden/` were generated with
//! `cargo run --release -p copack-bench --bin <name>` at the pre-telemetry
//! commit; regenerate them the same way if an intentional model change
//! lands (and say so in the commit message).

use std::fs;
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fig5_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::fig5_report(), golden("fig5.txt"));
}

#[test]
fn table2_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::table2_report(), golden("table2.txt"));
}

#[test]
fn table3_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::table3_report(), golden("table3.txt"));
}

/// The A8 margin ablation is pinned too: its μ = 0 column runs the
/// annealer with the margin term disabled, so this golden doubles as
/// the bit-identity proof that adding the term did not perturb the
/// default flow.
#[test]
fn margin_ablation_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::margin_report(), golden("margin.txt"));
}

/// The `copack check` verdict table of every Table 1 circuit is pinned:
/// all seven oracles pass, and the detail lines (accepted-move counts,
/// pad counts, Eq. 2 `ID`) are seeded and therefore byte-stable.
/// Regenerate with
/// `for n in 1 2 3 4 5; do copack gen $n --out c.copack && copack check c.copack; done`
/// if an intentional model change lands.
#[test]
fn check_verdict_tables_are_bit_identical_to_the_golden() {
    let mut out = String::new();
    for n in 1..=5 {
        let c = copack::gen::circuit(n);
        let quadrant = c.build_quadrant().unwrap();
        let name = c.name.replace(' ', "");
        let reports = copack::verify::check_quadrant(
            &quadrant,
            &copack::verify::VerifyConfig::default(),
            &mut copack::obs::NoopRecorder,
        );
        out.push_str(&copack::verify::verdict_table(&name, &reports));
    }
    assert_eq!(out, golden("check.txt"));
}

/// A whole-package plan at scale is pinned too: the goldens above cover
/// only the paper-sized circuits, and the CI large smoke compares thread
/// counts with each other, so an anneal trajectory or routing change that
/// only shows on large instances would pass both. Generated with
/// `copack gen --family large --size 1k --seed 7 --out l.circuit` then
/// `copack plan l.circuit --package --threads 1 > large1k-package.txt`;
/// regenerate the same way if an intentional model change lands.
#[test]
fn large_package_plan_is_bit_identical_to_the_golden() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_copack");
    let dir = std::env::temp_dir().join(format!("copack_golden_large_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let circuit = dir.join("l.circuit");
    let circuit = circuit.to_str().unwrap();
    let gen = Command::new(bin)
        .args(["gen", "--family", "large", "--size", "1k", "--seed", "7"])
        .args(["--out", circuit])
        .output()
        .unwrap();
    assert!(gen.status.success(), "{gen:?}");
    let plan = Command::new(bin)
        .args(["plan", circuit, "--package", "--threads", "1"])
        .output()
        .unwrap();
    let _ = fs::remove_dir_all(&dir);
    assert!(plan.status.success(), "{plan:?}");
    assert_eq!(
        String::from_utf8(plan.stdout).unwrap(),
        golden("large1k-package.txt")
    );
}

/// Single-quadrant `copack plan` is pinned across its flag matrix: the
/// methods, the exchange at ψ 1 and 4, a reseeded margin-weighted
/// exchange, a 4-start portfolio in each mode, a `--metrics` run and a
/// tuned profile with and without an explicit `--starts 1`, each on
/// circuits 1 and 3, with stdout and the `--out` file of every run.
/// Generated from a shell script that runs, in an empty directory,
/// `copack gen 1 --out c1.circuit`, `copack gen 3 --out c3.circuit`,
/// `copack tune c1.circuit c3.circuit --quick --threads 1 --out p.tune`,
/// then for each circuit and each `RUNS` line prints the `$ copack plan`
/// header below, the command's stdout, `--- plan.order` and the file;
/// regenerate the same way if an intentional model change lands.
#[test]
fn quadrant_plan_matrix_is_bit_identical_to_the_golden() {
    use std::process::Command;
    const RUNS: [&str; 12] = [
        "",
        "--method ifa",
        "--method random --seed 7",
        "--exchange",
        "--exchange --psi 4",
        "--exchange --xseed 9 --margin-weight 0.5",
        "--exchange --starts 4",
        "--exchange --starts 4 --portfolio-mode coop --kick-size 3",
        "--exchange --starts 4 --portfolio-mode temper --ladder-ratio 2",
        "--exchange --starts 4 --metrics",
        "--exchange --profile p.tune",
        "--exchange --profile p.tune --starts 1",
    ];
    let dir = std::env::temp_dir().join(format!("copack_golden_matrix_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let copack = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_copack"))
            .current_dir(&dir)
            .args(args)
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    copack(&["gen", "1", "--out", "c1.circuit"]);
    copack(&["gen", "3", "--out", "c3.circuit"]);
    copack(&[
        "tune",
        "c1.circuit",
        "c3.circuit",
        "--quick",
        "--threads",
        "1",
        "--out",
        "p.tune",
    ]);
    let mut out = String::new();
    for circuit in ["c1.circuit", "c3.circuit"] {
        for run in RUNS {
            let mut args = vec!["plan", circuit];
            args.extend(run.split_whitespace());
            args.extend(["--out", "plan.order"]);
            out.push_str(&format!("$ copack {}\n", args.join(" ")));
            out.push_str(&copack(&args));
            out.push_str("--- plan.order\n");
            out.push_str(&fs::read_to_string(dir.join("plan.order")).unwrap());
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(out, golden("plan-matrix.txt"));
}
