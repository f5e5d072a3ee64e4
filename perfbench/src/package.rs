//! The `package-large` and `package-table1` workloads: the real
//! `copack plan <circuit> --package --threads 1` command, timed end to
//! end, and (traced) the same plan rebuilt from its public calls.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use copack_core::{
    assign, evaluate_package_ir, exchange, plan_package, Codesign, PackageReport, Schedule,
};
use copack_gen::SplitMix64;
use copack_geom::{Package, QuadrantSide, StackConfig};
use copack_io::{parse_quadrant, write_quadrant};
use copack_route::{analyze, cutline_congestion, is_monotonic};

use crate::proc::{run_measured, run_timed, Run};
use crate::stats::{median, tail_or_max};
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Large-4k instances planned per `package-large` run.
pub const LARGE_INSTANCES: usize = 3;
/// Seeds the draw of the large-4k instances' generator seeds. The
/// instances are the same in every run, so the quality metrics are
/// exact and any change in them is the program's.
const LARGE_SEEDS_FROM: u64 = 4;
/// Stacking tiers cycled by `package-table1`.
pub const TABLE1_PSI: [u8; 2] = [1, 4];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One `copack plan` invocation of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Base name of the circuit file.
    pub file: String,
    /// The circuit file's bytes, as generated.
    pub text: String,
    /// `--psi`.
    pub psi: u8,
}

impl Job {
    fn args<'a>(&'a self, path: &'a str, psi: &'a str) -> Vec<&'a str> {
        let mut args = vec!["plan", path, "--package", "--threads", "1"];
        if self.psi > 1 {
            args.extend(["--psi", psi]);
        }
        args
    }

    fn config(&self) -> Codesign {
        Codesign {
            stack: if self.psi <= 1 {
                StackConfig::planar()
            } else {
                StackConfig::stacked(self.psi).expect("the workload's psi is valid")
            },
            threads: 1,
            ..Codesign::default()
        }
    }
}

/// The jobs of `workload` for `seed`, in the order a run cycles them.
///
/// `package-large` plans [`LARGE_INSTANCES`] large-4k instances from
/// distinct generator seeds; `package-table1` plans the paper's five
/// circuits at each ψ of [`TABLE1_PSI`]. Both keep a fixed job set and
/// start the cycle at a position chosen by `seed`.
///
/// # Panics
///
/// On an unknown workload name (the caller validates it).
#[must_use]
pub fn jobs(workload: &str, seed: u64) -> Vec<Job> {
    let mut all: Vec<Job> = match workload {
        "package-large" => {
            let mut rng = SplitMix64::new(LARGE_SEEDS_FROM);
            (0..LARGE_INSTANCES)
                .map(|i| {
                    let gen_seed = rng.next_u64() >> 16;
                    let spec = copack_gen::large_circuit("4k", gen_seed).expect("4k is a preset");
                    let quadrant = spec.build_quadrant().expect("large instance builds");
                    Job {
                        file: format!("large-4k-{i}.circuit"),
                        text: write_quadrant(&spec.name, &quadrant),
                        psi: 1,
                    }
                })
                .collect()
        }
        "package-table1" => {
            let mut all = Vec::new();
            for circuit in copack_gen::circuits() {
                let quadrant = circuit.build_quadrant().expect("Table 1 circuit builds");
                let name = circuit.name.replace(' ', "");
                let text = write_quadrant(&name, &quadrant);
                for psi in TABLE1_PSI {
                    all.push(Job {
                        file: format!("{name}.circuit"),
                        text: text.clone(),
                        psi,
                    });
                }
            }
            all
        }
        other => panic!("not a package workload: {other}"),
    };
    let start = usize::try_from(seed % all.len() as u64).expect("small index");
    all.rotate_left(start);
    all
}

/// Generates the inputs and writes them under `dir`, then warms up with
/// one CLI package plan of Table 1 circuit 1 (pages the binary in).
/// Returns the jobs.
fn set_up(bin: &Path, dir: &Path, workload: &str, seed: u64) -> Result<Vec<Job>, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let jobs = jobs(workload, seed);
    for job in &jobs {
        let path = dir.join(&job.file);
        fs::write(&path, &job.text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let warm = dir.join("warm-up.circuit");
    let warm = warm.to_str().expect("utf-8 path");
    run_timed(bin, &["gen", "1", "--out", warm])?;
    run_timed(bin, &["plan", warm, "--package", "--threads", "1"])?;
    Ok(jobs)
}

/// One timed CLI plan of a job.
fn plan_cli(bin: &Path, dir: &Path, job: &Job) -> Result<Run, String> {
    let path = dir.join(&job.file);
    let path = path.to_str().expect("utf-8 path");
    let psi = job.psi.to_string();
    run_measured(bin, &job.args(path, &psi))
}

/// The order lines the CLI printed, in side order.
fn printed_orders(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("order["))
        .filter_map(|l| l.split_once("]: ").map(|(_, order)| order.to_owned()))
        .collect()
}

/// One in-process `parse_quadrant` + `plan_package` of a job: the
/// report and its wall time (ms).
fn plan_in_process(job: &Job) -> Result<(PackageReport, f64), String> {
    let started = Instant::now();
    let (_, quadrant) = parse_quadrant(&job.text).map_err(|e| e.to_string())?;
    let report =
        plan_package(&Package::uniform(quadrant), &job.config()).map_err(|e| e.to_string())?;
    Ok((report, started.elapsed().as_secs_f64() * 1e3))
}

/// Checks a job's printed output against an in-process `plan_package`
/// report: the same orders, each monotonic-legal for its quadrant.
fn check_job(job: &Job, report: &PackageReport, stdout: &[u8]) -> Result<(), String> {
    let stdout = std::str::from_utf8(stdout).map_err(|e| e.to_string())?;
    let expected: Vec<String> = report.assignments.iter().map(ToString::to_string).collect();
    if printed_orders(stdout) != expected {
        return Err(format!(
            "{} psi {}: printed orders differ from plan_package",
            job.file, job.psi
        ));
    }
    let (_, quadrant) = parse_quadrant(&job.text).map_err(|e| e.to_string())?;
    for (side, quadrant) in Package::uniform(quadrant).quadrants() {
        if !is_monotonic(quadrant, &report.assignments[side.index()]) {
            return Err(format!(
                "{} psi {}: side {side:?} is not monotonic",
                job.file, job.psi
            ));
        }
    }
    Ok(())
}

/// The untraced run: end-to-end metrics plus every output check.
///
/// # Errors
///
/// On a failed command or a failed output check.
pub fn run(
    bin: &Path,
    work: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let dir = work.join("inputs");
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        jobs = set_up(bin, &dir, workload, seed)?;
        setups.push(started.elapsed().as_secs_f64());
    }

    // Whole rounds over the job list until the time is up (at least two,
    // so every job is planned twice and the byte check has a partner).
    let mut walls: Vec<f64> = Vec::new();
    let mut maxrss_kib = 0u64;
    let mut first: Vec<Option<Vec<u8>>> = vec![None; jobs.len()];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
        for (i, job) in jobs.iter().enumerate() {
            let run = plan_cli(bin, &dir, job)?;
            walls.push(run.wall.as_secs_f64() * 1e3);
            maxrss_kib = maxrss_kib.max(run.maxrss_kib);
            match &first[i] {
                None => first[i] = Some(run.stdout),
                Some(bytes) if *bytes == run.stdout => {}
                Some(_) => {
                    return Err(format!(
                        "{} psi {}: repeated plans printed different bytes",
                        job.file, job.psi
                    ))
                }
            }
        }
        rounds += 1;
    }
    let _ = fs::remove_dir_all(&dir);

    // Every job printed the same bytes each time, so checking its first
    // output against one in-process plan checks them all.
    let mut quality = [0.0f64; 4];
    for (job, stdout) in jobs.iter().zip(&first) {
        let (report, _) = plan_in_process(job)?;
        check_job(job, &report, stdout.as_deref().expect("planned"))?;
        quality[0] += f64::from(report.max_density());
        quality[1] += report
            .routing
            .iter()
            .map(|r| r.total_wirelength)
            .sum::<f64>();
        quality[2] += report.ir_after.unwrap_or(0.0) * 1e3;
        quality[3] += f64::from(report.cutlines.max());
    }

    let mut metrics = Metrics::new();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("p50_ms", median(&walls), "ms");
    metrics.put("tail_ms", tail_or_max(&walls), "ms");
    // Every CLI plan runs the planner, so the latency of the requests
    // that did work is the plan latency.
    metrics.put("work_p50_ms", median(&walls), "ms");
    metrics.put(
        "rate_rps",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    metrics.put("rss_mb", maxrss_kib as f64 / 1024.0, "MB");
    // Always 1: a failed plan or check has already failed the run.
    metrics.put("ok_share", 1.0, "share");
    metrics.put("max_density", quality[0], "count");
    metrics.put("wirelength_um", quality[1], "um");
    metrics.put("ir_drop_mv", quality[2], "mV");
    metrics.put("cutline_max", quality[3], "count");
    Ok(Outcome {
        attempted: walls.len() as u64,
        failed: 0,
        metrics,
        notes: vec![format!(
            "{} plans in {rounds} rounds over {} jobs",
            walls.len(),
            jobs.len()
        )],
    })
}

/// `plan_package` rebuilt from its public calls, each wrapped in a span
/// of request `req`. Returns the report.
fn traced_plan(
    tracer: &mut Tracer,
    req: u64,
    text: &str,
    config: &Codesign,
) -> Result<PackageReport, String> {
    tracer.span("plan", req, |t| {
        let (_, quadrant) = t
            .span("io.parse", req, |_| parse_quadrant(text))
            .map_err(|e| e.to_string())?;
        let package = Package::uniform(quadrant);
        let mut initials = Vec::with_capacity(4);
        for (_, quadrant) in package.quadrants() {
            initials.push(
                t.span("core.assign", req, |_| assign(quadrant, config.method))
                    .map_err(|e| e.to_string())?,
            );
        }
        let initials: [_; 4] = initials.try_into().expect("four quadrants");
        let ir_before = t
            .span("power.ir_solve", req, |_| {
                evaluate_package_ir(&package, &initials, &config.grid)
            })
            .map_err(|e| e.to_string())?;
        let mut finals = Vec::with_capacity(4);
        let mut routing = Vec::with_capacity(4);
        for (side, quadrant) in package.quadrants() {
            let mut side_config = config.exchange.clone();
            side_config.seed = config.exchange.seed.wrapping_add(side.index() as u64 + 1);
            let result = t
                .span("core.anneal", req, |_| {
                    exchange(
                        quadrant,
                        &initials[side.index()],
                        &config.stack,
                        &side_config,
                    )
                })
                .map_err(|e| e.to_string())?;
            t.count("core.anneal_moves", req, result.stats.proposed as u64);
            t.count("core.anneal_accepted", req, result.stats.accepted as u64);
            let report = t
                .span("route.analyze", req, |_| {
                    analyze(quadrant, &result.assignment, config.density_model)
                })
                .map_err(|e| e.to_string())?;
            finals.push(result.assignment);
            routing.push(report);
        }
        let finals: [_; 4] = finals.try_into().expect("four quadrants");
        let ir_after = t
            .span("power.ir_solve", req, |_| {
                evaluate_package_ir(&package, &finals, &config.grid)
            })
            .map_err(|e| e.to_string())?;
        let cutlines = t
            .span("route.cutline", req, |_| {
                cutline_congestion(&package, &finals, config.density_model)
            })
            .map_err(|e| e.to_string())?;
        Ok(PackageReport {
            assignments: finals,
            routing: routing.try_into().expect("four quadrants"),
            ir_before,
            ir_after,
            cutlines,
        })
    })
}

/// Time (ms) of one exchange pass truncated to its first temperature
/// step on every side: the anneal's fixed set-up cost.
fn anneal_setup_ms(
    tracer: &mut Tracer,
    req: u64,
    text: &str,
    config: &Codesign,
) -> Result<(), String> {
    let (_, quadrant) = parse_quadrant(text).map_err(|e| e.to_string())?;
    let package = Package::uniform(quadrant);
    for side in QuadrantSide::ALL {
        let quadrant = package.quadrant(side);
        let initial = assign(quadrant, config.method).map_err(|e| e.to_string())?;
        let mut side_config = config.exchange.clone();
        side_config.seed = config.exchange.seed.wrapping_add(side.index() as u64 + 1);
        side_config.schedule = Schedule::prefix(&side_config.schedule, 1);
        tracer
            .span("core.anneal_setup", req, |_| {
                exchange(quadrant, &initial, &config.stack, &side_config)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The traced run: per-layer self times, counts and ratios.
///
/// # Errors
///
/// On a failed command, or when the rebuilt plan differs from
/// `plan_package`'s.
pub fn run_traced(
    bin: &Path,
    work: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let dir: PathBuf = work.join("inputs");
    let jobs = set_up(bin, &dir, workload, seed)?;
    let mut per_plan: Vec<[f64; 12]> = Vec::new();
    let mut overhead = Vec::new();
    let started = Instant::now();
    let mut req = 0u64;
    while req == 0 || started.elapsed().as_secs_f64() < seconds {
        for job in &jobs {
            // The traced plan sits between the CLI plan and the untraced
            // one, and the order flips on every other plan, so a drift of
            // the machine's speed charges neither difference in one
            // direction.
            let config = job.config();
            let cli_first = req.is_multiple_of(2);
            let cli = if cli_first {
                Some(plan_cli(bin, &dir, job)?)
            } else {
                None
            };
            let before = if cli_first {
                None
            } else {
                Some(plan_in_process(job)?)
            };
            let report = traced_plan(tracer, req, &job.text, &config)?;
            let (reference, untraced_ms) = match before {
                Some(before) => before,
                None => plan_in_process(job)?,
            };
            let cli = match cli {
                Some(cli) => cli,
                None => plan_cli(bin, &dir, job)?,
            };
            if report != reference {
                return Err(format!(
                    "{} psi {}: the traced rebuild differs from plan_package",
                    job.file, job.psi
                ));
            }
            anneal_setup_ms(tracer, req, &job.text, &config)?;

            let self_times = tracer.self_times();
            let ms = |name: &str| tracer.self_ns(&self_times, name, req) as f64 / 1e6;
            let traced_ms = tracer.total_ns("plan", req) as f64 / 1e6;
            overhead.push(100.0 * (traced_ms - untraced_ms) / untraced_ms);
            let anneal_ms = ms("core.anneal");
            let moves = tracer.counter("core.anneal_moves", req) as f64;
            let accepted = tracer.counter("core.anneal_accepted", req) as f64;
            per_plan.push([
                cli.wall.as_secs_f64() * 1e3 - traced_ms,
                ms("io.parse"),
                ms("core.assign"),
                anneal_ms,
                ms("core.anneal_setup"),
                moves,
                moves / (anneal_ms / 1e3),
                accepted / moves,
                ms("power.ir_solve"),
                tracer
                    .spans()
                    .iter()
                    .filter(|s| s.req == req && s.name == "power.ir_solve")
                    .count() as f64,
                ms("route.analyze"),
                ms("route.cutline"),
            ]);
            req += 1;
        }
    }
    let _ = fs::remove_dir_all(&dir);

    let col = |i: usize| median(&per_plan.iter().map(|row| row[i]).collect::<Vec<_>>());
    let mut metrics = Metrics::new();
    metrics.put("cli.residual_ms", col(0), "ms");
    metrics.put("io.parse_ms", col(1), "ms");
    metrics.put("core.assign_ms", col(2), "ms");
    metrics.put("core.anneal_ms", col(3), "ms");
    metrics.put("core.anneal_setup_ms", col(4), "ms");
    metrics.put("core.anneal_moves", col(5), "count");
    metrics.put("core.anneal_moves_per_s", col(6), "1/s");
    metrics.put("core.anneal_accept_ratio", col(7), "ratio");
    metrics.put("power.ir_solve_ms", col(8), "ms");
    metrics.put("power.ir_solves", col(9), "count");
    metrics.put("route.analyze_ms", col(10), "ms");
    metrics.put("route.cutline_ms", col(11), "ms");
    metrics.put("bench.trace_overhead_pct", median(&overhead), "%");
    Ok(Outcome {
        attempted: req,
        failed: 0,
        metrics,
        notes: vec![format!("{req} traced plans over {} jobs", jobs.len())],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_input_bytes() {
        for workload in ["package-large", "package-table1"] {
            assert_eq!(jobs(workload, 3), jobs(workload, 3), "{workload}");
        }
        // Each workload keeps a fixed set of distinct instances; the seed
        // only rotates the cycle.
        for workload in ["package-large", "package-table1"] {
            let (a, b) = (jobs(workload, 3), jobs(workload, 4));
            assert_ne!(a[0], b[0], "{workload}");
            let sorted = |mut jobs: Vec<Job>| {
                jobs.sort_by(|x, y| (&x.file, x.psi).cmp(&(&y.file, y.psi)));
                jobs
            };
            assert_eq!(sorted(a), sorted(b), "{workload}");
        }
        let large = jobs("package-large", 0);
        assert_eq!(large.len(), LARGE_INSTANCES);
        for (i, job) in large.iter().enumerate() {
            assert!(large[..i].iter().all(|other| other.text != job.text));
        }
    }

    #[test]
    fn printed_orders_are_read_in_side_order() {
        let out = "x: package plan\n  order[0]: 1,2\n  order[1]: 2,1\n  worst: 3\n";
        assert_eq!(printed_orders(out), ["1,2", "2,1"]);
    }
}
