//! Command line: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the human-readable tables, one `# host {...}` line with the
//! host facts, and as its last line the result object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Side files (ledgers, spans) go to `out/` next to this package's
//! manifest.

use dqos_perfbench::host::HostFacts;
use dqos_perfbench::{run, Budget, Workload};
use std::path::Path;
use std::process::ExitCode;

fn parse() -> Result<(Workload, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let workload = Workload::from_name(w).ok_or(format!("unknown workload {w:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <paper128_adv|clos16_trad|dqosd_churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::capture();
    let out = run(
        workload,
        seed,
        Budget {
            seconds,
            min_reps: 3,
            short: false,
        },
        trace,
    );

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let host_json = host.to_json();
    let mut files = out.files.clone();
    files.push((
        format!("{}.trace{}.seed{seed}.json", workload.name(), trace as u8),
        format!(
            "{{\"host\": {host_json}, \"result\": {}}}\n",
            out.result_line()
        ),
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| {
        files
            .iter()
            .try_for_each(|(name, body)| std::fs::write(dir.join(name), body))
    }) {
        eprintln!("perfbench: cannot write {}: {e}", dir.display());
    }

    print!("{}", out.report);
    for (k, v) in &out.counts {
        println!("# count {k} = {v}");
    }
    println!("# host {host_json}");
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
