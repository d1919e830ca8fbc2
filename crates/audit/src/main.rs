//! Workspace invariant linter.
//!
//! ```text
//! cargo run -p atac-audit                       # exit 1 on any violation
//! cargo run -p atac-audit -- --json out.json    # also write the findings document
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use atac_audit::{report, AuditReport, RULES};

struct Args {
    root: PathBuf,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: atac_audit::workspace_root(),
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(take(&mut it, "--root")?),
            "--json" => args.json_out = Some(PathBuf::from(take(&mut it, "--json")?)),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn print_help() {
    println!(
        "atac-audit: project-specific static analysis ({} rules)",
        RULES.len()
    );
    println!();
    for r in RULES {
        println!("  {:<16} {}", r.id, r.summary);
    }
    println!();
    println!("  --root <dir>       workspace root (default: resolved from the manifest)");
    println!("  --json <file>      write the machine-readable findings document");
}

#[expect(clippy::disallowed_methods, reason = "writes the --json findings file")]
fn write_findings(path: &Path, rep: &AuditReport) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, report::findings_json(rep))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atac-audit: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rep = atac_audit::audit_workspace(&args.root);

    if let Some(path) = &args.json_out {
        if let Err(e) = write_findings(path, &rep) {
            eprintln!("atac-audit: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "atac-audit: wrote {} ({} violations, {} census sites)",
            path.display(),
            rep.violations.len(),
            rep.census.len()
        );
    }

    for v in &rep.violations {
        eprintln!("{v}");
    }
    if rep.violations.is_empty() {
        println!(
            "atac-audit: clean ({} rules, {} census sites)",
            RULES.len(),
            rep.census.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "atac-audit: {} violation(s); fix them or waive each with a reasoned \
             `// audit: allow(<kind>)` comment",
            rep.violations.len()
        );
        ExitCode::FAILURE
    }
}
