//! Minimal command-line parsing shared by the reproduction binaries.
//!
//! Kept dependency-free on purpose: the binaries accept a handful of
//! uniform flags (`--trials`, `--threads`, `--csv <path>`,
//! `--json <path>`). `fig5`, `repro-all` and `validate` also take
//! `--seed`, the seed of Fig. 5's realization. The grid binaries
//! (`fig6`–`fig9`, `table1`) parse with [`CliArgs::parse_grid`] and
//! reject it: their grids always use seeds `0..trials`.
//!
//! Each figure binary opens the store `HARVEST_SWEEP_STORE` selects
//! once, at the top of `main`, with
//! [`store_from_env`](crate::store::store_from_env), and runs every
//! figure driver on the same [`CliArgs::plan`].

use std::path::PathBuf;

use crate::figures::RunPlan;
use crate::parallel::default_threads;
use crate::store::PackStore;

/// Parsed flags common to all repro binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Task sets per experimental point.
    pub trials: usize,
    /// Worker threads.
    pub threads: usize,
    /// Seed of Fig. 5's solar realization. Always 0 under
    /// [`CliArgs::parse_grid`], whose binaries use seeds `0..trials`.
    pub seed: u64,
    /// Write the figure's data as CSV here, in addition to stdout.
    pub(crate) csv: Option<PathBuf>,
    /// Write the figure's full data as a JSON [`Record`](crate::record::Record).
    pub(crate) json: Option<PathBuf>,
}

impl CliArgs {
    /// Parses `std::env::args`, `--seed` included, exiting with a
    /// usage message (status 2) on error.
    pub fn parse(default_trials: usize) -> CliArgs {
        Self::parse_env(default_trials, true)
    }

    /// [`CliArgs::parse`] for the grid binaries (`fig6`–`fig9`,
    /// `table1`): their grids always use seeds `0..trials`, so `--seed`
    /// is a usage error rather than a flag that is silently ignored.
    pub fn parse_grid(default_trials: usize) -> CliArgs {
        Self::parse_env(default_trials, false)
    }

    fn parse_env(default_trials: usize, seeded: bool) -> CliArgs {
        match Self::try_parse_with(std::env::args().skip(1), default_trials, seeded) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: <bin> [--trials N] [--threads N]{} [--csv PATH] [--json PATH]",
                    if seeded { " [--seed N]" } else { "" }
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses `args` (program name excluded), with `--seed` an error
    /// unless `seeded`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending flag or value.
    fn try_parse_with<I, S>(args: I, default_trials: usize, seeded: bool) -> Result<CliArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = CliArgs {
            trials: default_trials,
            threads: default_threads(),
            seed: 0,
            csv: None,
            json: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_ref().to_owned();
            let mut value = || {
                it.next()
                    .map(|v| v.as_ref().to_owned())
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match flag.as_str() {
                "--trials" => {
                    out.trials = value()?
                        .parse()
                        .map_err(|_| "--trials expects a positive integer".to_owned())?;
                    if out.trials == 0 {
                        return Err("--trials must be at least 1".into());
                    }
                }
                "--threads" => {
                    out.threads = value()?
                        .parse()
                        .map_err(|_| "--threads expects a positive integer".to_owned())?;
                    if out.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--seed" if !seeded => {
                    return Err(
                        "--seed is not accepted: this grid always uses seeds 0..trials".into(),
                    )
                }
                "--seed" => {
                    out.seed = value()?
                        .parse()
                        .map_err(|_| "--seed expects an unsigned integer".to_owned())?;
                }
                "--csv" => out.csv = Some(PathBuf::from(value()?)),
                "--json" => out.json = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// The plan every figure driver of this invocation runs on:
    /// `--threads` workers against `store` (the process's one store,
    /// from [`store_from_env`](crate::store::store_from_env)), telemetry
    /// off.
    pub fn plan<'a>(&self, store: Option<&'a PackStore>) -> RunPlan<'a> {
        RunPlan {
            store,
            ..RunPlan::new(self.threads)
        }
    }

    /// Writes `csv` to the `--csv` path if one was given, reporting the
    /// destination on stderr.
    pub fn maybe_write_csv(&self, csv: &str) {
        if let Some(path) = &self.csv {
            match std::fs::write(path, csv) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }

    /// Writes a figure as a JSON `Record` to
    /// the `--json` path if one was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, name: &str, data: &T) {
        if let Some(path) = &self.json {
            let record = crate::record::Record::new(name, self.trials, self.seed, data);
            match record.write_to(path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply() {
        let args = CliArgs::try_parse_with(Vec::<String>::new(), 25, true).unwrap();
        assert_eq!(args.trials, 25);
        assert!(args.threads >= 1);
        assert_eq!(args.seed, 0);
        assert_eq!(args.csv, None);
    }

    #[test]
    fn flags_parse() {
        let args = CliArgs::try_parse_with(
            [
                "--trials",
                "7",
                "--threads",
                "3",
                "--seed",
                "99",
                "--csv",
                "/tmp/x.csv",
                "--json",
                "/tmp/x.json",
            ],
            1,
            true,
        )
        .unwrap();
        assert_eq!(args.trials, 7);
        assert_eq!(args.threads, 3);
        assert_eq!(args.seed, 99);
        assert_eq!(args.csv, Some(PathBuf::from("/tmp/x.csv")));
        assert_eq!(args.json, Some(PathBuf::from("/tmp/x.json")));
    }

    #[test]
    fn bad_flag_rejected() {
        assert!(CliArgs::try_parse_with(["--bogus"], 1, true).is_err());
        assert!(CliArgs::try_parse_with(["--seed", "3"], 1, false).is_err());
        assert!(CliArgs::try_parse_with(["--trials"], 1, true).is_err());
        assert!(CliArgs::try_parse_with(["--trials", "zero"], 1, true).is_err());
        assert!(CliArgs::try_parse_with(["--trials", "0"], 1, true).is_err());
    }
}
