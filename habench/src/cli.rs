//! Command-line arguments shared by both binaries.

use crate::workload::Workload;

/// Parsed arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed for the simulation and the failure schedule.
    pub seed: u64,
    /// Wall seconds to keep measuring repetitions for.
    pub seconds: u64,
    /// Exact number of repetitions, overriding `seconds`.
    pub reps: Option<usize>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> [--reps <n>]`.
    /// The runner script picks the binary from `--trace`, so the binaries
    /// never see it.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut reps) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--reps" => reps = Some(number()?.max(1) as usize),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            reps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload shards_2048 --seed 7 --seconds 12").unwrap();
        assert_eq!(a.workload, Workload::Shards2048);
        assert_eq!((a.seed, a.seconds, a.reps), (7, 12, None));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload chain_steady").is_err());
        assert!(parse("--workload chain_steady --seed x").is_err());
        assert!(parse("--workload chain_steady --seed 1 --trace 1").is_err());
        assert!(parse("--workload chain_steady --seed").is_err());
    }
}
